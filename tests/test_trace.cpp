// The sim's trace sink, the fanout sink, JSON escaping and number
// formatting, and the Chrome trace the sink exports through its
// virtual-clock tracer.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "core/session.h"
#include "ps/trace.h"

namespace ss {
namespace {

TaskObservation task(int worker, double start_s, double dur_s) {
  TaskObservation t;
  t.worker = worker;
  t.task_duration = VTime::from_seconds(dur_s);
  t.completed_at = VTime::from_seconds(start_s + dur_s);
  t.images = 64;
  return t;
}

UpdateObservation update(Protocol protocol, double time_s) {
  UpdateObservation u;
  u.protocol = protocol;
  u.time = VTime::from_seconds(time_s);
  return u;
}

JsonValue export_trace(const TraceSink& sink) {
  std::ostringstream os;
  sink.tracer().write_chrome_trace(os);
  return parse_json(os.str());  // throws if the trace is not valid JSON
}

/// Every event called `name`, in record order.
std::vector<const JsonValue*> events(const JsonValue& doc, const std::string& name) {
  std::vector<const JsonValue*> out;
  for (const JsonValue& ev : doc.array)
    if (ev.find("name")->text == name) out.push_back(&ev);
  return out;
}

double number(const JsonValue* ev, const char* key) { return ev->find(key)->number(); }
const JsonValue* arg(const JsonValue* ev, const char* key) { return ev->find("args")->find(key); }

// ------------------------------------------------------------- json_escape

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world_42"), "hello world_42");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscape, ParsesBackToTheSameBytes) {
  std::string s = "quote \" backslash \\ slash /";
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  std::string quoted = "\"";
  quoted += json_escape(s);
  quoted += '"';
  EXPECT_EQ(parse_json(quoted).text, s);
  EXPECT_EQ(parse_json("\"a\\/b\"").text, "a/b");
}

TEST(JsonNumber, WritesTheShortestExactDecimalAndNonFiniteAsStrings) {
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(1e6), "1e+06");
  EXPECT_EQ(json_number(0.72509765625), "0.72509765625");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "\"nan\"");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::quiet_NaN()), "\"nan\"");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "\"-inf\"");
}

// -------------------------------------------------------------- FanoutSink

class CountingSink final : public MetricsSink {
 public:
  void on_task(const TaskObservation&) override { ++tasks; }
  void on_update(const UpdateObservation&) override { ++updates; }
  void on_eval(std::int64_t, VTime, double) override { ++evals; }
  int tasks = 0;
  int updates = 0;
  int evals = 0;
};

TEST(FanoutSink, ForwardsToEverySink) {
  CountingSink a, b;
  FanoutSink fan({&a, &b});
  fan.on_task(task(0, 0.0, 1.0));
  fan.on_update(UpdateObservation{});
  fan.on_update(UpdateObservation{});
  fan.on_eval(1, VTime::zero(), 0.5);
  for (const CountingSink* s : {&a, &b}) {
    EXPECT_EQ(s->tasks, 1);
    EXPECT_EQ(s->updates, 2);
    EXPECT_EQ(s->evals, 1);
  }
}

TEST(FanoutSink, RejectsNullSinks) {
  CountingSink a;
  EXPECT_THROW(FanoutSink({&a, nullptr}), ConfigError);
}

// --------------------------------------------------------------- TraceSink

TEST(TraceSink, StampsEveryEventKindInVirtualMicroseconds) {
  TraceSink sink;
  sink.on_task(task(2, 1.0, 0.5));
  UpdateObservation u = update(Protocol::kSsp, 1.5);
  u.global_step = 16;
  u.train_loss = 0.25;
  u.staleness = 3;
  sink.on_update(u);
  sink.on_eval(16, VTime::from_seconds(2.0), 0.875);
  const JsonValue doc = export_trace(sink);

  // A step span on worker 2's row (track 3), from t=1s for 0.5s.
  const auto steps = events(doc, "step");
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0]->find("ph")->text, "X");
  EXPECT_EQ(number(steps[0], "tid"), 3.0);
  EXPECT_EQ(number(steps[0], "ts"), 1000000.0);
  EXPECT_EQ(number(steps[0], "dur"), 500000.0);
  EXPECT_EQ(arg(steps[0], "images")->number(), 64.0);

  // An update instant on the control row, carrying the protocol and step.
  const auto updates = events(doc, "update");
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0]->find("ph")->text, "i");
  EXPECT_EQ(number(updates[0], "tid"), 0.0);
  EXPECT_EQ(number(updates[0], "ts"), 1500000.0);
  EXPECT_EQ(arg(updates[0], "protocol")->text, "SSP");
  EXPECT_EQ(arg(updates[0], "step")->number(), 16.0);
  EXPECT_EQ(arg(updates[0], "loss")->number(), 0.25);
  EXPECT_EQ(arg(updates[0], "staleness")->number(), 3.0);
  EXPECT_TRUE(events(doc, "protocol_switch").empty());  // the first update switches nothing

  // A test-accuracy counter sample.
  const auto acc = events(doc, "test_accuracy");
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0]->find("ph")->text, "C");
  EXPECT_EQ(number(acc[0], "ts"), 2000000.0);
  EXPECT_EQ(arg(acc[0], "value")->number(), 0.875);

  // The threaded track layout: ps/control, then one row per worker seen.
  std::vector<std::string> rows;
  for (const JsonValue* ev : events(doc, "thread_name")) rows.push_back(arg(ev, "name")->text);
  EXPECT_EQ(rows, (std::vector<std::string>{"ps/control", "worker 0", "worker 1", "worker 2"}));

  const auto meta = events(doc, "trace_metadata");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(arg(meta[0], "clock")->text, "virtual");
  EXPECT_EQ(arg(meta[0], "recorded_events")->number(), 3.0);
}

TEST(TraceSink, MarksEachProtocolChangeOnceAtItsFirstUpdate) {
  TraceSink sink;
  const Protocol seq[] = {Protocol::kBsp, Protocol::kBsp, Protocol::kAsp, Protocol::kAsp,
                          Protocol::kSsp};
  for (int i = 0; i < 5; ++i) sink.on_update(update(seq[i], i + 1.0));
  const JsonValue doc = export_trace(sink);

  const auto switches = events(doc, "protocol_switch");
  ASSERT_EQ(switches.size(), 2u);
  EXPECT_EQ(number(switches[0], "tid"), 0.0);
  EXPECT_EQ(number(switches[0], "ts"), 3000000.0);
  EXPECT_EQ(arg(switches[0], "from")->text, "BSP");
  EXPECT_EQ(arg(switches[0], "to")->text, "ASP");
  EXPECT_EQ(number(switches[1], "ts"), 5000000.0);
  EXPECT_EQ(arg(switches[1], "from")->text, "ASP");
  EXPECT_EQ(arg(switches[1], "to")->text, "SSP");
  EXPECT_EQ(events(doc, "update").size(), 5u);
}

TEST(TraceSink, CountsDropsAtTheTracersCap) {
  TraceSink sink(3);
  for (int i = 0; i < 10; ++i) sink.on_task(task(i, 0.0, 0.1));
  EXPECT_EQ(sink.tracer().recorded(), 3u);
  EXPECT_EQ(sink.tracer().dropped(), 7u);
  const JsonValue doc = export_trace(sink);
  const auto meta = events(doc, "trace_metadata");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(arg(meta[0], "dropped_events")->number(), 7.0);
  EXPECT_THROW(TraceSink(0), ConfigError);
}

TEST(TraceSink, ExportsNonFiniteLossAsJsonStrings) {
  // A diverging phase reports its last update before the finite check ends
  // it, so the loss a trace carries can be NaN or infinite.
  TraceSink sink;
  UpdateObservation u = update(Protocol::kAsp, 1.0);
  u.train_loss = std::numeric_limits<double>::quiet_NaN();
  sink.on_update(u);
  u = update(Protocol::kAsp, 2.0);
  u.train_loss = std::numeric_limits<double>::infinity();
  sink.on_update(u);
  const JsonValue doc = export_trace(sink);

  const auto updates = events(doc, "update");
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(arg(updates[0], "loss")->kind, JsonValue::Kind::kString);
  EXPECT_EQ(arg(updates[0], "loss")->text, "nan");
  EXPECT_EQ(arg(updates[1], "loss")->kind, JsonValue::Kind::kString);
  EXPECT_EQ(arg(updates[1], "loss")->text, "inf");
}

TEST(TraceSink, SaveRejectsUnwritablePath) {
  TraceSink sink;
  EXPECT_THROW(sink.tracer().save_chrome_trace("/nonexistent_dir_xyz/trace.json"), IoError);
}

// ----------------------------------------------------- session integration

TEST(TraceSink, ObservesAFullBspToAspSession) {
  RunRequest req;
  req.workload.arch = ModelArch::kLinear;
  req.workload.data = SyntheticSpec::cifar10_like();
  req.workload.data.train_size = 512;
  req.workload.data.test_size = 256;
  req.workload.data.num_classes = 4;
  req.workload.data.feature_dim = 16;
  req.workload.total_steps = 128;
  req.workload.hyper.batch_size = 16;
  req.workload.eval_interval = 32;
  req.cluster.num_workers = 4;
  req.policy = SyncSwitchPolicy::bsp_to_asp(0.25);
  req.actuator_time_scale = 0.01;

  TraceSink sink;
  req.observer = &sink;
  const RunResult r = TrainingSession(req).run();
  ASSERT_FALSE(r.diverged);
  EXPECT_EQ(sink.tracer().dropped(), 0u);
  const JsonValue doc = export_trace(sink);

  // Every minibatch step is a step span (BSP emits one per worker per
  // round; ASP one per update).
  EXPECT_GE(events(doc, "step").size(), 128u);
  EXPECT_FALSE(events(doc, "test_accuracy").empty());
  // Both protocols update, and the one switch between them is marked once.
  bool saw_bsp = false;
  bool saw_asp = false;
  for (const JsonValue* u : events(doc, "update")) {
    saw_bsp |= arg(u, "protocol")->text == "BSP";
    saw_asp |= arg(u, "protocol")->text == "ASP";
  }
  EXPECT_TRUE(saw_bsp);
  EXPECT_TRUE(saw_asp);
  const auto switches = events(doc, "protocol_switch");
  ASSERT_EQ(switches.size(), 1u);
  EXPECT_EQ(arg(switches[0], "from")->text, "BSP");
  EXPECT_EQ(arg(switches[0], "to")->text, "ASP");
}

}  // namespace
}  // namespace ss
