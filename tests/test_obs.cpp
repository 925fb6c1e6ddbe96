#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/switch_schedule.h"
#include "ps/threaded_runtime.h"
#include "ps/trace.h"
#include "scenario/scenario.h"

namespace ss {
namespace {

/// Every test owns the process-global obs state; leave it pristine.
class ObsGlobalTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_obs(); }
  void TearDown() override { reset_obs(); }
  static void reset_obs() {
    obs::disable_all();
    obs::metrics().reset();
    obs::tracer().clear();
  }
};

DataSplit easy_data() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 256;
  spec.test_size = 64;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  return make_synthetic(spec);
}

// ---------------------------------------------------------------------------
// Registry semantics.

TEST(ObsMetrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("events_total", "help text");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(&reg.counter("events_total"), &c);  // re-registration returns the same instrument

  obs::Gauge& g = reg.gauge("queue_depth");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);

  obs::Histogram& h = reg.histogram("latency_seconds", {0.1, 1.0, 10.0});
  h.observe(0.05);   // bucket 0
  h.observe(0.5);    // bucket 1
  h.observe(0.1);    // le is inclusive: bucket 0
  h.observe(100.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_NEAR(h.sum(), 100.65, 1e-9);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{2, 1, 0, 1}));

  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(ObsMetrics, RegistrationCollisionsThrow) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), ConfigError);
  EXPECT_THROW(reg.histogram("x", {1.0}), ConfigError);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), ConfigError);  // bounds mismatch
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), ConfigError);  // not increasing
  EXPECT_THROW(obs::Histogram({}), ConfigError);
}

TEST(ObsMetrics, ConcurrentWritersLoseNoUpdates) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  obs::Counter& c = reg.counter("contended_total");
  obs::Histogram& h = reg.histogram("contended_seconds", {0.5, 1.5, 2.5});
  obs::Gauge& g = reg.gauge("contended_gauge");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(static_cast<double>(i % 4));  // buckets 0..2 and overflow, evenly
        g.set(static_cast<double>(t));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(kThreads) * kPerThread);
  constexpr std::int64_t kQuarter = static_cast<std::int64_t>(kThreads) * kPerThread / 4;
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{kQuarter, kQuarter, kQuarter, kQuarter}));
  // i%4 sums to 6 per group of four observations.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kQuarter) * 6.0);
  const double gv = g.value();
  EXPECT_GE(gv, 0.0);
  EXPECT_LT(gv, kThreads);  // last write wins: some thread's id, untorn
  EXPECT_DOUBLE_EQ(gv, static_cast<double>(static_cast<int>(gv)));
}

TEST(ObsMetrics, ExpositionRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("b_total", "second").add(7);
  reg.counter("a_total", "first").add(3);
  reg.gauge("depth", "a gauge").set(0.125);
  obs::Histogram& h = reg.histogram("lat_seconds", {0.01, 0.1}, "a histogram");
  h.observe(0.005);
  h.observe(0.05);
  h.observe(5.0);

  const std::string text = reg.expose_text();
  // Counters: HELP/TYPE headers and integer samples, sorted by name.
  EXPECT_NE(text.find("# HELP a_total first\n# TYPE a_total counter\na_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("a_total 3"), std::string::npos);
  EXPECT_NE(text.find("b_total 7"), std::string::npos);
  EXPECT_LT(text.find("a_total 3"), text.find("b_total 7"));
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth 0.125"), std::string::npos);
  // Histogram: cumulative buckets, +Inf, then _sum/_count.
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.01\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3"), std::string::npos);

  // The exposed _sum parses back to the exact recorded sum (precision(17)
  // round-trips doubles).
  const std::string key = "lat_seconds_sum ";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_DOUBLE_EQ(std::stod(text.substr(at + key.size())), h.sum());

  // Snapshot agrees with the instruments.
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a_total");
  EXPECT_EQ(snap.counters[0].value, 3);
  EXPECT_EQ(snap.counters[1].name, "b_total");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].buckets, (std::vector<std::int64_t>{1, 1, 1}));
}

// ---------------------------------------------------------------------------
// Tracer semantics.

TEST(ObsTracer, RecordsSpansAndDropsBeyondCap) {
  obs::WallTracer tr("wall");
  EXPECT_FALSE(tr.enabled());
  tr.complete(0, "ignored", 0, 1);  // disabled: recording is a no-op
  EXPECT_EQ(tr.recorded(), 0u);

  tr.enable(/*max_events=*/3);
  for (int i = 0; i < 5; ++i) tr.complete(1, "span", i * 10, 5);
  EXPECT_EQ(tr.recorded(), 3u);
  EXPECT_EQ(tr.dropped(), 2u);

  std::ostringstream os;
  tr.write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kArray);
  const JsonValue* meta = nullptr;
  for (const JsonValue& ev : doc.array) {
    const JsonValue* name = ev.find("name");
    if (name != nullptr && name->text == "trace_metadata") meta = &ev;
  }
  ASSERT_NE(meta, nullptr) << "dropped count must ride along as trace metadata";
  const JsonValue* args = meta->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("clock")->text, "wall");
  EXPECT_DOUBLE_EQ(args->find("recorded_events")->number(), 3.0);
  EXPECT_DOUBLE_EQ(args->find("dropped_events")->number(), 2.0);

  tr.enable(8);  // re-arming starts a fresh epoch and clears the buffer
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
  EXPECT_THROW(tr.enable(0), ConfigError);
}

TEST(ObsTracer, EscapesArgStringsIntoValidJson) {
  obs::WallTracer tr("wall");
  tr.enable();
  tr.set_track_name(2, "worker \"2\"");
  tr.complete(2, "step", 10, 20,
              {obs::arg("why", std::string("quote \" slash \\ newline \n tab \t")),
               obs::arg("n", std::int64_t{42}), obs::arg("x", 0.5)});
  tr.instant(0, "marker", 30);
  tr.counter("accuracy", 40, 0.875);

  std::ostringstream os;
  tr.write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());  // throws if escaping is broken
  ASSERT_EQ(doc.kind, JsonValue::Kind::kArray);

  bool saw_span = false;
  for (const JsonValue& ev : doc.array) {
    const JsonValue* name = ev.find("name");
    if (name == nullptr || name->text != "step") continue;
    saw_span = true;
    EXPECT_DOUBLE_EQ(ev.find("ts")->number(), 10.0);
    EXPECT_DOUBLE_EQ(ev.find("dur")->number(), 20.0);
    EXPECT_DOUBLE_EQ(ev.find("tid")->number(), 2.0);
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("why")->text, "quote \" slash \\ newline \n tab \t");
    EXPECT_DOUBLE_EQ(args->find("n")->number(), 42.0);
    EXPECT_DOUBLE_EQ(args->find("x")->number(), 0.5);
  }
  EXPECT_TRUE(saw_span);
}

// ---------------------------------------------------------------------------
// End to end: a traced threaded run exports the spans the docs promise, and
// observability is provably inert when off.

TEST_F(ObsGlobalTest, ThreadedRunExportsExpectedSpans) {
  obs::enable_tracing();
  obs::enable_metrics();

  const DataSplit split = easy_data();
  Rng rng(11);
  const Model proto = make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(6);  // BSP -> ASP: one live switch
  cfg.num_workers = 2;
  cfg.steps_per_worker = 12;
  const auto result = threaded_train(proto, split.train, cfg);
  ASSERT_GT(result.total_updates, 0);

  std::ostringstream os;
  obs::tracer().write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kArray);

  std::set<std::string> names;
  std::set<std::string> thread_names;
  for (const JsonValue& ev : doc.array) {
    const JsonValue* name = ev.find("name");
    if (name == nullptr) continue;
    if (name->text == "thread_name") {
      thread_names.insert(ev.find("args")->find("name")->text);
      continue;
    }
    names.insert(name->text);
  }
  EXPECT_TRUE(names.count("step")) << os.str().substr(0, 2000);
  EXPECT_TRUE(names.count("drain_wait"));
  EXPECT_TRUE(names.count("protocol_switch"));
  EXPECT_TRUE(names.count("phase_start"));
  EXPECT_TRUE(thread_names.count("ps/control"));
  EXPECT_TRUE(thread_names.count("worker 0"));
  EXPECT_TRUE(thread_names.count("worker 1"));

  // The metrics side of the same run.
  const std::string text = obs::metrics().expose_text();
  EXPECT_NE(text.find("ss_threaded_steps_total 24"), std::string::npos) << text;
  EXPECT_NE(text.find("ss_threaded_switches_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ss_threaded_step_seconds histogram"), std::string::npos);
}

// A crash restore on threads: the run-start snapshot and the recovery pass
// are spans on the control track, and the recovery span's updates_lost is
// the one the membership stats charge.
TEST_F(ObsGlobalTest, ThreadedCrashRestoreExportsSnapshotAndRecoverySpans) {
  obs::enable_tracing();
  obs::enable_metrics();

  const DataSplit split = easy_data();
  Rng rng(11);
  const Model proto = make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 3;
  cfg.steps_per_worker = 16;
  cfg.elastic.plan = MembershipPlan::crash(1, 8);
  cfg.elastic.recovery = RecoveryMode::kRestoreSnapshot;
  cfg.elastic.snapshot_interval = 0;  // only the run-start floor: the loss is exact
  const auto result = threaded_train(proto, split.train, cfg);
  ASSERT_EQ(result.membership.size(), 1u);
  EXPECT_EQ(result.membership[0].updates_lost, 8);  // every BSP round before the crash
  EXPECT_EQ(result.snapshots_taken, 1);

  std::ostringstream os;
  obs::tracer().write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  int snapshots = 0;
  int recoveries = 0;
  for (const JsonValue& ev : doc.array) {
    const JsonValue* name = ev.find("name");
    const JsonValue* tid = ev.find("tid");
    if (name == nullptr || tid == nullptr || ev.find("ph")->text != "X") continue;
    if (name->text == "snapshot") {
      EXPECT_EQ(tid->number(), 0.0);
      ++snapshots;
    } else if (name->text == "recovery") {
      EXPECT_EQ(tid->number(), 0.0);
      ++recoveries;
      EXPECT_EQ(ev.find("args")->find("updates_lost")->number(),
                static_cast<double>(result.membership[0].updates_lost));
      EXPECT_EQ(ev.find("args")->find("events")->number(), 1.0);
    }
  }
  EXPECT_EQ(snapshots, 1) << os.str().substr(0, 2000);
  EXPECT_EQ(recoveries, 1);

  const std::string text = obs::metrics().expose_text();
  EXPECT_NE(text.find("ss_threaded_snapshots_total 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ss_threaded_recoveries_total 1\n"), std::string::npos) << text;
}

TEST_F(ObsGlobalTest, OffByDefaultAndBitIdenticalOffVsOn) {
  ASSERT_FALSE(obs::enabled());

  const DataSplit split = easy_data();
  Rng rng(11);
  const Model proto = make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;  // leader-aggregated: bit-deterministic
  cfg.num_workers = 4;
  cfg.steps_per_worker = 10;

  const auto off = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(obs::tracer().recorded(), 0u);  // no stray recording while off
  // The global registry may hold zeroed registrations from earlier tests
  // (instruments are never removed); an off run must not move any of them.
  for (const auto& c : obs::metrics().snapshot().counters)
    EXPECT_EQ(c.value, 0) << c.name;

  obs::enable_tracing();
  obs::enable_metrics();
  const auto on = threaded_train(proto, split.train, cfg);
  EXPECT_GT(obs::tracer().recorded(), 0u);

  // Recording never alters computation: same seed, byte-identical model.
  ASSERT_EQ(off.final_params.size(), on.final_params.size());
  EXPECT_EQ(std::memcmp(off.final_params.data(), on.final_params.data(),
                        off.final_params.size() * sizeof(float)),
            0);
  EXPECT_EQ(off.total_updates, on.total_updates);
}

// ---------------------------------------------------------------------------
// One vocabulary for both clocks: the same scenario traced on the sim (a
// TraceSink's virtual-clock tracer) and on threads (the global wall tracer).

/// A parsed trace: its trace_metadata clock and the event names per track.
struct TraceTracks {
  std::string clock;
  std::map<int, std::set<std::string>> names;
};

TraceTracks trace_tracks(const obs::WallTracer& tr) {
  std::ostringstream os;
  tr.write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  TraceTracks out;
  for (const JsonValue& ev : doc.array) {
    const std::string& name = ev.find("name")->text;
    const JsonValue* tid = ev.find("tid");
    if (name == "trace_metadata") out.clock = ev.find("args")->find("clock")->text;
    else if (ev.find("ph")->text != "M" && tid != nullptr)
      out.names[static_cast<int>(tid->number())].insert(name);
  }
  return out;
}

TEST_F(ObsGlobalTest, SimAndThreadsTraceOneScenarioInOneVocabulary) {
  Scenario s;
  s.num_workers = 2;
  s.total_steps = 48;
  s.schedule = SwitchSchedule::bsp_to_asp(24);

  TraceSink sim;
  RunRequest req = s.to_run_request();
  req.observer = &sim;
  ASSERT_FALSE(TrainingSession(req).run().diverged);

  obs::enable_tracing();
  const DataSplit split = easy_data();
  Rng rng(11);
  const Model proto = make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
  ASSERT_GT(threaded_train(proto, split.train, s.to_threaded_config()).total_updates, 0);

  const TraceTracks virt = trace_tracks(sim.tracer());
  const TraceTracks wall = trace_tracks(obs::tracer());
  EXPECT_EQ(virt.clock, "virtual");
  EXPECT_EQ(wall.clock, "wall");
  for (const TraceTracks* t : {&virt, &wall}) {
    const auto has = [t](int track, const char* name) {
      const auto it = t->names.find(track);
      return it != t->names.end() && it->second.count(name) > 0;
    };
    EXPECT_TRUE(has(0, "protocol_switch")) << t->clock;
    for (int track = 1; track <= 2; ++track) EXPECT_TRUE(has(track, "step")) << t->clock;
  }
}

}  // namespace
}  // namespace ss
