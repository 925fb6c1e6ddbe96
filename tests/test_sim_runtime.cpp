#include "ps/sim_runtime.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/error.h"
#include "compress/topk.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "tensor/ops.h"

namespace ss {
namespace {

struct Fixture {
  Fixture(std::size_t workers, std::uint64_t seed = 5, std::size_t batch = 8,
          std::size_t shards = 1)
      : spec(make_spec()),
        split(make_synthetic(spec)),
        eval_set(split.test.head(128)),
        root(seed),
        model([&] {
          Rng init = root.fork(1);
          return make_model(ModelArch::kLinear, spec.feature_dim, spec.num_classes, init);
        }()),
        eval_model(model.clone()),
        state(make_state(workers, batch, shards)),
        schedule(0.05) {}

  static SyntheticSpec make_spec() {
    SyntheticSpec s = SyntheticSpec::cifar10_like();
    s.train_size = 512;
    s.test_size = 256;
    s.num_classes = 4;
    s.feature_dim = 16;
    s.class_separation = 1.2;
    return s;
  }

  TrainingState make_state(std::size_t workers, std::size_t batch, std::size_t ps_shards) {
    const auto shards = make_shards(split.train.size(), workers);
    std::vector<MinibatchSampler> samplers;
    std::vector<Rng> rngs;
    for (std::size_t w = 0; w < workers; ++w) {
      samplers.emplace_back(shards[w], batch, root.fork(100 + w));
      rngs.push_back(root.fork(200 + w));
    }
    return TrainingState(SharedParameterServer(model.get_params(), 0.9, ps_shards),
                         std::move(samplers), std::move(rngs));
  }

  static ClusterSpec cluster_spec(std::size_t workers) {
    ClusterSpec c;
    c.num_workers = workers;
    c.compute_per_batch = VTime::from_ms(10.0);
    c.reference_batch = 8;
    c.compute_jitter_sigma = 0.1;
    c.net_latency = VTime::from_ms(1.0);
    c.payload_bytes = 1000.0;
    c.bandwidth_bps = 1e8;
    c.sync_base = VTime::from_ms(5.0);
    c.sync_quad = VTime::from_ms(0.1);
    c.async_apply = VTime::from_ms(0.1);
    return c;
  }

  PhaseConfig phase(Protocol proto, std::int64_t budget) const {
    PhaseConfig cfg;
    cfg.protocol = proto;
    cfg.step_budget = budget;
    cfg.lr_schedule = &schedule;
    cfg.lr_multiplier = 1.0;
    cfg.per_worker_batch = 8;
    cfg.momentum = 0.9;
    cfg.eval_interval = 0;  // no evals unless a test wants them
    return cfg;
  }

  std::vector<int> workers(std::size_t n) const {
    std::vector<int> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<int>(i);
    return out;
  }

  SyntheticSpec spec;
  DataSplit split;
  Dataset eval_set;
  Rng root;
  Model model;
  Model eval_model;
  TrainingState state;
  ConstantLr schedule;
  StragglerSchedule no_stragglers;
  NullMetricsSink null_sink;
};

TEST(SimRuntimeBsp, EquivalentToManualAggregatedSgd) {
  // The paper's claim (Section II-B): BSP is equivalent to true minibatch
  // SGD on the aggregated batch.  Replay the runtime's exact batches through
  // a hand-written reference optimizer and compare parameters bitwise.
  const std::size_t n = 4;
  Fixture fx(n);
  Fixture ref(n);  // identical seeds -> identical samplers and init

  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  const PhaseConfig cfg = fx.phase(Protocol::kBsp, 5 * static_cast<std::int64_t>(n));
  runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);

  // Reference: manual large-batch SGD with the same per-worker batches.
  std::vector<float> params = ref.model.get_params();
  SgdMomentum opt(params.size(), 0.9);
  Tensor bx({8, ref.spec.feature_dim});
  std::vector<int> by;
  std::vector<std::uint32_t> idx;
  std::vector<float> grad(params.size());
  std::vector<float> acc(params.size());
  for (int step = 0; step < 5; ++step) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::size_t w = 0; w < n; ++w) {
      ref.state.samplers[w].next_batch(idx);
      ref.split.train.gather(idx, bx, by);
      ref.model.gradient_at(params, bx, by, grad);
      ops::add_inplace(std::span<float>(acc), std::span<const float>(grad));
    }
    ops::scale_inplace(std::span<float>(acc), 1.0f / static_cast<float>(n));
    opt.apply(params, acc, 0.05);
  }

  const auto runtime_params = fx.state.ps.snapshot();
  ASSERT_EQ(runtime_params.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_FLOAT_EQ(runtime_params[i], params[i]) << "param " << i;
}

TEST(SimRuntimeBsp, AdvancesClockAndSteps) {
  const std::size_t n = 4;
  Fixture fx(n);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  const PhaseConfig cfg = fx.phase(Protocol::kBsp, 12);
  const auto result = runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(result.end, PhaseEnd::kBudgetExhausted);
  EXPECT_EQ(result.steps_done, 12);  // 3 aggregated updates x 4 workers
  EXPECT_EQ(fx.state.global_step, 12);
  EXPECT_GT(fx.state.clock, VTime::zero());
  EXPECT_EQ(result.mean_staleness, 0.0);
}

TEST(SimRuntimeAsp, StalenessIsAboutWorkerCountMinusOne) {
  const std::size_t n = 8;
  Fixture fx(n);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  const PhaseConfig cfg = fx.phase(Protocol::kAsp, 400);
  const auto result = runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(result.steps_done, 400);
  EXPECT_GT(result.mean_staleness, 0.5 * (n - 1));
  EXPECT_LT(result.mean_staleness, 1.5 * (n - 1));
}

TEST(SimRuntimeAsp, FasterThanBspPerStep) {
  const std::size_t n = 4;
  Fixture bsp_fx(n), asp_fx(n);
  SimRuntime bsp_rt(ClusterModel(Fixture::cluster_spec(n)), bsp_fx.model, bsp_fx.eval_model,
                    bsp_fx.split.train, bsp_fx.eval_set, bsp_fx.null_sink);
  SimRuntime asp_rt(ClusterModel(Fixture::cluster_spec(n)), asp_fx.model, asp_fx.eval_model,
                    asp_fx.split.train, asp_fx.eval_set, asp_fx.null_sink);
  const auto b = bsp_rt.run_phase(bsp_fx.state, bsp_fx.phase(Protocol::kBsp, 64),
                                  bsp_fx.workers(n), bsp_fx.no_stragglers, nullptr);
  const auto a = asp_rt.run_phase(asp_fx.state, asp_fx.phase(Protocol::kAsp, 64),
                                  asp_fx.workers(n), asp_fx.no_stragglers, nullptr);
  EXPECT_LT(a.elapsed, b.elapsed) << "same minibatch-step budget must be faster under ASP";
}

TEST(SimRuntimeSsp, RespectsStalenessBound) {
  const std::size_t n = 4;
  Fixture fx(n);
  // Make one worker 5x slower so the bound must engage.
  StragglerSchedule slow({{0, VTime::zero(), VTime::from_minutes(60.0), 5.0}});
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  PhaseConfig cfg = fx.phase(Protocol::kSsp, 200);
  cfg.ssp_staleness_bound = 2;
  const auto result = runtime.run_phase(fx.state, cfg, fx.workers(n), slow, nullptr);
  EXPECT_EQ(result.steps_done, 200);
  // With the bound, fast workers cannot run arbitrarily ahead, so mean
  // staleness stays below the ASP free-running level.
  EXPECT_LT(result.mean_staleness, static_cast<double>(n));
}

TEST(SimRuntime, DivergenceIsDetected) {
  const std::size_t n = 2;
  Fixture fx(n);
  ConstantLr huge(1e5);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  PhaseConfig cfg = fx.phase(Protocol::kBsp, 100);
  cfg.lr_schedule = &huge;
  // Softmax CE saturates around -log(1e-12) ~ 27.6, so use a threshold the
  // exploded-but-saturated loss will cross.
  cfg.divergence_loss_threshold = 5.0;
  const auto result = runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(result.end, PhaseEnd::kDiverged);
  EXPECT_LT(result.steps_done, 100);
}

TEST(SimRuntime, StopPredicateInterruptsPhase) {
  const std::size_t n = 2;
  Fixture fx(n);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  const PhaseConfig cfg = fx.phase(Protocol::kAsp, 1000);
  const auto result = runtime.run_phase(
      fx.state, cfg, fx.workers(n), fx.no_stragglers,
      [](VTime, std::int64_t step) { return step >= 10; });
  EXPECT_EQ(result.end, PhaseEnd::kStopRequested);
  EXPECT_GE(fx.state.global_step, 10);
  EXPECT_LT(fx.state.global_step, 20);
}

TEST(SimRuntime, EvalsArriveAtIntervals) {
  const std::size_t n = 2;
  Fixture fx(n);
  struct CountingSink final : MetricsSink {
    int evals = 0, tasks = 0, updates = 0;
    void on_task(const TaskObservation&) override { ++tasks; }
    void on_update(const UpdateObservation&) override { ++updates; }
    void on_eval(std::int64_t, VTime, double acc) override {
      ++evals;
      EXPECT_GE(acc, 0.0);
      EXPECT_LE(acc, 1.0);
    }
  } sink;
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, sink);
  PhaseConfig cfg = fx.phase(Protocol::kAsp, 64);
  cfg.eval_interval = 16;
  runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(sink.updates, 64);
  EXPECT_EQ(sink.tasks, 64);
  EXPECT_NEAR(sink.evals, 4, 1);
}

TEST(SimRuntime, RequiresScheduleAndWorkers) {
  const std::size_t n = 2;
  Fixture fx(n);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  PhaseConfig cfg = fx.phase(Protocol::kBsp, 10);
  cfg.lr_schedule = nullptr;
  EXPECT_THROW(
      runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr),
      ConfigError);
  const PhaseConfig ok = fx.phase(Protocol::kBsp, 10);
  EXPECT_THROW(runtime.run_phase(fx.state, ok, {}, fx.no_stragglers, nullptr), ConfigError);
}

TEST(SimRuntime, RejectsANegativeStalenessBound) {
  // A bound of -1 would park every worker after one step and end the phase
  // as kBudgetExhausted a few steps in; it is a config error instead.
  const std::size_t n = 4;
  Fixture fx(n);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  for (Protocol p : {Protocol::kSsp, Protocol::kDssp}) {
    PhaseConfig cfg = fx.phase(p, 100);
    cfg.ssp_staleness_bound = -1;
    EXPECT_THROW(runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr),
                 ConfigError);
  }
  EXPECT_EQ(fx.state.global_step, 0);
  // Protocols that read no bound ignore it.
  PhaseConfig bsp = fx.phase(Protocol::kBsp, 8);
  bsp.ssp_staleness_bound = -1;
  EXPECT_EQ(runtime.run_phase(fx.state, bsp, fx.workers(n), fx.no_stragglers, nullptr).steps_done,
            8);
}

TEST(SimRuntime, ActiveSubsetOnlyUsesThoseWorkers) {
  const std::size_t n = 4;
  Fixture fx(n);
  struct WorkerSink final : MetricsSink {
    std::set<int> seen;
    void on_task(const TaskObservation& o) override { seen.insert(o.worker); }
    void on_update(const UpdateObservation&) override {}
    void on_eval(std::int64_t, VTime, double) override {}
  } sink;
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, sink);
  runtime.run_phase(fx.state, fx.phase(Protocol::kBsp, 9), {0, 2, 3}, fx.no_stragglers,
                    nullptr);
  EXPECT_EQ(sink.seen, (std::set<int>{0, 2, 3}));
}


TEST(SimRuntimeDssp, BoundFloatsBetweenSspAndAsp) {
  // With one slow worker, DSSP lends staleness credit instead of blocking:
  // it should be faster than SSP with the same base bound but still bounded
  // (staleness below ASP's free-running level + the credit).
  const std::size_t n = 4;
  StragglerSchedule slow({{0, VTime::zero(), VTime::from_minutes(60.0), 5.0}});

  auto run = [&](Protocol proto) {
    Fixture fx(n);
    SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                  fx.split.train, fx.eval_set, fx.null_sink);
    PhaseConfig cfg = fx.phase(proto, 200);
    cfg.ssp_staleness_bound = 2;
    cfg.dssp_staleness_upper = 6;
    return rt.run_phase(fx.state, cfg, fx.workers(n), slow, nullptr);
  };

  const auto ssp = run(Protocol::kSsp);
  const auto dssp = run(Protocol::kDssp);
  const auto asp = run(Protocol::kAsp);
  EXPECT_LE(dssp.elapsed, ssp.elapsed) << "DSSP must not be slower than SSP";
  EXPECT_GE(dssp.elapsed, asp.elapsed) << "DSSP cannot beat free-running ASP";
  EXPECT_EQ(dssp.steps_done, 200);
}

TEST(SimRuntimeAsp, SingleWorkerEqualsSerialSgd) {
  // With one worker there is no interleaving: ASP must be exactly serial
  // minibatch SGD (staleness identically zero), bit-for-bit.
  Fixture fx(1);
  Fixture ref(1);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(1)), fx.model, fx.eval_model,
                fx.split.train, fx.eval_set, fx.null_sink);
  const PhaseConfig cfg = fx.phase(Protocol::kAsp, 10);
  const auto result = rt.run_phase(fx.state, cfg, {0}, fx.no_stragglers, nullptr);
  EXPECT_EQ(result.mean_staleness, 0.0);

  std::vector<float> params = ref.model.get_params();
  SgdMomentum opt(params.size(), 0.9);
  Tensor bx({8, ref.spec.feature_dim});
  std::vector<int> by;
  std::vector<std::uint32_t> idx;
  std::vector<float> grad(params.size());
  for (int step = 0; step < 10; ++step) {
    ref.state.samplers[0].next_batch(idx);
    ref.split.train.gather(idx, bx, by);
    ref.model.gradient_at(params, bx, by, grad);
    opt.apply(params, grad, 0.05);
  }
  const auto rt_params = fx.state.ps.snapshot();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_FLOAT_EQ(rt_params[i], params[i]) << "param " << i;
}

TEST(SimRuntime, EveryProtocolChargesAPushTheSameRoundedBytes) {
  // A fractional payload model rounds to the nearest byte on every push,
  // whichever protocol family applies it.
  const std::size_t n = 4;
  ClusterSpec spec = Fixture::cluster_spec(n);
  spec.payload_bytes = 1000.6;
  for (Protocol proto : {Protocol::kBsp, Protocol::kAsp, Protocol::kSsp, Protocol::kDssp,
                         Protocol::kKSync, Protocol::kKBatchSync, Protocol::kKAsync,
                         Protocol::kKBatchAsync}) {
    Fixture fx(n);
    SimRuntime rt(ClusterModel(spec), fx.model, fx.eval_model, fx.split.train, fx.eval_set,
                  fx.null_sink);
    const auto result =
        rt.run_phase(fx.state, fx.phase(proto, 16), fx.workers(n), fx.no_stragglers, nullptr);
    ASSERT_EQ(result.cancelled_tasks, 0) << protocol_name(proto);
    EXPECT_EQ(result.push_bytes, 1001 * result.steps_done) << protocol_name(proto);
  }
}

// ---------------------------------------------------------------------------
// Observation stream digest: every sink call of `run_phase`, in order, with
// every field at max_digits10, plus each phase's result and the final PS
// parameters.  The determinism corpus hashes only session results and
// samples the loss curve every 8th update, so a reordering that moves no
// trigger (an eval reported before the update that crossed its boundary)
// passes it; this fails.

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

class StreamSink final : public MetricsSink {
 public:
  StreamSink() { out << std::setprecision(std::numeric_limits<double>::max_digits10); }
  void on_task(const TaskObservation& o) override {
    out << "T " << o.worker << ' ' << o.completed_at.us() << ' ' << o.task_duration.us() << ' '
        << o.images << '\n';
  }
  void on_update(const UpdateObservation& o) override {
    out << "U " << o.global_step << ' ' << o.time.us() << ' ' << o.train_loss << ' '
        << o.staleness << ' ' << static_cast<int>(o.protocol) << '\n';
  }
  void on_eval(std::int64_t step, VTime time, double acc) override {
    out << "E " << step << ' ' << time.us() << ' ' << acc << '\n';
  }
  void on_result(const PhaseResult& r, const TrainingState& state) {
    out << "R " << static_cast<int>(r.end) << ' ' << r.steps_done << ' ' << r.trigger_step << ' '
        << r.elapsed.us() << ' ' << r.mean_staleness << ' ' << r.push_bytes << ' '
        << r.cancelled_tasks << ' ' << r.max_clock_gap << ' ' << state.global_step << ' '
        << state.clock.us() << '\n';
  }
  void on_params(const std::vector<float>& params) {
    out << 'P';
    for (float v : params) out << ' ' << static_cast<double>(v);
    out << '\n';
  }
  std::ostringstream out;
};

enum class StreamVariant { kPlain, kDiverge, kStop };

struct StreamCase {
  Protocol protocol;
  std::size_t shards;
  bool topk;
  StreamVariant variant;
};

std::string stream_case_name(const StreamCase& c) {
  std::string name = protocol_name(c.protocol);
  name += "/s" + std::to_string(c.shards);
  if (c.topk) name += "/topk";
  if (c.variant == StreamVariant::kDiverge) name += "/diverge";
  if (c.variant == StreamVariant::kStop) name += "/stop";
  return name;
}

/// Two phases of `c.protocol` on 4 workers (one a permanent 3x straggler),
/// with evals, per-step LR-multiplier and momentum schedules, K = 2 for the
/// K-variants and a tight SSP/DSSP bound, so every branch of the update path
/// contributes to the stream.
std::string run_stream(const StreamCase& c) {
  const std::size_t n = 4;
  Fixture fx(n, 5, 8, c.shards);
  StreamSink sink;
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, sink);
  std::optional<CompressorBank> bank;
  if (c.topk) bank.emplace(std::make_shared<TopKCodec>(0.1), n, true);
  const ConstantLr huge(1e5);
  const StragglerSchedule slow = StragglerSchedule::permanent(1, 3.0);

  PhaseConfig cfg = fx.phase(c.protocol, 40);
  cfg.k_param = 2;
  cfg.ssp_staleness_bound = 1;
  cfg.dssp_staleness_upper = 2;
  cfg.eval_interval = 12;
  cfg.lr_multiplier_schedule = [](std::int64_t step) { return 1.0 + 0.25 * (step % 3); };
  cfg.momentum_schedule = [](std::int64_t steps) { return 0.9 - 0.01 * (steps % 4); };
  if (bank) cfg.compressor = &*bank;
  StopPredicate stop;
  if (c.variant == StreamVariant::kDiverge) {
    cfg.lr_schedule = &huge;
    cfg.divergence_loss_threshold = 5.0;
  }
  if (c.variant == StreamVariant::kStop)
    stop = [](VTime, std::int64_t step) { return step >= 10; };

  for (std::int64_t budget : {40, 24}) {
    cfg.step_budget = budget;
    const PhaseResult r = runtime.run_phase(fx.state, cfg, fx.workers(n), slow, stop);
    sink.on_result(r, fx.state);
    if (r.end != PhaseEnd::kBudgetExhausted) break;
  }
  sink.on_params(fx.state.ps.snapshot());
  return fnv1a_hex(sink.out.str());
}

std::vector<StreamCase> stream_cases() {
  std::vector<StreamCase> cases;
  for (Protocol p : {Protocol::kBsp, Protocol::kAsp, Protocol::kSsp, Protocol::kDssp,
                     Protocol::kKSync, Protocol::kKBatchSync, Protocol::kKAsync,
                     Protocol::kKBatchAsync})
    for (std::size_t shards : {1, 8})
      for (bool topk : {false, true}) cases.push_back({p, shards, topk, StreamVariant::kPlain});
  for (Protocol p : {Protocol::kBsp, Protocol::kAsp, Protocol::kKAsync})
    cases.push_back({p, 1, false, StreamVariant::kDiverge});
  for (Protocol p : {Protocol::kBsp, Protocol::kAsp, Protocol::kKBatchAsync})
    cases.push_back({p, 1, false, StreamVariant::kStop});
  return cases;
}

// Recorded from the three-tail engine (one update tail per protocol family)
// before it became one commit path.  A deliberate change to what the sink
// sees re-pins from the table the failure message prints.
const std::map<std::string, std::string>& pinned_stream_digests() {
  static const std::map<std::string, std::string> pinned = {
      {"BSP/s1", "294761ee41e39470"},
      {"BSP/s1/topk", "56cea134d718a58b"},
      {"BSP/s8", "294761ee41e39470"},
      {"BSP/s8/topk", "56cea134d718a58b"},
      {"ASP/s1", "061f73a980b27e98"},
      {"ASP/s1/topk", "ecb77e9ae362fe23"},
      {"ASP/s8", "061f73a980b27e98"},
      {"ASP/s8/topk", "2253fa240fd212ce"},
      {"SSP/s1", "8f93d57b35c50bc1"},
      {"SSP/s1/topk", "198737987b2b6dd6"},
      {"SSP/s8", "8f93d57b35c50bc1"},
      {"SSP/s8/topk", "28190fc4b0ff27c6"},
      {"DSSP/s1", "35a9b32707402b71"},
      {"DSSP/s1/topk", "852b2ad01d2cdedd"},
      {"DSSP/s8", "35a9b32707402b71"},
      {"DSSP/s8/topk", "344bb29e403f8ddf"},
      {"K-sync/s1", "f75dd0d6de14966c"},
      {"K-sync/s1/topk", "d32868e5a00b66dc"},
      {"K-sync/s8", "f75dd0d6de14966c"},
      {"K-sync/s8/topk", "d32868e5a00b66dc"},
      {"K-batch-sync/s1", "e8911df276f116e8"},
      {"K-batch-sync/s1/topk", "783bf4e1fed8227f"},
      {"K-batch-sync/s8", "e8911df276f116e8"},
      {"K-batch-sync/s8/topk", "783bf4e1fed8227f"},
      {"K-async/s1", "2247b8a23ed4ae49"},
      {"K-async/s1/topk", "b9edcd94b36005b5"},
      {"K-async/s8", "2247b8a23ed4ae49"},
      {"K-async/s8/topk", "b9edcd94b36005b5"},
      {"K-batch-async/s1", "183c02703f7941af"},
      {"K-batch-async/s1/topk", "4fa2d4e174d844a5"},
      {"K-batch-async/s8", "183c02703f7941af"},
      {"K-batch-async/s8/topk", "4fa2d4e174d844a5"},
      {"BSP/s1/diverge", "b70732d9ccfe1e49"},
      {"ASP/s1/diverge", "aca8c4ff10355a92"},
      {"K-async/s1/diverge", "74b470c80edec898"},
      {"BSP/s1/stop", "4444a5f236c93c45"},
      {"ASP/s1/stop", "6ecfdff59708e49b"},
      {"K-batch-async/s1/stop", "fb357f1de5f57189"},
  };
  return pinned;
}

TEST(SimRuntimeStream, PinnedObservationStreamDigests) {
  const auto& pinned = pinned_stream_digests();
  std::ostringstream table;
  int mismatches = 0;
  for (const StreamCase& c : stream_cases()) {
    const std::string name = stream_case_name(c);
    const std::string got = run_stream(c);
    table << "      {\"" << name << "\", \"" << got << "\"},\n";
    const auto it = pinned.find(name);
    if (it == pinned.end() || it->second != got) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0) << "stream digests differ; the current table is\n" << table.str();
  EXPECT_EQ(pinned.size(), stream_cases().size());
}

}  // namespace
}  // namespace ss
