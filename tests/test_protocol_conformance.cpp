// Cross-runtime protocol conformance: the same workload run through the
// event-driven simulator and the real-thread runtime must satisfy the same
// semantic invariants for every protocol, independent of how many shards the
// parameter server is split into:
//
//  * BSP and the K-sync family report zero gradient staleness (every
//    aggregated update is computed against the freshest parameters).
//  * SSP's local-clock gap never exceeds the staleness bound; DSSP's never
//    exceeds bound + credit.
//  * K-sync cancels exactly n - K completed tasks per round.
//  * Synchronous math is independent of the shard layout bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/spec.h"
#include "compress/topk.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/sim_runtime.h"
#include "ps/threaded_runtime.h"

namespace ss {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kBatch = 8;
constexpr int kSspBound = 2;
constexpr int kDsspUpper = 4;

/// Captures every update observation so per-update invariants can be checked.
struct RecordingSink final : MetricsSink {
  std::vector<UpdateObservation> updates;
  void on_task(const TaskObservation&) override {}
  void on_update(const UpdateObservation& obs) override { updates.push_back(obs); }
  void on_eval(std::int64_t, VTime, double) override {}
};

struct Fixture {
  explicit Fixture(std::size_t num_shards_in, std::uint64_t seed = 5)
      : num_shards(num_shards_in),
        split(make_synthetic(make_spec())),
        eval_set(split.test.head(128)),
        root(seed),
        model([&] {
          Rng init = root.fork(1);
          return make_model(ModelArch::kLinear, 16, 4, init);
        }()),
        eval_model(model.clone()),
        state(make_state(num_shards)),
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

  TrainingState make_state(std::size_t num_shards) {
    const auto data_shards = make_shards(split.train.size(), kWorkers);
    std::vector<MinibatchSampler> samplers;
    std::vector<Rng> rngs;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      samplers.emplace_back(data_shards[w], kBatch, root.fork(100 + w));
      rngs.push_back(root.fork(200 + w));
    }
    return TrainingState(SharedParameterServer(model.get_params(), 0.9, num_shards),
                         std::move(samplers), std::move(rngs));
  }

  static ClusterSpec cluster_spec(std::size_t num_shards) {
    ClusterSpec c;
    c.num_workers = kWorkers;
    c.num_ps_shards = num_shards;
    c.compute_per_batch = VTime::from_ms(10.0);
    c.reference_batch = kBatch;
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
    cfg.ssp_staleness_bound = kSspBound;
    cfg.dssp_staleness_upper = kDsspUpper;
    cfg.k_param = 2;
    cfg.step_budget = budget;
    cfg.lr_schedule = &schedule;
    cfg.lr_multiplier = 1.0;
    cfg.per_worker_batch = kBatch;
    cfg.momentum = 0.9;
    cfg.eval_interval = 0;
    return cfg;
  }

  /// Runs a phase with the PS shard layout and the cluster pricing both
  /// using this fixture's shard count.
  PhaseResult run(Protocol proto, std::int64_t budget, MetricsSink& sink) {
    SimRuntime runtime(ClusterModel(cluster_spec(num_shards)), model, eval_model, split.train,
                       eval_set, sink);
    // One 5x-slow worker so the staleness bounds actually engage.
    const StragglerSchedule slow({{0, VTime::zero(), VTime::from_minutes(60.0), 5.0}});
    std::vector<int> workers(kWorkers);
    for (std::size_t i = 0; i < kWorkers; ++i) workers[i] = static_cast<int>(i);
    return runtime.run_phase(state, phase(proto, budget), workers, slow, nullptr);
  }

  std::size_t num_shards;
  DataSplit split;
  Dataset eval_set;
  Rng root;
  Model model;
  Model eval_model;
  TrainingState state;
  ConstantLr schedule;
};

class ProtocolConformance : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, ProtocolConformance, ::testing::Values(1u, 8u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "shards";
                         });

TEST_P(ProtocolConformance, SynchronousProtocolsReportZeroStaleness) {
  const std::size_t shards = GetParam();
  for (Protocol proto : {Protocol::kBsp, Protocol::kKSync, Protocol::kKBatchSync}) {
    Fixture fx(shards);
    RecordingSink sink;
    const PhaseResult r = fx.run(proto, 120, sink);
    EXPECT_EQ(r.end, PhaseEnd::kBudgetExhausted) << protocol_name(proto);
    EXPECT_EQ(r.steps_done, 120) << protocol_name(proto);
    EXPECT_DOUBLE_EQ(r.mean_staleness, 0.0) << protocol_name(proto);
    EXPECT_EQ(r.max_clock_gap, 0) << protocol_name(proto);
    ASSERT_FALSE(sink.updates.empty()) << protocol_name(proto);
    for (const auto& u : sink.updates)
      ASSERT_EQ(u.staleness, 0) << protocol_name(proto) << " step " << u.global_step;
  }
}

TEST_P(ProtocolConformance, SspNeverExceedsTheBound) {
  const std::size_t shards = GetParam();
  Fixture fx(shards);
  RecordingSink sink;
  const PhaseResult r = fx.run(Protocol::kSsp, 200, sink);
  EXPECT_EQ(r.steps_done, 200);
  EXPECT_LE(r.max_clock_gap, kSspBound);
  for (const auto& u : sink.updates) ASSERT_GE(u.staleness, 0);
}

TEST_P(ProtocolConformance, DsspNeverExceedsBoundPlusCredit) {
  const std::size_t shards = GetParam();
  Fixture fx(shards);
  RecordingSink sink;
  const PhaseResult r = fx.run(Protocol::kDssp, 200, sink);
  EXPECT_EQ(r.steps_done, 200);
  EXPECT_LE(r.max_clock_gap, kSspBound + kDsspUpper);
}

TEST_P(ProtocolConformance, AspRunsUnboundedButAccountsStaleness) {
  const std::size_t shards = GetParam();
  Fixture fx(shards);
  RecordingSink sink;
  const PhaseResult r = fx.run(Protocol::kAsp, 200, sink);
  EXPECT_EQ(r.steps_done, 200);
  EXPECT_GT(r.mean_staleness, 0.0);
  for (const auto& u : sink.updates) ASSERT_GE(u.staleness, 0);
}

TEST_P(ProtocolConformance, KSyncCancelsExactlyNMinusKPerRound) {
  const std::size_t shards = GetParam();
  Fixture fx(shards);
  RecordingSink sink;
  // K = 2, n = 4: each round takes the 2 earliest completions and cancels
  // the other 2; a 120-step budget at 2 steps per round is 60 rounds.
  const PhaseResult r = fx.run(Protocol::kKSync, 120, sink);
  const std::int64_t rounds = 120 / 2;
  EXPECT_EQ(r.cancelled_tasks, rounds * static_cast<std::int64_t>(kWorkers - 2));
}

TEST_P(ProtocolConformance, KAsyncVariantsHonorTheBudget) {
  const std::size_t shards = GetParam();
  for (Protocol proto : {Protocol::kKAsync, Protocol::kKBatchAsync}) {
    Fixture fx(shards);
    RecordingSink sink;
    const PhaseResult r = fx.run(proto, 120, sink);
    EXPECT_GE(r.steps_done, 120) << protocol_name(proto);
    for (const auto& u : sink.updates) ASSERT_GE(u.staleness, 0) << protocol_name(proto);
  }
}

TEST(ProtocolConformance, BspMathIsIndependentOfShardLayout) {
  // Sharding changes *where* parameters live and how transfers are priced,
  // never the math: the BSP parameter trajectory must agree bit for bit
  // between a flat server and an 8-shard server.
  Fixture flat(1), sharded(8);
  NullMetricsSink sink;
  flat.run(Protocol::kBsp, 40, sink);
  sharded.run(Protocol::kBsp, 40, sink);
  const auto a = flat.state.ps.snapshot();
  const auto b = sharded.state.ps.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "param " << i;
}

// ---------------------------------------------------------------------------
// Threaded runtime: the same invariants hold with real OS threads and
// per-shard locking.
// ---------------------------------------------------------------------------

DataSplit threaded_data() {
  SyntheticSpec spec = Fixture::make_spec();
  return make_synthetic(spec);
}

Model threaded_model(const DataSplit& split) {
  Rng rng(11);
  return make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
}

class ThreadedConformance : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, ThreadedConformance, ::testing::Values(1u, 8u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "shards";
                         });

TEST_P(ThreadedConformance, BspReportsZeroStaleness) {
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 20;
  cfg.num_ps_shards = GetParam();
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 20);
  EXPECT_DOUBLE_EQ(result.mean_staleness, 0.0);
  EXPECT_EQ(result.max_clock_gap, 0);
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
}

TEST_P(ThreadedConformance, AspAppliesEveryPush) {
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 25;
  cfg.num_ps_shards = GetParam();
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 25 * static_cast<std::int64_t>(kWorkers));
  EXPECT_GE(result.mean_staleness, 0.0);
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
}

TEST_P(ThreadedConformance, SspHonorsTheClockGapBound) {
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kSsp;
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 30;
  cfg.ssp_staleness_bound = kSspBound;
  cfg.num_ps_shards = GetParam();
  cfg.pre_step_hook = [](std::size_t worker, std::int64_t) {
    if (worker == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_LE(result.max_clock_gap, kSspBound);
  EXPECT_EQ(result.total_updates, 30 * static_cast<std::int64_t>(kWorkers));
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
}

// ---------------------------------------------------------------------------
// Compression x protocol x sharding: BSP/ASP/SSP on real threads with every
// codec, against 1- and 8-shard servers.  The staleness/clock-gap invariants
// must be exactly the ones the uncompressed protocols guarantee.
// ---------------------------------------------------------------------------

struct CodecConfig {
  std::string label;
  CompressionSpec spec;
};

std::vector<CodecConfig> all_codecs() {
  return {{"topk10", CompressionSpec::topk(0.1)},
          {"qsgd4bit", CompressionSpec::qsgd(15)},
          {"terngrad", CompressionSpec::terngrad()}};
}

TEST_P(ThreadedConformance, CompressedBspKeepsZeroStalenessAndExactWireBytes) {
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  for (const auto& codec : all_codecs()) {
    ThreadedTrainConfig cfg;
    cfg.protocol = Protocol::kBsp;
    cfg.num_workers = kWorkers;
    cfg.steps_per_worker = 15;
    cfg.num_ps_shards = GetParam();
    cfg.compression = codec.spec;
    const auto result = threaded_train(proto, split.train, cfg);
    EXPECT_EQ(result.total_updates, 15) << codec.label;
    EXPECT_DOUBLE_EQ(result.mean_staleness, 0.0) << codec.label;
    EXPECT_EQ(result.max_clock_gap, 0) << codec.label;
    for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p)) << codec.label;
    // Every worker pushes one encoded gradient per round; the codec's wire
    // size is value-independent, so the total is exact.
    const auto bank = codec.spec.make_bank(kWorkers);
    ASSERT_TRUE(bank.has_value());
    const auto per_push =
        static_cast<std::int64_t>(bank->wire_bytes(proto.num_params()));
    EXPECT_EQ(result.push_bytes,
              15 * static_cast<std::int64_t>(kWorkers) * per_push)
        << codec.label;
    EXPECT_LT(result.push_bytes,
              15 * static_cast<std::int64_t>(kWorkers) *
                  static_cast<std::int64_t>(proto.num_params() * sizeof(float)))
        << codec.label << " did not shrink the wire";
  }
}

TEST_P(ThreadedConformance, CompressedAspAppliesEveryPush) {
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  for (const auto& codec : all_codecs()) {
    ThreadedTrainConfig cfg;
    cfg.protocol = Protocol::kAsp;
    cfg.num_workers = kWorkers;
    cfg.steps_per_worker = 20;
    cfg.num_ps_shards = GetParam();
    cfg.compression = codec.spec;
    const auto result = threaded_train(proto, split.train, cfg);
    EXPECT_EQ(result.total_updates, 20 * static_cast<std::int64_t>(kWorkers)) << codec.label;
    EXPECT_GE(result.mean_staleness, 0.0) << codec.label;
    for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p)) << codec.label;
  }
}

TEST_P(ThreadedConformance, CompressedSspHonorsTheClockGapBound) {
  // The SSP parking logic is orthogonal to the push encoding, so the
  // local-clock gap bound must hold unchanged under every codec — including
  // top-k, whose sparse pushes advance only the shards they touch.
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  for (const auto& codec : all_codecs()) {
    ThreadedTrainConfig cfg;
    cfg.protocol = Protocol::kSsp;
    cfg.num_workers = kWorkers;
    cfg.steps_per_worker = 25;
    cfg.ssp_staleness_bound = kSspBound;
    cfg.num_ps_shards = GetParam();
    cfg.compression = codec.spec;
    cfg.pre_step_hook = [](std::size_t worker, std::int64_t) {
      if (worker == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    const auto result = threaded_train(proto, split.train, cfg);
    EXPECT_LE(result.max_clock_gap, kSspBound) << codec.label;
    EXPECT_EQ(result.total_updates, 25 * static_cast<std::int64_t>(kWorkers)) << codec.label;
    for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p)) << codec.label;
  }
}

TEST(ThreadedConformance, CompressedBspMathIsIndependentOfShardLayout) {
  // BSP aggregates decoded pushes in fixed worker order and applies one
  // dense update, so the whole compressed run is deterministic and the
  // shard layout must not change a single bit of it.
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 12;
  cfg.compression = CompressionSpec::topk(0.1);
  cfg.num_ps_shards = 1;
  const auto flat = threaded_train(proto, split.train, cfg);
  cfg.num_ps_shards = 8;
  const auto sharded = threaded_train(proto, split.train, cfg);
  ASSERT_EQ(flat.final_params.size(), sharded.final_params.size());
  for (std::size_t i = 0; i < flat.final_params.size(); ++i)
    ASSERT_EQ(flat.final_params[i], sharded.final_params[i]) << "param " << i;
  EXPECT_EQ(flat.push_bytes, sharded.push_bytes);
}

TEST(ThreadedConformance, SimSspKeepsTheGapBoundUnderSparseCompression) {
  // Simulator counterpart: SSP with top-k on an 8-shard PS — sparse applies
  // advance only touched shards, and the clock-gap bound must be untouched.
  Fixture fx(8);
  RecordingSink sink;
  CompressorBank bank(std::make_shared<TopKCodec>(0.1), kWorkers, true);
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(8)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, sink);
  const StragglerSchedule slow({{0, VTime::zero(), VTime::from_minutes(60.0), 5.0}});
  std::vector<int> workers(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i) workers[i] = static_cast<int>(i);
  PhaseConfig cfg = fx.phase(Protocol::kSsp, 200);
  cfg.compressor = &bank;
  const PhaseResult r = runtime.run_phase(fx.state, cfg, workers, slow, nullptr);
  EXPECT_EQ(r.steps_done, 200);
  EXPECT_LE(r.max_clock_gap, kSspBound);
  for (const auto& u : sink.updates) ASSERT_GE(u.staleness, 0);
}

// ---------------------------------------------------------------------------
// Switching conformance: the same BSP -> ASP schedule must agree between the
// simulator and the threaded runtime on update counts and per-phase
// staleness invariants.  Step currency differs by design — one threaded
// local step is kWorkers simulator minibatch steps — so a threaded schedule
// of {BSP s, ASP rest} corresponds to a sim schedule of {BSP kWorkers*s,
// ASP rest} over kWorkers x the threaded per-worker budget.
// ---------------------------------------------------------------------------

TEST(SwitchingConformance, SimAndThreadedAgreeOnSwitchedUpdateCounts) {
  // Threaded: 4 workers x 30 local steps, BSP for the first 10.
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig tcfg;
  tcfg.schedule = SwitchSchedule::bsp_to_asp(10);
  tcfg.num_workers = kWorkers;
  tcfg.steps_per_worker = 30;
  const auto threaded = threaded_train(proto, split.train, tcfg);
  ASSERT_EQ(threaded.phases.size(), 2u);

  // Sim: the same plan in minibatch steps (BSP 40 of 120), observed through
  // a recording sink so updates can be attributed to their protocol.
  RecordingSink sink;
  RunRequest req;
  req.workload.arch = ModelArch::kLinear;
  req.workload.data = Fixture::make_spec();
  req.workload.total_steps = 120;
  req.workload.hyper.batch_size = kBatch;
  req.workload.eval_interval = 64;
  req.cluster = Fixture::cluster_spec(1);
  req.policy.schedule = SwitchSchedule::bsp_to_asp(40);
  req.observer = &sink;
  const RunResult sim = TrainingSession(req).run();
  EXPECT_EQ(sim.steps_completed, 120);
  EXPECT_EQ(sim.num_switches, 1);

  std::int64_t sim_bsp_updates = 0, sim_asp_updates = 0;
  for (const auto& u : sink.updates) {
    if (u.protocol == Protocol::kBsp) {
      ++sim_bsp_updates;
      ASSERT_EQ(u.staleness, 0) << "BSP update at step " << u.global_step;
    } else {
      ASSERT_EQ(u.protocol, Protocol::kAsp);
      ++sim_asp_updates;
      ASSERT_GE(u.staleness, 0);
    }
  }
  // Update counts agree phase for phase: 10 aggregated BSP updates, then
  // one update per worker push for the rest.
  EXPECT_EQ(sim_bsp_updates, 10);
  EXPECT_EQ(sim_asp_updates, 80);
  EXPECT_EQ(threaded.phases[0].updates, sim_bsp_updates);
  EXPECT_EQ(threaded.phases[1].updates, sim_asp_updates);
  EXPECT_EQ(threaded.total_updates, sim_bsp_updates + sim_asp_updates);
  // Per-phase staleness bounds agree: synchronous phase exactly zero in
  // both runtimes, async phase non-negative.
  EXPECT_DOUBLE_EQ(threaded.phases[0].mean_staleness, 0.0);
  EXPECT_EQ(threaded.phases[0].max_clock_gap, 0);
  EXPECT_GE(threaded.phases[1].mean_staleness, 0.0);
}

TEST(SwitchingConformance, SspPhaseAfterTheSwitchKeepsTheBoundInBothRuntimes) {
  // Sim: BSP then SSP on the same TrainingState (Fixture::run persists it).
  Fixture fx(8);
  RecordingSink sink;
  const PhaseResult bsp = fx.run(Protocol::kBsp, 40, sink);
  EXPECT_DOUBLE_EQ(bsp.mean_staleness, 0.0);
  EXPECT_EQ(bsp.max_clock_gap, 0);
  const PhaseResult ssp = fx.run(Protocol::kSsp, 80, sink);
  EXPECT_LE(ssp.max_clock_gap, kSspBound);

  // Threads: the same plan as a live schedule, with a real slow worker.
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule(
      {SwitchPhase{Protocol::kBsp, SwitchTrigger::kStepCount, 10, -1},
       SwitchPhase{Protocol::kSsp, SwitchTrigger::kStepCount, 0, kSspBound}});
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 30;
  cfg.num_ps_shards = 8;
  cfg.pre_step_hook = [](std::size_t worker, std::int64_t) {
    if (worker == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const auto threaded = threaded_train(proto, split.train, cfg);
  ASSERT_EQ(threaded.phases.size(), 2u);
  EXPECT_EQ(threaded.phases[0].max_clock_gap, 0);
  EXPECT_LE(threaded.phases[1].max_clock_gap, kSspBound);
  EXPECT_EQ(threaded.phases[1].updates,
            20 * static_cast<std::int64_t>(kWorkers));
  for (float v : threaded.final_params) ASSERT_TRUE(std::isfinite(v));
}

TEST(SwitchingConformance, ReactiveTriggerTimingIsSurfacedOnBothRuntimes) {
  // PR 4 left an asymmetry: the threaded runtime records where a reactive
  // trigger fired (ThreadedPhaseStats::ended_by_trigger + steps) but the
  // simulator's PhaseResult did not.  Both sides now surface the firing
  // point in their own step currency (global minibatch steps vs per-worker
  // local steps; one BSP round = n sim steps = 1 threaded step).
  //
  // Sim side: a stop predicate standing in for a reactive trigger fires at
  // global step 60; the phase must report kStopRequested AND the step.
  Fixture fx(1);
  RecordingSink sink;
  SimRuntime runtime(ClusterModel(Fixture::cluster_spec(1)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, sink);
  std::vector<int> workers(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i) workers[i] = static_cast<int>(i);
  const StopPredicate at_60 = [](VTime, std::int64_t step) { return step >= 60; };
  const PhaseResult fired = runtime.run_phase(fx.state, fx.phase(Protocol::kBsp, 200),
                                              workers, StragglerSchedule(), at_60);
  EXPECT_EQ(fired.end, PhaseEnd::kStopRequested);
  EXPECT_EQ(fired.trigger_step, 60);
  EXPECT_EQ(fired.steps_done, 60);
  // One BSP round advances n sim steps, so the fire point converts to a
  // whole number of threaded rounds — the unit the threaded side reports.
  EXPECT_EQ(fired.trigger_step % static_cast<std::int64_t>(kWorkers), 0);

  // No trigger -> no firing step.
  const PhaseResult ran_out = runtime.run_phase(fx.state, fx.phase(Protocol::kBsp, 40),
                                                workers, StragglerSchedule(), nullptr);
  EXPECT_EQ(ran_out.end, PhaseEnd::kBudgetExhausted);
  EXPECT_EQ(ran_out.trigger_step, -1);

  // Threaded side: the detector-driven switch reports the firing round the
  // same way (this is the field the sim now mirrors).
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 60;
  cfg.stragglers = StragglerSchedule::permanent(0, 20.0);
  cfg.detector.window_size = 3;
  cfg.detector.consecutive_required = 1;
  const auto threaded = threaded_train(proto, split.train, cfg);
  ASSERT_GE(threaded.phases.size(), 1u);
  EXPECT_TRUE(threaded.phases[0].ended_by_trigger);
  EXPECT_GT(threaded.phases[0].steps, 0);
  EXPECT_LT(threaded.phases[0].steps, 60);
}

TEST(ThreadedConformance, BspMathIsIndependentOfShardLayout) {
  // Threaded BSP aggregates in a fixed worker order, so the whole run is
  // deterministic; the shard layout must not change a single bit of it.
  const DataSplit split = threaded_data();
  const Model proto = threaded_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = 15;
  cfg.num_ps_shards = 1;
  const auto flat = threaded_train(proto, split.train, cfg);
  cfg.num_ps_shards = 8;
  const auto sharded = threaded_train(proto, split.train, cfg);
  ASSERT_EQ(flat.final_params.size(), sharded.final_params.size());
  for (std::size_t i = 0; i < flat.final_params.size(); ++i)
    ASSERT_EQ(flat.final_params[i], sharded.final_params[i]) << "param " << i;
}

}  // namespace
}  // namespace ss
