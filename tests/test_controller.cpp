#include "control/controller.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/threaded_runtime.h"
#include "sim/calibration.h"

namespace ss {
namespace {

// ---------------------------------------------------------------------------
// Calibration seam (sim/calibration.h)
// ---------------------------------------------------------------------------

MeasuredPhaseCosts stats_with(double factor, int worker) {
  MeasuredPhaseCosts m;
  m.num_workers = 4;
  m.batch_size = 16;
  m.step_seconds = 0.004;
  m.push_bytes = 1000.0;
  m.straggler_factor = factor;
  m.straggler_worker = worker;
  return m;
}

TEST(Calibration, QuantizeBucketsTimesAndBytes) {
  MeasuredPhaseCosts m = stats_with(1.0, -1);
  m.step_seconds = 0.0041237;
  m.push_bytes = 1037.9;
  const MeasuredPhaseCosts q = quantize(m);
  EXPECT_DOUBLE_EQ(q.step_seconds, 0.0041);  // 2 significant digits
  EXPECT_DOUBLE_EQ(q.push_bytes, 1000.0);
  // Two nearby measurements collapse onto the same bucket: that identity is
  // what makes twin cache keys repeat across decision epochs.
  m.step_seconds = 0.0040951;
  m.push_bytes = 1020.2;
  const MeasuredPhaseCosts q2 = quantize(m);
  EXPECT_DOUBLE_EQ(q2.step_seconds, q.step_seconds);
  EXPECT_DOUBLE_EQ(q2.push_bytes, q.push_bytes);
}

TEST(Calibration, QuantizeStragglerFactorBuckets) {
  // Below the noise floor: uniform cluster, worker index dropped.
  MeasuredPhaseCosts q = quantize(stats_with(1.2, 2));
  EXPECT_DOUBLE_EQ(q.straggler_factor, 1.0);
  EXPECT_EQ(q.straggler_worker, -1);
  // 0.5 buckets below 4x.
  EXPECT_DOUBLE_EQ(quantize(stats_with(2.3, 2)).straggler_factor, 2.5);
  EXPECT_EQ(quantize(stats_with(2.3, 2)).straggler_worker, 2);
  // Coarser 2.0 buckets above 4x: slow stragglers measure noisily but the
  // right decision stops depending on the exact factor.
  EXPECT_DOUBLE_EQ(quantize(stats_with(7.3, 1)).straggler_factor, 8.0);
  // Capped: a x24 and a x53 measurement land in the same bucket.
  EXPECT_DOUBLE_EQ(quantize(stats_with(24.0, 1)).straggler_factor, kStragglerFactorCap);
  EXPECT_DOUBLE_EQ(quantize(stats_with(53.0, 1)).straggler_factor, kStragglerFactorCap);
}

TEST(Calibration, CalibrateOverwritesCostsPreservingBaseRatios) {
  ClusterSpec base = ControllerConfig::default_twin_base_cluster();
  const double base_ratio = base.sync_base.seconds() / base.compute_per_batch.seconds();
  const MeasuredPhaseCosts q = quantize(stats_with(1.0, -1));
  const ClusterSpec spec = calibrate_cluster_spec(base, q);
  EXPECT_EQ(spec.num_workers, q.num_workers);
  EXPECT_EQ(spec.reference_batch, q.batch_size);
  EXPECT_DOUBLE_EQ(spec.compute_per_batch.seconds(), q.step_seconds);
  EXPECT_DOUBLE_EQ(spec.payload_bytes, q.push_bytes);
  EXPECT_NEAR(spec.sync_base.seconds() / spec.compute_per_batch.seconds(), base_ratio, 1e-9);
}

// ---------------------------------------------------------------------------
// Decision engine (control/controller.h), no threads involved
// ---------------------------------------------------------------------------

ControllerConfig engine_config() {
  ControllerConfig cfg;
  cfg.enabled = true;
  cfg.decision_interval = 32;
  cfg.min_steps_between_moves = 64;
  cfg.min_predicted_gain = 0.10;
  return cfg;
}

TEST(Controller, DecisionIsDeterministicAcrossInstances) {
  const MeasuredPhaseCosts m = stats_with(8.0, 2);
  OnlineController a(engine_config(), CompressionSpec{});
  OnlineController b(engine_config(), CompressionSpec{});
  const ControllerDecision da = a.decide(32, Protocol::kBsp, 3, false, m, 1000, 1000);
  const ControllerDecision db = b.decide(32, Protocol::kBsp, 3, false, m, 1000, 1000);
  EXPECT_EQ(da.chosen.label(), db.chosen.label());
  EXPECT_EQ(da.enacted, db.enacted);
  EXPECT_EQ(da.reason, db.reason);
  EXPECT_DOUBLE_EQ(da.predicted_gain, db.predicted_gain);
  ASSERT_EQ(da.candidates.size(), db.candidates.size());
  for (std::size_t i = 0; i < da.candidates.size(); ++i)
    EXPECT_DOUBLE_EQ(da.candidates[i].predicted_seconds, db.candidates[i].predicted_seconds)
        << da.candidates[i].candidate.label();
}

TEST(Controller, SwitchesAwayFromBspUnderStraggler) {
  OnlineController ctrl(engine_config(), CompressionSpec{});
  const ControllerDecision d =
      ctrl.decide(32, Protocol::kBsp, 3, false, stats_with(8.0, 2), 1000, 1000);
  EXPECT_TRUE(d.enacted) << d.reason;
  EXPECT_NE(d.chosen.protocol, Protocol::kBsp);
  EXPECT_GE(d.predicted_gain, 0.10);
}

TEST(Controller, HoldsOnHealthyCluster) {
  OnlineController ctrl(engine_config(), CompressionSpec{});
  const ControllerDecision d =
      ctrl.decide(32, Protocol::kBsp, 3, false, stats_with(1.0, -1), 1000, 1000);
  EXPECT_FALSE(d.enacted) << d.reason;
  EXPECT_GE(d.candidates.size(), 3u);  // BSP, ASP, SSP at least
}

TEST(Controller, TwinQueriesHitWarmCacheOnSecondEpoch) {
  OnlineController ctrl(engine_config(), CompressionSpec{});
  const MeasuredPhaseCosts m = stats_with(1.0, -1);
  const ControllerDecision first = ctrl.decide(32, Protocol::kBsp, 3, false, m, 1000, 1000);
  EXPECT_EQ(first.cache_hits, 0u);
  // Second epoch, same quantized stats: every twin query repeats and is
  // served from warm state — and the decision itself is unchanged.
  const ControllerDecision second = ctrl.decide(64, Protocol::kBsp, 3, false, m, 1000, 1000);
  EXPECT_EQ(second.cache_hits, second.candidates.size());
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_EQ(second.chosen.label(), first.chosen.label());
  EXPECT_DOUBLE_EQ(second.predicted_gain, first.predicted_gain);
}

TEST(Controller, DiskCacheWarmsAFreshController) {
  // One directory per process: concurrent runs of this suite (CI repeats it
  // under load) must not delete each other's cache mid-test.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ss_controller_twin_cache_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ControllerConfig cfg = engine_config();
  cfg.cache_dir = dir.string();
  const MeasuredPhaseCosts m = stats_with(8.0, 2);

  OnlineController first(cfg, CompressionSpec{});
  const ControllerDecision cold = first.decide(32, Protocol::kBsp, 3, false, m, 1000, 1000);
  EXPECT_EQ(cold.cache_hits, 0u);

  // A brand-new controller (fresh memo) replays the same epoch entirely from
  // the on-disk twin cache.
  OnlineController second(cfg, CompressionSpec{});
  const ControllerDecision warm = second.decide(32, Protocol::kBsp, 3, false, m, 1000, 1000);
  EXPECT_EQ(warm.cache_hits, warm.candidates.size());
  EXPECT_EQ(warm.chosen.label(), cold.chosen.label());
  EXPECT_EQ(warm.reason, cold.reason);
  std::filesystem::remove_all(dir);
}

TEST(Controller, HysteresisBlocksImmediateMoveBack) {
  OnlineController ctrl(engine_config(), CompressionSpec{});
  // A straggler appears: the controller moves off BSP.
  const ControllerDecision move =
      ctrl.decide(64, Protocol::kBsp, 3, false, stats_with(8.0, 2), 1000, 1000);
  ASSERT_TRUE(move.enacted) << move.reason;
  const Protocol now_on = move.chosen.protocol;
  // Next interval the straggler is gone; the twin prefers BSP again, but the
  // move is inside the hysteresis window — hold, don't thrash.
  const ControllerDecision back =
      ctrl.decide(96, now_on, 3, false, stats_with(1.0, -1), /*steps_since_move=*/32, 1000);
  EXPECT_FALSE(back.enacted);
  EXPECT_EQ(back.reason, "hold:hysteresis");
}

TEST(Controller, OscillatingStragglerCannotThrash) {
  ControllerConfig cfg = engine_config();
  cfg.min_steps_between_moves = 100;
  OnlineController ctrl(cfg, CompressionSpec{});
  // A straggler that flips on and off every 10-step interval: whatever the
  // twin wants, at most one move fits in each 100-step hysteresis window.
  Protocol proto = Protocol::kBsp;
  std::int64_t last_move = 0;
  int moves = 0;
  for (int i = 1; i <= 10; ++i) {
    const std::int64_t at = 100 + 10 * i;
    const MeasuredPhaseCosts m = i % 2 == 1 ? stats_with(8.0, 2) : stats_with(1.0, -1);
    const ControllerDecision d = ctrl.decide(at, proto, 3, false, m, at - last_move, 1000);
    if (d.enacted) {
      ++moves;
      last_move = at;
      proto = d.chosen.protocol;
    }
  }
  EXPECT_LE(moves, 1);
}

TEST(Controller, ShortTailDeclinesMoves) {
  OnlineController ctrl(engine_config(), CompressionSpec{});
  const ControllerDecision d = ctrl.decide(960, Protocol::kBsp, 3, false, stats_with(8.0, 2),
                                           1000, /*remaining_steps=*/16);
  EXPECT_FALSE(d.enacted);
  EXPECT_EQ(d.reason, "hold:tail");
}

TEST(Controller, EvictionCandidateGatedByConfigAndFloor) {
  ControllerConfig cfg = engine_config();
  cfg.consider_eviction = true;
  cfg.min_workers = 2;
  OnlineController ctrl(cfg, CompressionSpec{});
  const ControllerDecision with_straggler =
      ctrl.decide(32, Protocol::kBsp, 3, false, stats_with(8.0, 2), 1000, 1000);
  bool offered = false;
  for (const CandidateOutcome& c : with_straggler.candidates)
    offered |= c.candidate.evict_straggler;
  EXPECT_TRUE(offered);
  // Healthy cluster: no straggler slot, nothing to evict.
  const ControllerDecision healthy =
      ctrl.decide(64, Protocol::kBsp, 3, false, stats_with(1.0, -1), 1000, 1000);
  for (const CandidateOutcome& c : healthy.candidates)
    EXPECT_FALSE(c.candidate.evict_straggler);
  // At the floor: a 2-worker cluster cannot shrink.
  MeasuredPhaseCosts tiny = stats_with(8.0, 1);
  tiny.num_workers = 2;
  const ControllerDecision floor =
      ctrl.decide(96, Protocol::kBsp, 3, false, tiny, 1000, 1000);
  for (const CandidateOutcome& c : floor.candidates)
    EXPECT_FALSE(c.candidate.evict_straggler);
}

// ---------------------------------------------------------------------------
// Threaded-runtime integration
// ---------------------------------------------------------------------------

DataSplit easy_data() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 256;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.class_separation = 1.5;
  return make_synthetic(spec);
}

Model proto_model(const DataSplit& split) {
  Rng rng(11);
  return make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
}

TEST(ThreadedController, OffByDefaultRecordsNothingAndStaysDeterministic) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 20;
  const auto a = threaded_train(proto, split.train, cfg);
  const auto b = threaded_train(proto, split.train, cfg);
  EXPECT_TRUE(a.decisions.empty());
  EXPECT_TRUE(b.decisions.empty());
  // BSP aggregation is slot-ordered, so a controller-off run-pair must be
  // bit-identical — the controller field existing cannot perturb the math.
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
}

TEST(ThreadedController, RejectsComposingWithScheduleOrElastic) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.num_workers = 2;
  cfg.steps_per_worker = 10;
  cfg.controller.enabled = true;

  ThreadedTrainConfig with_schedule = cfg;
  with_schedule.schedule = SwitchSchedule({{Protocol::kBsp, SwitchTrigger::kStepCount, 5, -1},
                                           {Protocol::kAsp, SwitchTrigger::kStepCount, 0, -1}});
  EXPECT_THROW(threaded_train(proto, split.train, with_schedule), ConfigError);

  ThreadedTrainConfig with_elastic = cfg;
  with_elastic.elastic.plan = MembershipPlan::leave(/*worker=*/1, /*at_step=*/5);
  EXPECT_THROW(threaded_train(proto, split.train, with_elastic), ConfigError);

  ThreadedTrainConfig bad_interval = cfg;
  bad_interval.controller.decision_interval = 0;
  EXPECT_THROW(threaded_train(proto, split.train, bad_interval), ConfigError);
}

/// One row per decision: the step, the protocol before and the one chosen,
/// whether it was enacted and why, and the measurement it saw.
std::string decision_table(const std::vector<ControllerDecision>& decisions) {
  std::ostringstream os;
  os << "decisions (step before->chosen enacted reason | step_s factor worker):\n";
  for (const ControllerDecision& d : decisions)
    os << "  " << d.at_step << " " << protocol_name(d.protocol_before) << "->"
       << d.chosen.label() << " enacted=" << d.enacted << " " << d.reason
       << " | " << d.measured.step_seconds << " " << d.measured.straggler_factor << " w"
       << d.measured.straggler_worker << "\n";
  return os.str();
}

ThreadedTrainConfig controller_run_config() {
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 72;
  cfg.batch_size = 16;
  cfg.controller.enabled = true;
  cfg.controller.decision_interval = 12;
  cfg.controller.min_steps_between_moves = 12;
  cfg.controller.min_predicted_gain = 0.05;
  return cfg;
}

TEST(ThreadedController, DiscoversInjectedStragglerAndSwitchesOffBsp) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg = controller_run_config();
  // Permanent x12 wall-clock straggler on worker 2 from the first step.
  cfg.stragglers = StragglerSchedule::transient(2, VTime::from_seconds(0.0),
                                                VTime::from_seconds(1e9), 12.0);
  const auto result = threaded_train(proto, split.train, cfg);
  SCOPED_TRACE(decision_table(result.decisions));

  ASSERT_FALSE(result.decisions.empty());
  ASSERT_GE(result.phases.size(), 2u);
  bool moved_off_bsp = false;
  for (const ControllerDecision& d : result.decisions) {
    ASSERT_FALSE(d.candidates.empty()) << d.reason;
    if (d.enacted && d.chosen.protocol != Protocol::kBsp) moved_off_bsp = true;
  }
  EXPECT_TRUE(moved_off_bsp);
  EXPECT_NE(result.phases.back().protocol, Protocol::kBsp);
  // The measured straggler survives quantization as a real straggler.
  EXPECT_GE(result.decisions.front().measured.straggler_factor, kStragglerNoiseFloor);
  std::int64_t steps = 0;
  for (const ThreadedPhaseStats& s : result.phases) steps += s.steps;
  EXPECT_EQ(steps, cfg.steps_per_worker);  // the full budget still trains
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
}

TEST(ThreadedController, EvictionMoveRetiresTheStragglerSlot) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg = controller_run_config();
  // Only BSP in the grid: eviction is the controller's one way out.
  cfg.controller.protocols = {Protocol::kBsp};
  cfg.controller.consider_eviction = true;
  // A floor of 3 of the 4 workers allows exactly one eviction, so a loaded
  // host whose timings flag a second worker cannot evict it too.
  cfg.controller.min_workers = 3;
  cfg.stragglers = StragglerSchedule::transient(1, VTime::from_seconds(0.0),
                                                VTime::from_seconds(1e9), 12.0);
  const auto result = threaded_train(proto, split.train, cfg);

  ASSERT_EQ(result.membership.size(), 1u);
  EXPECT_EQ(result.membership.front().worker, 1);
  EXPECT_EQ(result.membership.front().workers_after, 3u);
  bool evicted = false;
  for (const ControllerDecision& d : result.decisions)
    evicted |= d.enacted && d.chosen.evict_straggler;
  EXPECT_TRUE(evicted);
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
}

}  // namespace
}  // namespace ss
