// Elastic membership & fault tolerance (src/elastic/) on both runtimes:
//
//  * MembershipPlan validation, and the RecoveryCoordinator's dry-run
//    feasibility checks, its membership pass (one restore, charged once)
//    and its online set-asides;
//  * the AsyncSnapshotter's copy-on-read cadence snapshots;
//  * threaded runtime: a crash mid-run recovers from the last snapshot and
//    still converges; join/leave resize the cluster, re-derive the learning
//    rate, and keep the BSP/SSP quota accounting exact; reactive eviction
//    removes an injected straggler;
//  * simulator: an elastic run with a fixed MembershipPlan is bit-for-bit
//    reproducible, keyed into the run cache, and prices its recoveries (two
//    crashes in one pass pay one restore);
//  * checkpoint v2 round-trips under an *active* CompressorBank — restoring
//    the per-worker error-feedback residuals alongside the PS state resumes
//    training bit-identically.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "common/error.h"
#include "compress/bank.h"
#include "compress/topk.h"
#include "core/run_cache.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "determinism_corpus.h"
#include "elastic/async_snapshotter.h"
#include "elastic/membership_plan.h"
#include "elastic/recovery_coordinator.h"
#include "nn/zoo.h"
#include "ps/param_server.h"
#include "ps/threaded_runtime.h"

namespace ss {
namespace {

// ---------------------------------------------------------------------------
// MembershipPlan + RecoveryCoordinator.
// ---------------------------------------------------------------------------

TEST(MembershipPlan, ValidatesEvents) {
  EXPECT_THROW(MembershipPlan({{MembershipEventKind::kCrash, 0, 0}}), ConfigError);
  EXPECT_THROW(MembershipPlan({{MembershipEventKind::kLeave, -1, 10}}), ConfigError);
  EXPECT_THROW(MembershipPlan({{MembershipEventKind::kJoin, 2, 10}}), ConfigError);
  const MembershipPlan ok({{MembershipEventKind::kJoin, -1, 20},
                           {MembershipEventKind::kCrash, 1, 10}});
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok.events()[0].at_step, 10);  // kept sorted by step
  EXPECT_EQ(ok.join_count(), 1u);
  EXPECT_FALSE(ok.reactive());
  EXPECT_TRUE(MembershipPlan().empty());
  EXPECT_FALSE(MembershipPlan::reactive_evict().empty());
}

TEST(MembershipPlan, LabelIsCanonical) {
  EXPECT_EQ(MembershipPlan().label(), "-");
  EXPECT_EQ(MembershipPlan::crash(0, 64).label(), "crash0@64");
  const MembershipPlan plan({{MembershipEventKind::kJoin, -1, 128},
                             {MembershipEventKind::kLeave, 2, 200}});
  EXPECT_EQ(plan.label(), "join@128+leave2@200");
  ElasticConfig cfg;
  EXPECT_EQ(cfg.label(), "-");
  cfg.plan = MembershipPlan::crash(1, 32);
  cfg.snapshot_interval = 16;
  cfg.min_workers = 2;
  EXPECT_EQ(cfg.label(), "crash1@32|si=16|rm=restore|min=2");
}

TEST(RecoveryCoordinator, DryRunRejectsInfeasiblePlans) {
  ElasticConfig cfg;
  // Crash of a worker slot that does not exist.
  cfg.plan = MembershipPlan::crash(7, 10);
  EXPECT_THROW(RecoveryCoordinator(cfg, 4), ConfigError);
  // Crashing the same worker twice.
  cfg.plan = MembershipPlan({{MembershipEventKind::kCrash, 0, 10},
                             {MembershipEventKind::kCrash, 0, 20}});
  EXPECT_THROW(RecoveryCoordinator(cfg, 4), ConfigError);
  // Shrinking below the floor.
  cfg.plan = MembershipPlan::leave(0, 10);
  cfg.min_workers = 2;
  EXPECT_THROW(RecoveryCoordinator(cfg, 2), ConfigError);
  // A join first makes the same leave legal.
  cfg.plan = MembershipPlan({{MembershipEventKind::kJoin, -1, 5},
                             {MembershipEventKind::kLeave, 0, 10}});
  EXPECT_NO_THROW(RecoveryCoordinator(cfg, 2));
}

TEST(RecoveryCoordinator, AppliesEventsAndAssignsJoinSlots) {
  ElasticConfig cfg;
  cfg.plan = MembershipPlan({{MembershipEventKind::kJoin, -1, 10},
                             {MembershipEventKind::kCrash, 1, 20}});
  cfg.recovery = RecoveryMode::kKeepLive;  // nothing to restore
  RecoveryCoordinator coord(cfg, 2);
  EXPECT_EQ(coord.max_slots(), 3u);
  EXPECT_EQ(coord.next_event_step(0), 10);
  EXPECT_FALSE(coord.events_due(9));
  ASSERT_TRUE(coord.events_due(10));

  const auto joined = coord.apply({}, 10);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].event.worker, 2);  // next free slot id
  EXPECT_EQ(joined[0].workers_after, 3u);
  EXPECT_TRUE(coord.is_alive(2));
  EXPECT_EQ(coord.next_event_step(10), 20);

  const auto crashed = coord.apply({}, 20);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0].event.kind, MembershipEventKind::kCrash);
  EXPECT_FALSE(crashed[0].restored);
  EXPECT_FALSE(coord.is_alive(1));
  EXPECT_EQ(coord.alive_count(), 2u);
  EXPECT_EQ(coord.next_event_step(20), -1);
}

TEST(RecoveryCoordinator, EvictionRespectsTheFloor) {
  ElasticConfig cfg;
  cfg.plan = MembershipPlan::reactive_evict();
  cfg.min_workers = 2;
  RecoveryCoordinator coord(cfg, 3);
  const auto evicted = coord.apply({0, 1, 2}, 42);
  ASSERT_EQ(evicted.size(), 1u);  // floor of 2 keeps the rest
  EXPECT_EQ(evicted[0].event.kind, MembershipEventKind::kLeave);
  EXPECT_EQ(evicted[0].event.at_step, 42);
  EXPECT_EQ(coord.alive_count(), 2u);
  // Dead slots are ignored silently.
  EXPECT_TRUE(coord.apply({0}, 43).empty());
}

TEST(RecoveryCoordinator, APassRestoresOnceAndChargesItsFirstCrash) {
  ElasticConfig cfg;
  cfg.plan = MembershipPlan({{MembershipEventKind::kCrash, 0, 8},
                             {MembershipEventKind::kJoin, -1, 8},
                             {MembershipEventKind::kCrash, 2, 8}});
  EXPECT_THROW(RecoveryCoordinator(cfg, 3), ConfigError) << "a restoring plan needs a snapshotter";
  SharedParameterServer ps({1.0f}, 0.0);
  std::int64_t progress = 0;
  AsyncSnapshotter snapshots([&] { return ps.snapshot_checkpoint(progress); },
                             [&] { return progress; }, /*interval=*/0);
  snapshots.snapshot_now();
  RecoveryCoordinator coord(cfg, 3, {}, &snapshots, &ps);
  const float grad = 1.0f;
  const std::vector<std::int64_t> versions(1, 0);
  ps.push(std::span<const float>(&grad, 1), 0.5, versions);
  progress = 8;
  const auto applied = coord.apply({}, 8);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_TRUE(applied[0].restored);
  EXPECT_EQ(applied[0].updates_lost, 8);
  for (std::size_t i = 1; i < applied.size(); ++i) {
    EXPECT_FALSE(applied[i].restored) << i;
    EXPECT_EQ(applied[i].updates_lost, 0) << i;
  }
  EXPECT_EQ(ps.snapshot(), std::vector<float>{1.0f}) << "the push is rolled back";
  EXPECT_EQ(coord.active(), (std::vector<int>{1, 3}));
}

TEST(RecoveryCoordinator, SetAsideSlotsLeaveTheWorkerSetUntilReadmitted) {
  DetectorConfig detector;
  detector.window_size = 1;
  detector.consecutive_required = 1;
  RecoveryCoordinator coord(ElasticConfig{}, 5, detector);
  coord.set_aside({1}, VTime::from_seconds(5.0));  // kReplace: back once provisioned
  coord.set_aside({4}, std::nullopt);              // kEvict: back at the leg's end
  EXPECT_EQ(coord.active(), (std::vector<int>{0, 2, 3}));
  EXPECT_FALSE(coord.replacement_due(VTime::from_seconds(4.0)));
  EXPECT_TRUE(coord.readmit(VTime::from_seconds(4.0)).empty());
  // Set-aside slots do not report; the detector runs on the three that do.
  coord.detector().observe(0, 1, VTime::from_seconds(1.0));
  coord.detector().observe(3, 1, VTime::from_seconds(1.0));
  EXPECT_TRUE(coord.detector().observe(2, 1, VTime::from_seconds(10.0)));
  EXPECT_EQ(coord.detector().stragglers(), std::vector<int>{2});
  ASSERT_TRUE(coord.replacement_due(VTime::from_seconds(5.0)));
  EXPECT_EQ(coord.readmit(VTime::from_seconds(5.0)), std::vector<int>{1});
  EXPECT_EQ(coord.active(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(coord.detector().any_straggler()) << "a re-admission rescopes the detector";
  coord.readmit(std::vector<int>{4});
  EXPECT_EQ(coord.active(), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(coord.replacement_due(VTime::from_seconds(1e6)));
}

// ---------------------------------------------------------------------------
// AsyncSnapshotter.
// ---------------------------------------------------------------------------

TEST(AsyncSnapshotter, KeepsTheLatestSnapshot) {
  std::int64_t progress = 3;
  float value = 1.0f;
  AsyncSnapshotter snap([&] {
    Checkpoint c;
    c.global_step = progress;
    c.params = {value};
    return c;
  },
                        [&] { return progress; }, /*interval=*/0);
  Checkpoint restored;
  const auto restore = [&](const Checkpoint& c) { restored = c; };
  EXPECT_EQ(snap.count(), 0);
  EXPECT_FALSE(snap.restore_latest(restore).has_value());  // nothing taken yet
  snap.snapshot_now();
  progress = 9;
  value = 2.0f;
  snap.snapshot_now();
  EXPECT_EQ(snap.count(), 2);
  progress = 15;
  EXPECT_EQ(snap.restore_latest(restore), 15 - 9);  // progress - the latest's step
  EXPECT_EQ(restored.global_step, 9);
  EXPECT_EQ(restored.params, std::vector<float>{2.0f});
  // Without a cadence a restore captures nothing: the same snapshot again.
  progress = 20;
  EXPECT_EQ(snap.restore_latest(restore), 20 - 9);
  EXPECT_EQ(snap.count(), 2);
}

TEST(AsyncSnapshotter, CapturesOnTheProgressCadence) {
  std::atomic<std::int64_t> progress{0};
  AsyncSnapshotter snap([&] {
    Checkpoint c;
    c.global_step = progress.load();
    c.params = {static_cast<float>(c.global_step)};
    return c;
  },
                        [&] { return progress.load(); }, /*interval=*/10);
  EXPECT_EQ(snap.count(), 0);  // nothing due yet
  progress.store(25);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (snap.count() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  snap.stop();
  ASSERT_EQ(snap.count(), 1);
  progress.store(40);
  Checkpoint restored;
  const auto lost = snap.restore_latest([&](const Checkpoint& c) { restored = c; });
  EXPECT_EQ(restored.global_step, 25);
  EXPECT_EQ(restored.params, std::vector<float>{25.0f});
  EXPECT_EQ(lost, 40 - 25);
  // With a cadence the restored state is captured at once as the new floor.
  EXPECT_EQ(snap.count(), 2);
}

// ---------------------------------------------------------------------------
// Threaded runtime: crash / join / leave on real threads.
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

TEST(ThreadedElastic, CrashRecoversFromTheLastSnapshotAndConverges) {
  const DataSplit split = easy_data();
  Model proto = proto_model(split);
  const double before = proto.evaluate_accuracy(split.test);

  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 60;
  cfg.lr = 0.1;
  cfg.num_ps_shards = 4;
  const auto clean = threaded_train(proto, split.train, cfg);

  cfg.elastic.plan = MembershipPlan::crash(1, 30);
  cfg.elastic.snapshot_interval = 20;  // PS updates between async snapshots
  cfg.elastic.recovery = RecoveryMode::kRestoreSnapshot;
  const auto crashed = threaded_train(proto, split.train, cfg);

  // Update accounting: every alive worker completes its 60 local steps; the
  // crashed worker stops at 30.  (Lost updates were applied, then rolled
  // back — the counter is monotone, like PS versions.)
  EXPECT_EQ(crashed.total_updates, 60 * 3 + 30);
  ASSERT_EQ(crashed.membership.size(), 1u);
  const ThreadedMembershipStats& ev = crashed.membership[0];
  EXPECT_EQ(ev.kind, MembershipEventKind::kCrash);
  EXPECT_EQ(ev.worker, 1);
  EXPECT_EQ(ev.at_step, 30);
  EXPECT_EQ(ev.workers_after, 3u);
  EXPECT_GE(ev.updates_lost, 0);
  EXPECT_GE(crashed.snapshots_taken, 1);  // run-start floor at minimum

  // Recovery from the snapshot loses at most one interval of updates, so
  // the run must still converge to (near) the uninterrupted accuracy.
  Model crashed_model = proto.clone();
  crashed_model.set_params(crashed.final_params);
  Model clean_model = proto.clone();
  clean_model.set_params(clean.final_params);
  const double crashed_acc = crashed_model.evaluate_accuracy(split.test);
  const double clean_acc = clean_model.evaluate_accuracy(split.test);
  EXPECT_GT(crashed_acc, before + 0.2);
  EXPECT_NEAR(crashed_acc, clean_acc, 0.2);
  for (float v : crashed.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedElastic, JoinAndLeaveAdjustClusterSizeLrAndBspQuotas) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 2;
  cfg.steps_per_worker = 30;
  cfg.lr = 0.05;
  cfg.elastic.plan = MembershipPlan({{MembershipEventKind::kJoin, -1, 10},
                                     {MembershipEventKind::kLeave, 0, 20}});
  const auto result = threaded_train(proto, split.train, cfg);

  // BSP applies exactly one aggregated update per round, whatever the
  // cluster size: the quota stays one round per local step.
  EXPECT_EQ(result.total_updates, 30);
  ASSERT_EQ(result.phases.size(), 1u);
  EXPECT_EQ(result.phases[0].steps, 30);
  // Wire accounting proves who participated: 10 rounds x 2 workers, then
  // 10 x 3 (slot 2 joined), then 10 x 2 (slot 0 left).
  const auto dense = static_cast<std::int64_t>(proto.num_params() * sizeof(float));
  EXPECT_EQ(result.push_bytes, (10 * 2 + 10 * 3 + 10 * 2) * dense);

  ASSERT_EQ(result.membership.size(), 2u);
  const auto& join = result.membership[0];
  const auto& leave = result.membership[1];
  EXPECT_EQ(join.kind, MembershipEventKind::kJoin);
  EXPECT_EQ(join.worker, 2);  // the next free slot
  EXPECT_EQ(join.workers_after, 3u);
  // Fixed-protocol elastic runs rescale lr by the configuration policy's
  // ratio: BSP at 3 workers = base lr x 3/2.
  EXPECT_DOUBLE_EQ(join.lr_after, 0.05 * (3.0 / 2.0));
  EXPECT_EQ(leave.kind, MembershipEventKind::kLeave);
  EXPECT_EQ(leave.worker, 0);
  EXPECT_EQ(leave.workers_after, 2u);
  EXPECT_DOUBLE_EQ(leave.lr_after, 0.05);
  EXPECT_EQ(leave.updates_lost, 0);  // graceful: nothing rolled back
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedElastic, SspBoundHoldsAcrossAMembershipChange) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kSsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 40;
  cfg.ssp_staleness_bound = 2;
  cfg.elastic.plan = MembershipPlan::leave(0, 15);
  cfg.pre_step_hook = [](std::size_t worker, std::int64_t) {
    if (worker == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const auto result = threaded_train(proto, split.train, cfg);
  // SSP quota: every alive worker reaches the common per-worker step count
  // in each segment — 15 steps x 4 workers, then 25 x 3.
  EXPECT_EQ(result.total_updates, 15 * 4 + 25 * 3);
  EXPECT_LE(result.max_clock_gap, 2);
  ASSERT_EQ(result.membership.size(), 1u);
  EXPECT_EQ(result.membership[0].workers_after, 3u);
}

TEST(ThreadedElastic, ScheduledSwitchAndMembershipCompose) {
  // A protocol switch (BSP -> ASP at step 12) and a membership change
  // (join at step 6, mid-BSP; crash at step 20, mid-ASP) in one run.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(12);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 30;
  cfg.elastic.plan = MembershipPlan({{MembershipEventKind::kJoin, -1, 6},
                                     {MembershipEventKind::kCrash, 0, 20}});
  cfg.elastic.snapshot_interval = 10;
  const auto result = threaded_train(proto, split.train, cfg);

  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(result.phases[0].protocol, Protocol::kBsp);
  EXPECT_EQ(result.phases[0].steps, 12);
  EXPECT_EQ(result.phases[0].updates, 12);  // one aggregate per round, any n
  EXPECT_EQ(result.phases[1].protocol, Protocol::kAsp);
  EXPECT_EQ(result.phases[1].steps, 18);
  // ASP updates: 3 workers for steps 12..20, then 2 workers to step 30.
  EXPECT_EQ(result.phases[1].updates, 8 * 3 + 10 * 2);
  ASSERT_EQ(result.membership.size(), 2u);
  EXPECT_EQ(result.membership[0].kind, MembershipEventKind::kJoin);
  EXPECT_EQ(result.membership[1].kind, MembershipEventKind::kCrash);
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedElastic, ReactiveEvictionRemovesAnInjectedStraggler) {
  // BSP is where a straggler hurts (every round waits for it) and where the
  // reactive eviction is round-synchronous: the leader evaluates the
  // detector once per round, so the whole cluster leaves the phase at the
  // same round and the flagged worker is retired at the drain barrier.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 80;
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  cfg.elastic.min_workers = 2;
  cfg.stragglers = StragglerSchedule::permanent(0, 20.0);
  cfg.detector.window_size = 3;
  cfg.detector.consecutive_required = 1;
  const auto result = threaded_train(proto, split.train, cfg);

  // The 20x straggler's throughput collapse is certain to be flagged once
  // the windows warm up; it must then leave at the next drain barrier.
  ASSERT_GE(result.membership.size(), 1u);
  EXPECT_EQ(result.membership[0].kind, MembershipEventKind::kLeave);
  EXPECT_EQ(result.membership[0].worker, 0);
  EXPECT_LE(result.membership[0].workers_after, 3u);
  EXPECT_EQ(result.total_updates, 80);  // one aggregate per round throughout
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedElastic, AspReactiveEvictionIsBestEffortWhenFastWorkersFinishFirst) {
  // The documented ASP edge (docs/EXPERIMENTS.md): under ASP nothing makes
  // the healthy workers wait, so they can burn through the whole step budget
  // before the latched eviction's drain step — which the 20x straggler must
  // also reach — ever resolves.  Eviction is best-effort by design.  This
  // regression test pins the deterministic facts of that race, whichever way
  // it goes: the run terminates (no drain-barrier deadlock against an
  // unreachable quota), every worker still completes its full step budget
  // unless evicted (so the update count stays within the 3-alive/4-alive
  // envelope), at most the one flagged worker leaves, and the parameters
  // stay finite.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 40;
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  cfg.elastic.min_workers = 2;
  cfg.stragglers = StragglerSchedule::permanent(0, 20.0);
  cfg.detector.window_size = 3;
  cfg.detector.consecutive_required = 1;
  const auto result = threaded_train(proto, split.train, cfg);

  // Evicted-or-not, the straggler contributes at least the steps it took to
  // reach the eviction drain and the healthy three contribute all 40 each.
  EXPECT_GE(result.total_updates, 3 * cfg.steps_per_worker);
  EXPECT_LE(result.total_updates, 4 * cfg.steps_per_worker);
  ASSERT_LE(result.membership.size(), 1u);
  if (!result.membership.empty()) {
    EXPECT_EQ(result.membership[0].kind, MembershipEventKind::kLeave);
    EXPECT_EQ(result.membership[0].worker, 0);
    EXPECT_EQ(result.membership[0].updates_lost, 0);  // eviction never rolls back
  }
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedElastic, RejectsReactiveMembershipPlusReactiveSchedule) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  cfg.num_workers = 2;
  cfg.steps_per_worker = 8;
  EXPECT_THROW(threaded_train(proto, split.train, cfg), ConfigError);
}

// ---------------------------------------------------------------------------
// Simulator: determinism, cache keying, pricing.
// ---------------------------------------------------------------------------

RunRequest elastic_request() {
  RunRequest req;
  req.workload.arch = ModelArch::kLinear;
  req.workload.data = SyntheticSpec::cifar10_like();
  req.workload.data.num_classes = 3;
  req.workload.data.feature_dim = 16;
  req.workload.data.train_size = 1024;
  req.workload.data.test_size = 512;
  req.workload.data.class_separation = 1.2;
  req.workload.total_steps = 256;
  req.workload.hyper.batch_size = 16;
  req.workload.hyper.learning_rate = 0.05;
  req.workload.eval_interval = 32;
  req.cluster.num_workers = 4;
  req.cluster.compute_per_batch = VTime::from_ms(20.0);
  req.cluster.reference_batch = 16;
  req.cluster.payload_bytes = 1000.0;
  req.policy = SyncSwitchPolicy::bsp_to_asp(0.25);
  req.actuator_time_scale = 0.01;
  req.elastic.plan = MembershipPlan({{MembershipEventKind::kCrash, 1, 96},
                                     {MembershipEventKind::kJoin, -1, 160},
                                     {MembershipEventKind::kLeave, 2, 208}});
  req.elastic.snapshot_interval = 64;
  req.seed = 7;
  return req;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.steps_completed, b.steps_completed);
  EXPECT_EQ(a.train_time_seconds, b.train_time_seconds);
  EXPECT_EQ(a.recovery_overhead_seconds, b.recovery_overhead_seconds);
  EXPECT_EQ(a.num_membership_events, b.num_membership_events);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.mean_staleness, b.mean_staleness);
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    ASSERT_EQ(a.loss_curve[i].step, b.loss_curve[i].step) << "point " << i;
    ASSERT_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss) << "point " << i;
  }
  ASSERT_EQ(a.accuracy_curve.size(), b.accuracy_curve.size());
  for (std::size_t i = 0; i < a.accuracy_curve.size(); ++i)
    ASSERT_EQ(a.accuracy_curve[i].accuracy, b.accuracy_curve[i].accuracy) << "point " << i;
}

TEST(SimElastic, FixedPlanIsBitForBitReproducible) {
  const RunResult a = TrainingSession(elastic_request()).run();
  const RunResult b = TrainingSession(elastic_request()).run();
  expect_bitwise_equal(a, b);
  EXPECT_EQ(a.steps_completed, 256);
  EXPECT_EQ(a.num_membership_events, 3);
  EXPECT_GT(a.recovery_overhead_seconds, 0.0);
  EXPECT_FALSE(a.diverged);
}

TEST(SimElastic, CrashRestoreDigestsArePinned) {
  // The sim's crash restore, from a cadence capture (interval 64: the crash
  // at step 96 rolls back to step 64) and from the run-start floor alone
  // (interval 0).  Digests recorded from the engine before the restore went
  // through AsyncSnapshotter; they must hold bit for bit.
  RunRequest floor_only = elastic_request();
  floor_only.elastic.snapshot_interval = 0;
  const struct {
    const char* name;
    RunRequest request;
    const char* digest;
  } pins[] = {
      {"si=64", elastic_request(), "c4f9e8ddb819ee92"},
      {"si=0", floor_only, "f8d8a0d7101c35cd"},
  };
  for (const auto& p : pins) {
    const RunResult r = TrainingSession(p.request).run();
    EXPECT_GT(r.updates_lost, 0) << p.name;
    EXPECT_EQ(result_fingerprint(r), p.digest) << p.name << " updates_lost=" << r.updates_lost;
  }
}

TEST(SimElastic, KeepLiveCrashDigestIsPinned) {
  // A crash under kKeepLive restores nothing, so the sim takes no snapshot
  // for it, but its segments still split at the capture steps.  Digest
  // recorded from the engine that still captured them; it must hold.
  RunRequest keep_live = elastic_request();
  keep_live.elastic.recovery = RecoveryMode::kKeepLive;
  const RunResult r = TrainingSession(keep_live).run();
  EXPECT_EQ(r.updates_lost, 0);
  EXPECT_EQ(r.num_membership_events, 3);
  EXPECT_EQ(result_fingerprint(r), "b9cc0c74ed271eea");
}

TEST(SimElastic, ReactiveLeaveDigestIsPinned) {
  // A reactive membership plan's kLeave reaction above a two-worker floor:
  // the detector flags the permanent straggler and the coordinator evicts
  // it.  Digest recorded from the engine before the membership transition
  // moved into the RecoveryCoordinator; it must hold.
  RunRequest req =
      online_policy_request(SyncSwitchPolicy::bsp_to_asp(0.5), OnlinePolicy::kNone, true);
  req.elastic.plan = MembershipPlan::reactive_evict();
  req.elastic.min_workers = 2;
  const RunResult r = TrainingSession(req).run();
  EXPECT_EQ(r.steps_completed, 512);
  EXPECT_EQ(r.num_membership_events, 1);
  EXPECT_EQ(r.updates_lost, 0);
  EXPECT_EQ(result_fingerprint(r), "fac554127b1c80e9");
}

TEST(SimElastic, TwoCrashesInOnePassChargeTheLossOnce) {
  // Two crashes due at one step resolve in one pass: the PS rolls back to
  // the latest snapshot once, so the pass loses what one crash loses, and
  // pays one restore beside a resize per event.
  for (const std::int64_t interval : {0, 64}) {
    SCOPED_TRACE("snapshot_interval=" + std::to_string(interval));
    RunRequest one = elastic_request();
    one.elastic.plan = MembershipPlan::crash(1, 96);
    one.elastic.snapshot_interval = interval;
    RunRequest two = one;
    two.elastic.plan = MembershipPlan({{MembershipEventKind::kCrash, 1, 96},
                                       {MembershipEventKind::kCrash, 2, 96}});
    const RunResult r1 = TrainingSession(one).run();
    const RunResult r2 = TrainingSession(two).run();
    EXPECT_EQ(r1.updates_lost, interval == 0 ? 96 : 32);
    EXPECT_EQ(r2.updates_lost, r1.updates_lost);
    EXPECT_EQ(r2.num_membership_events, 2);
    const double resize = ActuatorModel::paper_calibrated(two.actuator)
                              .resize_time()
                              .scaled(two.actuator_time_scale)
                              .seconds();
    const double restore = ClusterModel(two.cluster).recovery_restore_time().seconds();
    EXPECT_DOUBLE_EQ(r1.recovery_overhead_seconds, resize + restore);
    EXPECT_DOUBLE_EQ(r2.recovery_overhead_seconds, 2 * resize + restore);
  }
}

TEST(SimElastic, PlanIsKeyedIntoTheRunCache) {
  const RunRequest elastic = elastic_request();
  RunRequest plain = elastic;
  plain.elastic = ElasticConfig{};
  RunRequest other = elastic;
  other.elastic.snapshot_interval = 32;
  EXPECT_NE(elastic.cache_key(), plain.cache_key());
  EXPECT_NE(elastic.cache_key(), other.cache_key());
  EXPECT_NE(elastic.cache_key().find("elastic=crash1@96+join@160+leave2@208"),
            std::string::npos);
  EXPECT_NE(plain.cache_key().find("elastic=-"), std::string::npos);
  // The schema-version tag leads the key, so stale entries self-invalidate
  // whenever it is bumped.
  EXPECT_EQ(plain.cache_key().rfind("sv=", 0), 0u);
  EXPECT_NE(RunCache::hash_key(elastic), RunCache::hash_key(plain));
  // And the new result fields survive the run-cache round trip.
  const RunResult run = TrainingSession(elastic).run();
  const auto parsed = parse_run_result(serialize_run_result(run));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_membership_events, run.num_membership_events);
  // Text serialization uses max_digits10, so doubles round-trip exactly.
  EXPECT_EQ(parsed->recovery_overhead_seconds, run.recovery_overhead_seconds);
  EXPECT_EQ(parsed->updates_lost, run.updates_lost);
}

TEST(SimElastic, MembershipChangesPriceVirtualTime) {
  RunRequest plain = elastic_request();
  plain.elastic = ElasticConfig{};
  const RunResult without = TrainingSession(plain).run();
  const RunResult with = TrainingSession(elastic_request()).run();
  EXPECT_EQ(with.steps_completed, without.steps_completed);
  // Crash recovery + join hand-off + leave resize all cost virtual time on
  // top of the (different-cluster-size) training itself.
  EXPECT_GT(with.recovery_overhead_seconds, 0.0);
  EXPECT_NE(with.train_time_seconds, without.train_time_seconds);
}

TEST(SimElastic, CompressedRunSurvivesAJoin) {
  // Regression: the session's CompressorBank used to be sized for the
  // initial cluster only, so the joined slot's first encode threw.
  RunRequest req = elastic_request();
  req.compression = CompressionSpec::topk(0.25);
  const RunResult r = TrainingSession(req).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.steps_completed, 256);
  EXPECT_EQ(r.num_membership_events, 3);
}

/// Records, per worker slot, the last BSP update its tasks fed, and the BSP
/// leg's last update: the sink sees an update's on_task calls before its
/// on_update.
struct BspTaskLog final : MetricsSink {
  std::vector<int> pending;
  std::map<int, std::int64_t> last_bsp_task;
  std::int64_t bsp_end = 0;
  void on_task(const TaskObservation& obs) override { pending.push_back(obs.worker); }
  void on_update(const UpdateObservation& obs) override {
    if (obs.protocol == Protocol::kBsp) {
      for (int w : pending) last_bsp_task[w] = obs.global_step;
      bsp_end = obs.global_step;
    }
    pending.clear();
  }
  void on_eval(std::int64_t, VTime, double) override {}
};

TEST(SimElastic, AnElasticLegEvictsASecondStragglerAfterTheFirst) {
  // Two permanent 3x stragglers, the second slowing down well after the
  // first was evicted.  The leg's detector must restart on the slots still
  // active after each eviction, or the evicted slot, which never reports a
  // task again, keeps it from warming up and the second is never flagged.
  RunRequest req =
      online_policy_request(SyncSwitchPolicy::bsp_to_asp(0.75), OnlinePolicy::kElastic, true);
  req.workload.total_steps = 1024;
  req.cluster.num_workers = 6;
  const VTime forever = VTime::from_minutes(1e6);
  req.straggler_schedule = StragglerSchedule(
      {{1, VTime::from_seconds(0.2), forever, 3.0}, {2, VTime::from_seconds(3.0), forever, 3.0}});
  BspTaskLog log;
  req.observer = &log;
  const RunResult r = TrainingSession(req).run();
  EXPECT_EQ(r.steps_completed, 1024);
  ASSERT_GT(log.bsp_end, 0);
  for (int w : {0, 3, 4, 5}) EXPECT_EQ(log.last_bsp_task[w], log.bsp_end) << "slot " << w;
  for (int w : {1, 2}) EXPECT_LT(log.last_bsp_task[w], log.bsp_end) << "slot " << w;
  EXPECT_EQ(result_fingerprint(r), "b406913324d4f5e3") << "train_time=" << r.train_time_seconds;
}

TEST(SimElastic, RejectsCombinationWithOnlinePolicies) {
  RunRequest req = elastic_request();
  req.policy.online = OnlinePolicy::kGreedy;
  EXPECT_THROW(TrainingSession{req}, ConfigError);
  req.policy.online = OnlinePolicy::kNone;
  req.policy.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);
  req.elastic.plan = MembershipPlan::reactive_evict();
  EXPECT_THROW(TrainingSession{req}, ConfigError);
}

// ---------------------------------------------------------------------------
// Checkpoint v2 round-trip under an active CompressorBank: restoring the
// per-worker error-feedback residuals alongside the PS state must resume
// training bit-identically.
// ---------------------------------------------------------------------------

TEST(ElasticCheckpoint, RoundTripRestoresErrorFeedbackResidualsPerWorkerSlot) {
  const std::size_t p = 64;
  const std::size_t workers = 3;
  auto codec = std::make_shared<TopKCodec>(0.25);
  CompressorBank bank(codec, workers, /*error_feedback=*/true);
  SharedParameterServer ps(std::vector<float>(p, 0.5f), 0.9, /*num_shards=*/4);

  Rng data_rng(77);
  std::vector<Rng> worker_rngs;
  for (std::size_t w = 0; w < workers; ++w) worker_rngs.push_back(data_rng.fork(10 + w));

  auto step_all = [&](SharedParameterServer& server, CompressorBank& b, std::vector<Rng>& rngs,
                      int round) {
    for (std::size_t w = 0; w < workers; ++w) {
      std::vector<float> grad(p);
      // Deterministic per-(worker, round) gradient, independent of any
      // shared RNG state, so both halves of the comparison see equal input.
      for (std::size_t i = 0; i < p; ++i)
        grad[i] = 0.01f * static_cast<float>((i + w + 1) % 7) +
                  0.001f * static_cast<float>(round);
      const CompressedPush push = b.encode(static_cast<int>(w), grad, rngs[w]);
      server.push_compressed(push, 0.05, std::vector<std::int64_t>(server.num_shards(), 0));
    }
  };

  // Warm up: residuals become non-trivial.
  for (int round = 0; round < 4; ++round) step_all(ps, bank, worker_rngs, round);
  for (std::size_t w = 0; w < workers; ++w)
    EXPECT_GT(bank.residual_l1(static_cast<int>(w)), 0.0);

  // Checkpoint the PS, and save every worker slot's residual alongside it.
  const Checkpoint ckpt = ps.snapshot_checkpoint(4);
  EXPECT_EQ(ckpt.num_shards, 4u);
  std::vector<std::vector<float>> saved_residuals;
  std::vector<Rng> saved_rngs = worker_rngs;  // value type: snapshot the streams
  for (std::size_t w = 0; w < workers; ++w) {
    const auto r = bank.residual(static_cast<int>(w));
    saved_residuals.emplace_back(r.begin(), r.end());
  }

  // Continue the original for two more rounds...
  for (int round = 4; round < 6; ++round) step_all(ps, bank, worker_rngs, round);

  // ...and a restored replica (fresh PS + fresh bank + restored residuals)
  // for the same two rounds: every parameter and every residual must match
  // bit for bit.
  SharedParameterServer ps2(std::vector<float>(p, 0.0f), 0.9, /*num_shards=*/4);
  ps2.restore(ckpt);
  CompressorBank bank2(codec, workers, /*error_feedback=*/true);
  for (std::size_t w = 0; w < workers; ++w)
    bank2.restore_residual(static_cast<int>(w), saved_residuals[w]);
  for (int round = 4; round < 6; ++round) step_all(ps2, bank2, saved_rngs, round);

  const std::vector<float> a = ps.snapshot();
  const std::vector<float> b = ps2.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "param " << i;
  for (std::size_t w = 0; w < workers; ++w) {
    const auto ra = bank.residual(static_cast<int>(w));
    const auto rb = bank2.residual(static_cast<int>(w));
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
      ASSERT_EQ(ra[i], rb[i]) << "worker " << w << " residual " << i;
  }

  // Without the residuals the continuation diverges — the restore is what
  // makes the transport state part of the checkpointable whole.
  SharedParameterServer ps3(std::vector<float>(p, 0.0f), 0.9, /*num_shards=*/4);
  ps3.restore(ckpt);
  CompressorBank bank3(codec, workers, /*error_feedback=*/true);
  std::vector<Rng> rngs3 = saved_rngs;
  for (int round = 4; round < 6; ++round) step_all(ps3, bank3, rngs3, round);
  bool any_diff = false;
  const std::vector<float> c = ps3.snapshot();
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= a[i] != c[i];
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace ss
