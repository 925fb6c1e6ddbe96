// BarrierPlanner without the runtime: the segments it lowers a config onto,
// its lr rule, the elastic cap, controller legs and membership deltas, the
// detector watches, and whole drain transitions — the phase stats, the eval
// hook, the crash restore and the membership records — on a fake clock.
// The threaded suites exercise the same decisions on real threads; here each
// segment is run by setting the counters its workers would advance, then
// drained.  The step rules (admit, stepped, abort) are driven directly, with
// one extra thread where a waiter must park.
#include "ps/barrier_planner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"

namespace ss {
namespace {

using Drained = BarrierPlanner::Drained;

/// The fake clock every planner here reads.
BarrierPlanner::TimePoint fake_time;
BarrierPlanner::TimePoint fake_now() { return fake_time; }
void advance_clock(double seconds) {
  fake_time += std::chrono::duration_cast<BarrierPlanner::TimePoint::duration>(
      std::chrono::duration<double>(seconds));
}

ThreadedTrainConfig base_config() {
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.batch_size = 16;
  cfg.steps_per_worker = 30;
  cfg.lr = 0.05;
  cfg.ssp_staleness_bound = 3;
  cfg.detector.window_size = 4;
  cfg.detector.consecutive_required = 2;
  return cfg;
}

/// A planner over `cfg` and a 250-parameter PS (1000 dense bytes a push),
/// with a snapshotter that runs no cadence, on the fake clock, started after
/// `setup_seconds` of the runtime's setup.  `updates` stands in for the
/// runtime's update counter.
struct Rig {
  explicit Rig(ThreadedTrainConfig cfg, double setup_seconds = 0.0)
      : planner(std::move(cfg), ps, snapshots, &fake_now) {
    advance_clock(setup_seconds);
    planner.start();
  }
  SharedParameterServer ps{std::vector<float>(250, 0.5f), 0.9};
  std::int64_t updates = 0;
  AsyncSnapshotter snapshots{[this] { return ps.snapshot_checkpoint(updates); },
                             [this] { return updates; }, 0};
  BarrierPlanner planner;
};

/// The parameters and shard versions a worker's pull reads from `ps`.
struct Pulled {
  std::vector<float> params;
  std::vector<std::int64_t> versions;
};
Pulled pull(const SharedParameterServer& ps) {
  Pulled out{std::vector<float>(ps.num_params()), {}};
  ps.pull_with_versions(out.params, out.versions);
  return out;
}

/// Feeds `windows` full detection windows of 4 workers; `slow` (if >= 0)
/// takes 4x longer per step.
void feed(StragglerDetector& d, int windows, int slow) {
  for (int rep = 0; rep < windows * 4; ++rep)
    for (int w = 0; w < 4; ++w) d.observe(w, 64, VTime::from_seconds(w == slow ? 0.4 : 0.1));
}

/// A detector flagging worker `slow`, or nothing when `slow` < 0.
StragglerDetector detector_flagging(int slow) {
  StragglerDetector d(4, base_config().detector);
  feed(d, 2, slow);
  return d;
}

/// Runs the armed segment to `steps` phase steps as its workers would —
/// every alive clock there, and under ASP n_alive tickets a step — with the
/// watch latched when `fired`, and drains it.
Drained run_to(BarrierPlanner& planner, std::int64_t steps, bool fired = false,
               std::int64_t updates = 0) {
  Segment& seg = planner.segment();
  for (int w : planner.active()) planner.clock(static_cast<std::size_t>(w)) = steps;
  seg.tickets = static_cast<std::int64_t>(planner.active().size()) * (steps - seg.start);
  seg.fired = fired;
  return planner.drain(updates);
}

/// Runs the armed segment to its quota and drains it.
Drained run_to_quota(BarrierPlanner& planner) {
  return run_to(planner, planner.segment().quota);
}

TEST(BarrierPlanner, FixedProtocolIsOneLegOverTheWholeRun) {
  Rig rig(base_config());
  BarrierPlanner& planner = rig.planner;
  EXPECT_EQ(planner.detector(), nullptr);
  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.leg, 0u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(seg.start, 0);
  EXPECT_EQ(seg.quota, 30);
  EXPECT_EQ(seg.ticket_budget, 4 * 30);
  EXPECT_FALSE(reads_detector(seg.plan.phase.trigger, seg.plan.reaction));
  EXPECT_FALSE(seg.compress);
  EXPECT_EQ(run_to_quota(planner), Drained::kOver);
  EXPECT_TRUE(planner.finished());
  ASSERT_EQ(planner.recorded().phases.size(), 1u);
  EXPECT_EQ(planner.recorded().phases[0].steps, 30);
}

TEST(BarrierPlanner, ScheduleLegsRunVerbatimWithReactiveLegsAndTheLastLegsRemainder) {
  ThreadedTrainConfig cfg = base_config();
  cfg.compression = CompressionSpec::topk(0.1);
  cfg.schedule = SwitchSchedule({{Protocol::kBsp, SwitchTrigger::kStepCount, 10, -1},
                                 {Protocol::kAsp, SwitchTrigger::kStragglerDetected, 0, -1},
                                 {Protocol::kSsp, SwitchTrigger::kStepCount, 0, 5}});
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  ASSERT_NE(planner.detector(), nullptr);

  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(seg.quota, 10);
  EXPECT_FALSE(reads_detector(seg.plan.phase.trigger, seg.plan.reaction));
  EXPECT_TRUE(seg.compress);
  EXPECT_EQ(run_to_quota(planner), Drained::kArmed);
  EXPECT_EQ(planner.done(), 10);

  // A reactive leg runs out the budget unless its watch fires first.
  EXPECT_EQ(seg.leg, 1u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kAsp);
  EXPECT_EQ(seg.quota, 20);
  EXPECT_EQ(seg.ticket_budget, 4 * 20);
  EXPECT_EQ(seg.plan.phase.trigger, SwitchTrigger::kStragglerDetected);
  EXPECT_EQ(seg.plan.reaction, Reaction::kNone);
  feed(*planner.detector(), 2, 2);
  EXPECT_EQ(run_to(planner, 4, true), Drained::kArmed) << "a switch trigger evicts no one";
  ASSERT_EQ(planner.recorded().phases.size(), 2u);
  const ThreadedPhaseStats& fired = planner.recorded().phases[1];
  EXPECT_TRUE(fired.ended_by_trigger);
  EXPECT_EQ(fired.protocol, Protocol::kAsp);
  EXPECT_EQ(fired.start_step, 10);
  EXPECT_EQ(fired.steps, 4);
  EXPECT_EQ(planner.done(), 14);

  // The last leg runs out what is left, at its own bound.
  EXPECT_EQ(seg.leg, 2u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kSsp);
  EXPECT_EQ(seg.plan.phase.ssp_staleness_bound, 5);
  EXPECT_EQ(seg.quota, 16);
  EXPECT_EQ(run_to_quota(planner), Drained::kOver);
  EXPECT_TRUE(planner.finished());
}

TEST(BarrierPlanner, AStepLegLongerThanTheRunIsCutToTheBudget) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule::bsp_to_asp(50);
  Rig rig(cfg);
  EXPECT_EQ(rig.planner.segment().quota, 30);
  EXPECT_EQ(run_to_quota(rig.planner), Drained::kOver);
  EXPECT_TRUE(rig.planner.finished());
}

TEST(BarrierPlanner, LrRuleMatchesEachSourceAtAChangedClusterSize) {
  ThreadedTrainConfig fixed = base_config();
  fixed.num_workers = 2;
  fixed.elastic.plan = MembershipPlan::join(10);
  {
    // Fixed protocol: the configured lr, rescaled by the policy's n / n0.
    Rig rig(fixed);
    EXPECT_EQ(rig.planner.segment().lr, 0.05);
    EXPECT_DOUBLE_EQ(rig.planner.lr(Protocol::kBsp, 3), 0.05 * (3.0 / 2.0));
    EXPECT_EQ(rig.planner.lr(Protocol::kAsp, 3), 0.05);
  }
  ThreadedTrainConfig schedule = fixed;
  schedule.schedule = SwitchSchedule::bsp_to_asp(20);
  {
    // Schedule legs: the policy's lr outright, linear-scaled for BSP.
    Rig rig(schedule);
    EXPECT_DOUBLE_EQ(rig.planner.segment().lr, 0.05 * 2);
    EXPECT_DOUBLE_EQ(rig.planner.lr(Protocol::kBsp, 3), 0.05 * 3);
    EXPECT_EQ(rig.planner.lr(Protocol::kAsp, 3), 0.05);
  }
  ThreadedTrainConfig controlled = base_config();
  controlled.controller.enabled = true;
  {
    Rig rig(controlled);
    EXPECT_DOUBLE_EQ(rig.planner.segment().lr, 0.05 * 4);
    EXPECT_DOUBLE_EQ(rig.planner.lr(Protocol::kBsp, 3), 0.05 * 3);
  }
  for (ThreadedTrainConfig* cfg : {&fixed, &schedule, &controlled}) {
    cfg->derive_phase_lr = false;
    const Rig rig(*cfg);
    EXPECT_EQ(rig.planner.lr(Protocol::kBsp, 3), 0.05);
    EXPECT_EQ(rig.planner.lr(Protocol::kAsp, 1), 0.05);
  }
}

TEST(BarrierPlanner, MembershipEventsCapSegmentsAndResumeThePhase) {
  ThreadedTrainConfig cfg = base_config();
  cfg.num_workers = 2;
  cfg.elastic.plan = MembershipPlan::join(10);
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;

  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.start, 0);
  EXPECT_EQ(seg.quota, 10);
  EXPECT_EQ(run_to_quota(planner), Drained::kMembership) << "the event interrupts the phase";
  EXPECT_EQ(planner.done(), 0);
  EXPECT_TRUE(planner.recorded().phases.empty());
  const std::span<const ThreadedMembershipStats> applied = planner.recover();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].kind, MembershipEventKind::kJoin);
  EXPECT_EQ(applied[0].worker, 2);
  EXPECT_EQ(applied[0].at_step, 10);
  EXPECT_EQ(applied[0].workers_after, 3u);
  EXPECT_DOUBLE_EQ(applied[0].lr_after, 0.05 * (3.0 / 2.0));
  EXPECT_EQ(applied[0].updates_lost, 0);

  // The same phase resumes at the new size and lr, every clock at its start.
  EXPECT_EQ(planner.active(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(seg.leg, 0u);
  EXPECT_EQ(seg.start, 10);
  EXPECT_EQ(seg.quota, 30);
  EXPECT_EQ(seg.ticket_budget, 3 * 20);
  EXPECT_DOUBLE_EQ(seg.lr, 0.05 * (3.0 / 2.0));
  for (int w : planner.active()) EXPECT_EQ(planner.clock(static_cast<std::size_t>(w)), 10);
  EXPECT_EQ(run_to_quota(planner), Drained::kOver);
  EXPECT_EQ(planner.done(), 30);
  EXPECT_TRUE(planner.finished());
  ASSERT_EQ(planner.recorded().phases.size(), 1u) << "one record for the interrupted phase";
  EXPECT_EQ(planner.recorded().phases[0].steps, 30);
}

TEST(BarrierPlanner, AnEventDueAtAPhaseBoundaryAppliesBeforeTheNextLeg) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule::step_switched({{Protocol::kBsp, 15}, {Protocol::kAsp, 0}});
  cfg.elastic.plan = MembershipPlan::leave(3, 15);
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;

  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.quota, 15);
  EXPECT_EQ(run_to_quota(planner), Drained::kMembership);
  ASSERT_EQ(planner.recorded().phases.size(), 1u);
  const std::span<const ThreadedMembershipStats> applied = planner.recover();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].worker, 3);
  EXPECT_EQ(applied[0].at_step, 15);

  EXPECT_EQ(seg.leg, 1u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kAsp);
  EXPECT_EQ(seg.start, 0);
  EXPECT_EQ(seg.quota, 15);
  EXPECT_EQ(planner.active().size(), 3u);
}

/// The controller config of these cases: its twin as test_controller
/// prices it, deciding at every interval.
ThreadedTrainConfig controller_config(std::int64_t interval) {
  ThreadedTrainConfig cfg = base_config();
  cfg.controller.enabled = true;
  cfg.controller.decision_interval = interval;
  cfg.controller.min_steps_between_moves = 0;
  return cfg;
}

/// Gives every alive slot `steps` steps of 4 ms, slot `slow` `factor` times
/// longer: the measurement the controller reads at the next drain.
void time_steps(BarrierPlanner& planner, std::int64_t steps, int slow, double factor) {
  for (int w : planner.active()) {
    SlotCounters& c = planner.slot(static_cast<std::size_t>(w));
    c.step_count = steps;
    c.step_seconds = static_cast<double>(steps) * 0.004 * (w == slow ? factor : 1.0);
  }
}

TEST(BarrierPlanner, ControllerLegsLastOneDecisionIntervalWithAShorterTail) {
  ThreadedTrainConfig cfg = controller_config(7);
  cfg.controller.min_steps_between_moves = 64;  // hysteresis: every decision holds
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  std::vector<std::int64_t> quotas;
  Drained drained = Drained::kArmed;
  while (drained == Drained::kArmed) {
    const Segment& seg = planner.segment();
    EXPECT_EQ(seg.start, 0);
    EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
    quotas.push_back(seg.quota);
    time_steps(planner, seg.quota, -1, 1.0);
    drained = run_to_quota(planner);
  }
  EXPECT_EQ(drained, Drained::kOver);
  EXPECT_EQ(quotas, (std::vector<std::int64_t>{7, 7, 7, 7, 2}));
  const std::vector<ControllerDecision>& decisions = planner.recorded().decisions;
  ASSERT_EQ(decisions.size(), 4u) << "no decision after the last interval";
  for (const ControllerDecision& d : decisions) EXPECT_FALSE(d.enacted) << d.reason;
  EXPECT_EQ(decisions[1].at_step, 14);
  EXPECT_EQ(decisions[1].measured.num_workers, 4u);
  EXPECT_EQ(decisions[1].measured.batch_size, 16u);
}

TEST(BarrierPlanner, AnEnactedMoveBecomesTheNextLeg) {
  ThreadedTrainConfig cfg = controller_config(10);
  cfg.compression = CompressionSpec::topk(0.1);
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  time_steps(planner, 10, 2, 8.0);  // slot 2 is an 8x straggler
  ASSERT_EQ(run_to_quota(planner), Drained::kArmed);

  // The controller is deterministic for a measurement: against an 8x
  // straggler it moves off BSP to compressed ASP.
  ASSERT_EQ(planner.recorded().decisions.size(), 1u);
  const ControllerDecision& d = planner.recorded().decisions[0];
  ASSERT_TRUE(d.enacted) << d.reason;
  EXPECT_EQ(d.at_step, 10);
  EXPECT_EQ(d.measured.straggler_worker, 2);
  EXPECT_FALSE(d.chosen.evict_straggler);
  EXPECT_EQ(d.chosen.protocol, Protocol::kAsp);
  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.leg, 1u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kAsp);
  EXPECT_EQ(seg.plan.phase.ssp_staleness_bound, 3);
  EXPECT_TRUE(seg.compress);
  EXPECT_EQ(seg.quota, 10);
  EXPECT_EQ(seg.ticket_budget, 4 * 10);
  EXPECT_EQ(seg.lr, 0.05);  // async protocols keep the base lr
}

TEST(BarrierPlanner, AnEvictionDecisionIsTheNextLegsMembershipDelta) {
  ThreadedTrainConfig cfg = controller_config(7);
  // Only BSP in the grid: eviction is the controller's one way out.
  cfg.controller.protocols = {Protocol::kBsp};
  cfg.controller.consider_eviction = true;
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  time_steps(planner, 7, 2, 12.0);
  ASSERT_EQ(run_to_quota(planner), Drained::kMembership);
  ASSERT_EQ(planner.recorded().decisions.size(), 1u);
  const ControllerDecision& d = planner.recorded().decisions[0];
  ASSERT_TRUE(d.enacted && d.chosen.evict_straggler) << d.reason;

  const std::span<const ThreadedMembershipStats> applied = planner.recover();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].kind, MembershipEventKind::kLeave);
  EXPECT_EQ(applied[0].worker, 2);
  EXPECT_EQ(applied[0].at_step, 7);
  EXPECT_EQ(applied[0].workers_after, 3u);

  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.leg, 1u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(seg.quota, 7);
  EXPECT_DOUBLE_EQ(seg.lr, 0.05 * 3);
  EXPECT_EQ(planner.active(), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(planner.leader(), 0u);
}

TEST(BarrierPlanner, AFiredEvictWatchBooksTheFlaggedWorkers) {
  ThreadedTrainConfig cfg = base_config();
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  ASSERT_NE(planner.detector(), nullptr);
  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.plan.phase.trigger, SwitchTrigger::kStepCount);
  EXPECT_EQ(seg.plan.reaction, Reaction::kLeave);

  // BSP cut the segment short for the eviction: the phase resumes after it.
  feed(*planner.detector(), 2, 1);
  EXPECT_EQ(run_to(planner, 5, true), Drained::kMembership);
  EXPECT_TRUE(planner.recorded().phases.empty());
  const std::span<const ThreadedMembershipStats> applied = planner.recover();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].worker, 1);
  EXPECT_EQ(applied[0].at_step, 5);
  EXPECT_EQ(seg.start, 5);
  EXPECT_EQ(seg.quota, 30);
  EXPECT_EQ(seg.plan.reaction, Reaction::kLeave);
  EXPECT_FALSE(planner.detector()->any_straggler()) << "the detector restarts on the new set";
}

TEST(BarrierPlanner, AFiredEvictWatchStaysDueWhenItsFlagsCleared) {
  ThreadedTrainConfig cfg = base_config();
  cfg.protocol = Protocol::kSsp;
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  feed(*planner.detector(), 2, -1);
  EXPECT_EQ(run_to(planner, 6, true), Drained::kMembership);
  EXPECT_TRUE(planner.recover().empty());
  EXPECT_EQ(planner.segment().start, 6);
}

TEST(BarrierPlanner, WatchFiredReadsTheDetectorForEachWatch) {
  StragglerDetector detector = detector_flagging(-1);
  ASSERT_FALSE(detector.any_straggler());
  EXPECT_FALSE(detector_fires(SwitchTrigger::kStepCount, Reaction::kNone, detector));
  EXPECT_FALSE(detector_fires(SwitchTrigger::kStragglerDetected, Reaction::kNone, detector));
  EXPECT_TRUE(detector_fires(SwitchTrigger::kStragglerCleared, Reaction::kNone, detector));
  EXPECT_FALSE(detector_fires(SwitchTrigger::kStepCount, Reaction::kLeave, detector));

  feed(detector, 2, 1);
  ASSERT_TRUE(detector.any_straggler());
  EXPECT_FALSE(detector_fires(SwitchTrigger::kStepCount, Reaction::kNone, detector));
  EXPECT_TRUE(detector_fires(SwitchTrigger::kStragglerDetected, Reaction::kNone, detector));
  EXPECT_FALSE(detector_fires(SwitchTrigger::kStragglerCleared, Reaction::kNone, detector));
  EXPECT_TRUE(detector_fires(SwitchTrigger::kStepCount, Reaction::kLeave, detector));
}

TEST(BarrierPlanner, RejectsSourcesThatDoNotCompose) {
  ThreadedTrainConfig cfg = base_config();
  cfg.controller.enabled = true;
  cfg.schedule = SwitchSchedule::bsp_to_asp(10);
  EXPECT_THROW(Rig{cfg}, ConfigError);
  cfg.schedule = SwitchSchedule{};
  cfg.elastic.plan = MembershipPlan::leave(1, 5);
  EXPECT_THROW(Rig{cfg}, ConfigError);

  ThreadedTrainConfig reactive = base_config();
  reactive.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);
  reactive.elastic.plan = MembershipPlan::reactive_evict();
  EXPECT_THROW(Rig{reactive}, ConfigError);

  ThreadedTrainConfig sim_only = base_config();
  sim_only.protocol = Protocol::kDssp;
  EXPECT_THROW(Rig{sim_only}, ConfigError);
}

// ---------------------------------------------------------------------------
// Whole drain transitions on the fake clock.
// ---------------------------------------------------------------------------

TEST(BarrierPlanner, ADrainRecordsThePhaseFromTheSlotCountersAndTheClock) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule::bsp_to_asp(10);
  std::vector<std::pair<std::int64_t, double>> evals;
  cfg.eval_hook = [&](std::int64_t step, double wall, std::span<const float> params) {
    EXPECT_EQ(params.size(), 250u);
    evals.emplace_back(step, wall);
  };
  Rig rig(cfg, 5.0);  // the runtime's setup is charged to no phase and no eval
  BarrierPlanner& planner = rig.planner;

  // BSP: 10 rounds over 2 s, 4 bytes pushed by each worker.
  for (int w : planner.active()) planner.slot(static_cast<std::size_t>(w)).push_bytes = 4;
  advance_clock(2.0);
  EXPECT_EQ(run_to(planner, 10, false, 10), Drained::kArmed);

  // ASP: 80 tickets over 4 s, with staleness, a clock gap and bytes pushed.
  const Segment& seg = planner.segment();
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kAsp);
  EXPECT_EQ(seg.ticket_budget, 80);
  EXPECT_EQ(planner.slot(0).push_bytes, 0) << "the drain reset the counters";
  planner.slot(0).staleness_sum = 100;
  planner.slot(3).staleness_sum = 60;
  planner.slot(1).max_gap = 5;
  planner.slot(2).max_gap = 7;
  planner.slot(2).push_bytes = 300;
  advance_clock(4.0);
  EXPECT_EQ(run_to(planner, 20, false, 90), Drained::kOver);

  const ThreadedTrainResult& rec = planner.recorded();
  ASSERT_EQ(rec.phases.size(), 2u);
  const ThreadedPhaseStats& bsp = rec.phases[0];
  EXPECT_EQ(bsp.updates, 10);
  EXPECT_EQ(bsp.push_bytes, 16);
  EXPECT_EQ(bsp.max_clock_gap, 0);
  EXPECT_EQ(bsp.mean_staleness, 0.0);
  EXPECT_DOUBLE_EQ(bsp.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(bsp.updates_per_sec, 5.0);
  const ThreadedPhaseStats& asp = rec.phases[1];
  EXPECT_EQ(asp.start_step, 10);
  EXPECT_EQ(asp.steps, 20);
  EXPECT_EQ(asp.updates, 80);
  EXPECT_EQ(asp.push_bytes, 300);
  EXPECT_EQ(asp.max_clock_gap, 7);
  EXPECT_DOUBLE_EQ(asp.mean_staleness, 2.0);
  EXPECT_DOUBLE_EQ(asp.wall_seconds, 4.0);
  EXPECT_DOUBLE_EQ(asp.updates_per_sec, 20.0);
  EXPECT_EQ(evals, (std::vector<std::pair<std::int64_t, double>>{{10, 2.0}, {30, 6.0}}));

  const ThreadedTrainResult result = planner.finish(90);
  EXPECT_EQ(result.total_updates, 90);
  EXPECT_EQ(result.push_bytes, 316);
  EXPECT_EQ(result.max_clock_gap, 7);
  EXPECT_DOUBLE_EQ(result.mean_staleness, 2.0) << "over the async phases only";
  EXPECT_EQ(result.snapshots_taken, 0);
  EXPECT_EQ(result.final_params, std::vector<float>(250, 0.5f));
}

TEST(BarrierPlanner, AnAspTriggerEndsOnWholeStepsOfItsTickets) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule({{Protocol::kAsp, SwitchTrigger::kStragglerDetected, 0, -1},
                                 {Protocol::kBsp, SwitchTrigger::kStepCount, 0, -1}});
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  Segment& seg = planner.segment();
  seg.tickets = 10;
  const std::optional<Segment> latched = planner.latch();
  ASSERT_TRUE(latched.has_value());
  EXPECT_EQ(latched->ticket_budget, 12) << "rounded up to 3 steps of 4 workers";
  EXPECT_EQ(seg.ticket_budget, 12);
  EXPECT_FALSE(planner.latch()) << "latched once";
  seg.tickets = 12;
  EXPECT_EQ(planner.drain(12), Drained::kArmed);
  ASSERT_EQ(planner.recorded().phases.size(), 1u);
  EXPECT_EQ(planner.recorded().phases[0].steps, 3);
  EXPECT_TRUE(planner.recorded().phases[0].ended_by_trigger);
  EXPECT_EQ(planner.done(), 3);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(seg.quota, 27);
  EXPECT_EQ(seg.tickets, 0);
  EXPECT_FALSE(seg.fired);
}

TEST(BarrierPlanner, ALatchLowersAnSspQuotaAndKeepsAnAspReactionsBudget) {
  ThreadedTrainConfig ssp_cfg = base_config();
  ssp_cfg.protocol = Protocol::kSsp;
  Rig ssp(ssp_cfg);
  ASSERT_EQ(ssp.planner.segment().quota, 30);
  ssp.planner.clock(2) = 6;
  ASSERT_TRUE(ssp.planner.latch());
  EXPECT_EQ(ssp.planner.segment().quota, 7) << "the fastest clock plus one";
  EXPECT_TRUE(ssp.planner.segment().fired);

  ThreadedTrainConfig leave_cfg = base_config();  // ASP legs watching for a kLeave reaction
  leave_cfg.protocol = Protocol::kAsp;
  leave_cfg.elastic.plan = MembershipPlan::reactive_evict();
  Rig leave(leave_cfg);
  Segment& seg = leave.planner.segment();
  ASSERT_EQ(seg.plan.phase.trigger, SwitchTrigger::kStepCount);
  ASSERT_EQ(seg.plan.reaction, Reaction::kLeave);
  ASSERT_EQ(seg.ticket_budget, 120);
  seg.tickets = 10;
  EXPECT_TRUE(leave.planner.latch());
  EXPECT_EQ(seg.ticket_budget, 120) << "the flagged worker leaves at the segment's drain";
}

TEST(BarrierPlanner, ACrashRestoresTheFloorAndChargesTheLossOnce) {
  ThreadedTrainConfig cfg = base_config();
  cfg.elastic.plan = MembershipPlan({{MembershipEventKind::kCrash, 1, 8},
                                     {MembershipEventKind::kCrash, 2, 8}});
  cfg.elastic.snapshot_interval = 0;
  ASSERT_TRUE(cfg.elastic.takes_snapshots());
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  rig.snapshots.snapshot_now();  // the run-start floor, at 0 updates

  // Eight BSP rounds move the parameters off the floor.
  const std::vector<std::int64_t> versions = pull(rig.ps).versions;
  for (int round = 0; round < 8; ++round)
    rig.ps.push(std::vector<float>(250, 1.0f), 0.1, versions);
  rig.updates = 8;
  ASSERT_NE(rig.ps.snapshot(), std::vector<float>(250, 0.5f));
  EXPECT_EQ(run_to(planner, 8, false, 8), Drained::kMembership);

  const std::span<const ThreadedMembershipStats> applied = planner.recover();
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0].kind, MembershipEventKind::kCrash);
  EXPECT_EQ(applied[0].updates_lost, 8) << "every update since the floor";
  EXPECT_EQ(applied[1].updates_lost, 0) << "one restore per pass, charged once";
  EXPECT_EQ(applied[1].workers_after, 2u);
  const Pulled resumed = pull(rig.ps);
  EXPECT_EQ(resumed.params, std::vector<float>(250, 0.5f))
      << "the resumed segment's first pull reads the restored state";
  EXPECT_GE(resumed.versions, versions) << "versions never roll back";
  EXPECT_EQ(planner.active(), (std::vector<int>{0, 3}));
  EXPECT_EQ(planner.leader(), 0u);
  EXPECT_EQ(planner.segment().ticket_budget, 2 * 22);

  EXPECT_EQ(run_to_quota(planner), Drained::kOver);
  const ThreadedTrainResult result = planner.finish(30);
  ASSERT_EQ(result.membership.size(), 2u);
  EXPECT_EQ(result.snapshots_taken, 1);
}

TEST(BarrierPlanner, KeepLiveCrashesRestoreNothing) {
  ThreadedTrainConfig cfg = base_config();
  cfg.elastic.plan = MembershipPlan::crash(1, 8);
  cfg.elastic.recovery = RecoveryMode::kKeepLive;
  ASSERT_FALSE(cfg.elastic.takes_snapshots());
  Rig rig(cfg);
  rig.snapshots.snapshot_now();
  rig.ps.push(std::vector<float>(250, 1.0f), 0.1, pull(rig.ps).versions);
  const std::vector<float> live = rig.ps.snapshot();
  EXPECT_EQ(run_to(rig.planner, 8, false, 8), Drained::kMembership);
  const std::span<const ThreadedMembershipStats> applied = rig.planner.recover();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].updates_lost, 0);
  EXPECT_EQ(rig.ps.snapshot(), live);
}

/// Long enough for a waiter that would not park to have returned.
constexpr std::chrono::milliseconds kParks{50};
/// Long enough for a woken waiter to return, even on a loaded host.
constexpr std::chrono::seconds kWakes{10};

TEST(BarrierPlanner, AnSspAdmitParksWhileItsSlotIsTheBoundAheadOfTheLaggard) {
  ThreadedTrainConfig cfg = base_config();
  cfg.protocol = Protocol::kSsp;  // bound 3
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  planner.clock(0) = 4;
  planner.clock(1) = planner.clock(2) = 1;
  planner.clock(3) = 0;  // the laggard
  EXPECT_TRUE(planner.admit(1)) << "one step ahead of the laggard";
  std::future<bool> ahead = std::async(std::launch::async, [&] { return planner.admit(0); });
  EXPECT_EQ(ahead.wait_for(kParks), std::future_status::timeout) << "4 ahead of a bound of 3";
  planner.stepped(3);
  const bool woke = ahead.wait_for(kWakes) == std::future_status::ready;
  EXPECT_TRUE(woke) << "the laggard's step brings slot 0 within the bound";
  if (!woke) planner.abort();  // releases the waiter
  EXPECT_TRUE(ahead.get());
  EXPECT_EQ(planner.clock(3), 1);
  EXPECT_EQ(planner.slot(0).max_gap, 3) << "the gap at the admitted step";
  EXPECT_EQ(planner.slot(1).max_gap, 1);
}

TEST(BarrierPlanner, AbortFreesAParkedWaiterAndTheNextDrainRecordsNothing) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule({{Protocol::kSsp, SwitchTrigger::kStepCount, 10, -1},
                                 {Protocol::kBsp, SwitchTrigger::kStepCount, 0, -1}});
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  planner.clock(0) = 4;  // one past the bound of 3 ahead of every peer
  std::future<bool> parked = std::async(std::launch::async, [&] { return planner.admit(0); });
  EXPECT_EQ(parked.wait_for(kParks), std::future_status::timeout);
  planner.abort();
  const bool woke = parked.wait_for(kWakes) == std::future_status::ready;
  EXPECT_TRUE(woke) << "abort wakes the waiter";
  if (!woke) planner.stepped(1);  // its notify releases the waiter
  EXPECT_FALSE(parked.get()) << "an aborted run admits nothing";
  EXPECT_TRUE(planner.failed());
  EXPECT_FALSE(planner.admit(1));

  // Drained normally, these clocks would finish the SSP phase and arm BSP.
  for (int w : planner.active()) planner.clock(static_cast<std::size_t>(w)) = 10;
  EXPECT_EQ(planner.drain(40), Drained::kOver);
  EXPECT_TRUE(planner.recorded().phases.empty());
  EXPECT_EQ(planner.segment().plan.phase.protocol, Protocol::kSsp) << "nothing re-armed";
}

TEST(BarrierPlanner, AnAspAdmitGrantsExactlyTheTicketBudgetThenRefuses) {
  ThreadedTrainConfig cfg = base_config();
  cfg.protocol = Protocol::kAsp;
  Rig rig(cfg);
  BarrierPlanner& planner = rig.planner;
  const Segment& seg = planner.segment();
  ASSERT_EQ(seg.ticket_budget, 4 * 30);
  // Slot 0 draws every ticket while its peers never step.
  std::int64_t granted = 0;
  while (granted < 1000 && planner.admit(0)) {
    planner.stepped(0);
    ++granted;
  }
  EXPECT_EQ(granted, 4 * 30);
  EXPECT_EQ(seg.tickets, 4 * 30);
  EXPECT_FALSE(planner.admit(1)) << "no ticket is left for any slot";
  EXPECT_EQ(planner.slot(0).max_gap, 4 * 30 - 1) << "slot 0's gap at its last step start";
  EXPECT_EQ(planner.drain(4 * 30), Drained::kOver);
  ASSERT_EQ(planner.recorded().phases.size(), 1u);
  EXPECT_EQ(planner.recorded().phases[0].steps, 30) << "the tickets over 4 workers";
  EXPECT_EQ(planner.recorded().phases[0].max_clock_gap, 4 * 30 - 1);
}

}  // namespace
}  // namespace ss
