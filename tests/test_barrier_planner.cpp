// BarrierPlanner without threads: the segments it lowers a config onto, its
// lr rule, the elastic cap, controller legs and membership deltas, and the
// detector watches.  The threaded suites exercise the same decisions on real
// threads; here each one is driven step by step through next()/drain().
#include "ps/barrier_planner.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/error.h"

namespace ss {
namespace {

ThreadedTrainConfig base_config() {
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 30;
  cfg.lr = 0.05;
  cfg.ssp_staleness_bound = 3;
  return cfg;
}

/// Feeds `windows` full detection windows of 4 workers; `slow` (if >= 0)
/// takes 4x longer per step.
void feed(StragglerDetector& d, int windows, int slow) {
  for (int rep = 0; rep < windows * 4; ++rep)
    for (int w = 0; w < 4; ++w) d.observe(w, 64, VTime::from_seconds(w == slow ? 0.4 : 0.1));
}

/// A detector flagging worker `slow`, or nothing when `slow` < 0.
StragglerDetector detector_flagging(int slow) {
  DetectorConfig dc;
  dc.window_size = 4;
  dc.consecutive_required = 2;
  StragglerDetector d(4, dc);
  feed(d, 2, slow);
  return d;
}

/// Runs the segment from next() to its quota; returns whether the phase
/// completed.
bool run_to_quota(BarrierPlanner& planner, const Segment& seg) {
  return planner.drain(seg.quota, false, detector_flagging(-1)).has_value();
}

TEST(BarrierPlanner, FixedProtocolIsOneLegOverTheWholeRun) {
  const ThreadedTrainConfig cfg = base_config();
  BarrierPlanner planner(cfg);
  EXPECT_FALSE(planner.uses_detector());
  const Segment seg = planner.next();
  EXPECT_EQ(seg.leg, 0u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(seg.start, 0);
  EXPECT_EQ(seg.quota, 30);
  EXPECT_FALSE(reads_detector(seg.plan.phase.trigger, seg.plan.reaction));
  EXPECT_FALSE(seg.compress);
  EXPECT_TRUE(run_to_quota(planner, seg));
  EXPECT_TRUE(planner.finished());
  EXPECT_FALSE(planner.membership_due());
}

TEST(BarrierPlanner, ScheduleLegsRunVerbatimWithReactiveLegsAndTheLastLegsRemainder) {
  ThreadedTrainConfig cfg = base_config();
  cfg.compression = CompressionSpec::topk(0.1);
  cfg.schedule = SwitchSchedule({{Protocol::kBsp, SwitchTrigger::kStepCount, 10, -1},
                                 {Protocol::kAsp, SwitchTrigger::kStragglerDetected, 0, -1},
                                 {Protocol::kSsp, SwitchTrigger::kStepCount, 0, 5}});
  BarrierPlanner planner(cfg);
  EXPECT_TRUE(planner.uses_detector());

  const Segment bsp = planner.next();
  EXPECT_EQ(bsp.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(bsp.quota, 10);
  EXPECT_FALSE(reads_detector(bsp.plan.phase.trigger, bsp.plan.reaction));
  EXPECT_TRUE(bsp.compress);
  EXPECT_TRUE(run_to_quota(planner, bsp));
  EXPECT_EQ(planner.done(), 10);

  // A reactive leg runs out the budget unless its watch fires first.
  const Segment asp = planner.next();
  EXPECT_EQ(asp.leg, 1u);
  EXPECT_EQ(asp.plan.phase.protocol, Protocol::kAsp);
  EXPECT_EQ(asp.quota, 20);
  EXPECT_EQ(asp.plan.phase.trigger, SwitchTrigger::kStragglerDetected);
  EXPECT_EQ(asp.plan.reaction, Reaction::kNone);
  const std::optional<ThreadedPhaseStats> fired = planner.drain(4, true, detector_flagging(2));
  ASSERT_TRUE(fired.has_value());
  EXPECT_TRUE(fired->ended_by_trigger);
  EXPECT_EQ(fired->protocol, Protocol::kAsp);
  EXPECT_EQ(fired->start_step, 10);
  EXPECT_EQ(fired->steps, 4);
  EXPECT_FALSE(planner.membership_due()) << "a switch trigger evicts no one";
  EXPECT_EQ(planner.done(), 14);

  // The last leg runs out what is left, at its own bound.
  const Segment ssp = planner.next();
  EXPECT_EQ(ssp.leg, 2u);
  EXPECT_EQ(ssp.plan.phase.protocol, Protocol::kSsp);
  EXPECT_EQ(ssp.plan.phase.ssp_staleness_bound, 5);
  EXPECT_EQ(ssp.quota, 16);
  EXPECT_TRUE(run_to_quota(planner, ssp));
  EXPECT_TRUE(planner.finished());
}

TEST(BarrierPlanner, AStepLegLongerThanTheRunIsCutToTheBudget) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule::bsp_to_asp(50);
  BarrierPlanner planner(cfg);
  const Segment seg = planner.next();
  EXPECT_EQ(seg.quota, 30);
  EXPECT_TRUE(run_to_quota(planner, seg));
  EXPECT_TRUE(planner.finished());
}

TEST(BarrierPlanner, LrRuleMatchesEachSourceAtAChangedClusterSize) {
  ThreadedTrainConfig fixed = base_config();
  fixed.num_workers = 2;
  fixed.elastic.plan = MembershipPlan::join(10);
  {
    // Fixed protocol: the configured lr, rescaled by the policy's n / n0.
    BarrierPlanner planner(fixed);
    EXPECT_EQ(planner.next().lr, 0.05);
    EXPECT_DOUBLE_EQ(planner.lr(Protocol::kBsp, 3), 0.05 * (3.0 / 2.0));
    EXPECT_EQ(planner.lr(Protocol::kAsp, 3), 0.05);
  }
  ThreadedTrainConfig schedule = fixed;
  schedule.schedule = SwitchSchedule::bsp_to_asp(20);
  {
    // Schedule legs: the policy's lr outright, linear-scaled for BSP.
    BarrierPlanner planner(schedule);
    EXPECT_DOUBLE_EQ(planner.next().lr, 0.05 * 2);
    EXPECT_DOUBLE_EQ(planner.lr(Protocol::kBsp, 3), 0.05 * 3);
    EXPECT_EQ(planner.lr(Protocol::kAsp, 3), 0.05);
  }
  ThreadedTrainConfig controlled = base_config();
  controlled.controller.enabled = true;
  {
    BarrierPlanner planner(controlled);
    EXPECT_DOUBLE_EQ(planner.next().lr, 0.05 * 4);
    EXPECT_DOUBLE_EQ(planner.lr(Protocol::kBsp, 3), 0.05 * 3);
  }
  for (ThreadedTrainConfig* cfg : {&fixed, &schedule, &controlled}) {
    cfg->derive_phase_lr = false;
    const BarrierPlanner planner(*cfg);
    EXPECT_EQ(planner.lr(Protocol::kBsp, 3), 0.05);
    EXPECT_EQ(planner.lr(Protocol::kAsp, 1), 0.05);
  }
}

TEST(BarrierPlanner, MembershipEventsCapSegmentsAndResumeThePhase) {
  ThreadedTrainConfig cfg = base_config();
  cfg.num_workers = 2;
  cfg.elastic.plan = MembershipPlan::join(10);
  BarrierPlanner planner(cfg);

  const Segment first = planner.next();
  EXPECT_EQ(first.start, 0);
  EXPECT_EQ(first.quota, 10);
  EXPECT_FALSE(run_to_quota(planner, first)) << "the event interrupts the phase";
  EXPECT_EQ(planner.done(), 0);
  ASSERT_TRUE(planner.membership_due());
  const std::vector<AppliedMembershipEvent> applied = planner.apply_membership();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].event.kind, MembershipEventKind::kJoin);
  EXPECT_EQ(applied[0].event.worker, 2);
  EXPECT_EQ(applied[0].workers_after, 3u);
  EXPECT_FALSE(planner.membership_due());

  // The same phase resumes at the new size and lr.
  const Segment rest = planner.next();
  EXPECT_EQ(rest.leg, 0u);
  EXPECT_EQ(rest.start, 10);
  EXPECT_EQ(rest.quota, 30);
  EXPECT_DOUBLE_EQ(rest.lr, 0.05 * (3.0 / 2.0));
  EXPECT_TRUE(run_to_quota(planner, rest));
  EXPECT_EQ(planner.done(), 30);
  EXPECT_TRUE(planner.finished());
}

TEST(BarrierPlanner, AnEventDueAtAPhaseBoundaryAppliesBeforeTheNextLeg) {
  ThreadedTrainConfig cfg = base_config();
  cfg.schedule = SwitchSchedule::step_switched({{Protocol::kBsp, 15}, {Protocol::kAsp, 0}});
  cfg.elastic.plan = MembershipPlan::leave(3, 15);
  BarrierPlanner planner(cfg);

  const Segment bsp = planner.next();
  EXPECT_EQ(bsp.quota, 15);
  EXPECT_TRUE(run_to_quota(planner, bsp));
  ASSERT_TRUE(planner.membership_due());
  const std::vector<AppliedMembershipEvent> applied = planner.apply_membership();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].event.worker, 3);
  EXPECT_EQ(applied[0].event.at_step, 15);

  const Segment asp = planner.next();
  EXPECT_EQ(asp.leg, 1u);
  EXPECT_EQ(asp.plan.phase.protocol, Protocol::kAsp);
  EXPECT_EQ(asp.start, 0);
  EXPECT_EQ(asp.quota, 15);
  EXPECT_EQ(planner.membership().alive_count(), 3u);
}

TEST(BarrierPlanner, ControllerLegsLastOneDecisionIntervalWithAShorterTail) {
  ThreadedTrainConfig cfg = base_config();
  cfg.controller.enabled = true;
  cfg.controller.decision_interval = 7;
  BarrierPlanner planner(cfg);
  std::vector<std::int64_t> quotas;
  while (!planner.finished()) {
    const Segment seg = planner.next();
    EXPECT_EQ(seg.start, 0);
    EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
    quotas.push_back(seg.quota);
    ASSERT_TRUE(run_to_quota(planner, seg));
    if (!planner.finished()) planner.enact(ControllerDecision{});  // hold
  }
  EXPECT_EQ(quotas, (std::vector<std::int64_t>{7, 7, 7, 7, 2}));
  EXPECT_EQ(planner.take_decisions().size(), 4u);
}

TEST(BarrierPlanner, AnEnactedMoveBecomesTheNextLeg) {
  ThreadedTrainConfig cfg = base_config();
  cfg.compression = CompressionSpec::topk(0.1);
  cfg.controller.enabled = true;
  cfg.controller.decision_interval = 10;
  BarrierPlanner planner(cfg);
  ASSERT_TRUE(run_to_quota(planner, planner.next()));

  ControllerDecision d;
  d.enacted = true;
  d.chosen.protocol = Protocol::kSsp;
  d.chosen.ssp_staleness_bound = 2;
  d.chosen.compress = false;
  planner.enact(d);
  EXPECT_FALSE(planner.membership_due());
  const Segment seg = planner.next();
  EXPECT_EQ(seg.leg, 1u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kSsp);
  EXPECT_EQ(seg.plan.phase.ssp_staleness_bound, 2);
  EXPECT_FALSE(seg.compress);
  EXPECT_EQ(seg.quota, 10);
  EXPECT_EQ(seg.lr, 0.05);  // async protocols keep the base lr
}

TEST(BarrierPlanner, AnEvictionDecisionIsTheNextLegsMembershipDelta) {
  ThreadedTrainConfig cfg = base_config();
  cfg.controller.enabled = true;
  cfg.controller.decision_interval = 7;
  BarrierPlanner planner(cfg);
  ASSERT_TRUE(run_to_quota(planner, planner.next()));

  ControllerDecision d;
  d.enacted = true;
  d.chosen.protocol = Protocol::kAsp;  // ignored: an eviction keeps the leg
  d.chosen.evict_straggler = true;
  d.measured.straggler_worker = 2;
  planner.enact(d);
  ASSERT_TRUE(planner.membership_due());
  const std::vector<AppliedMembershipEvent> applied = planner.apply_membership();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].event.kind, MembershipEventKind::kLeave);
  EXPECT_EQ(applied[0].event.worker, 2);
  EXPECT_EQ(applied[0].event.at_step, 7);
  EXPECT_EQ(applied[0].workers_after, 3u);

  const Segment seg = planner.next();
  EXPECT_EQ(seg.leg, 1u);
  EXPECT_EQ(seg.plan.phase.protocol, Protocol::kBsp);
  EXPECT_EQ(seg.quota, 7);
  EXPECT_DOUBLE_EQ(seg.lr, 0.05 * 3);
}

TEST(BarrierPlanner, AFiredEvictWatchBooksTheFlaggedWorkers) {
  ThreadedTrainConfig cfg = base_config();
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  BarrierPlanner planner(cfg);
  EXPECT_TRUE(planner.uses_detector());
  const Segment seg = planner.next();
  EXPECT_EQ(seg.plan.phase.trigger, SwitchTrigger::kStepCount);
  EXPECT_EQ(seg.plan.reaction, Reaction::kLeave);

  // BSP cut the segment short for the eviction: the phase resumes after it.
  EXPECT_FALSE(planner.drain(5, true, detector_flagging(1)).has_value());
  ASSERT_TRUE(planner.membership_due());
  const std::vector<AppliedMembershipEvent> applied = planner.apply_membership();
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].event.worker, 1);
  EXPECT_EQ(applied[0].event.at_step, 5);
  const Segment rest = planner.next();
  EXPECT_EQ(rest.start, 5);
  EXPECT_EQ(rest.quota, 30);
  EXPECT_EQ(rest.plan.reaction, Reaction::kLeave);
}

TEST(BarrierPlanner, AFiredEvictWatchStaysDueWhenItsFlagsCleared) {
  ThreadedTrainConfig cfg = base_config();
  cfg.protocol = Protocol::kSsp;
  cfg.elastic.plan = MembershipPlan::reactive_evict();
  BarrierPlanner planner(cfg);
  (void)planner.next();
  EXPECT_FALSE(planner.drain(6, true, detector_flagging(-1)).has_value());
  ASSERT_TRUE(planner.membership_due());
  EXPECT_TRUE(planner.apply_membership().empty());
  EXPECT_EQ(planner.next().start, 6);
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
  EXPECT_THROW(BarrierPlanner{cfg}, ConfigError);
  cfg.schedule = SwitchSchedule{};
  cfg.elastic.plan = MembershipPlan::leave(1, 5);
  EXPECT_THROW(BarrierPlanner{cfg}, ConfigError);

  ThreadedTrainConfig reactive = base_config();
  reactive.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);
  reactive.elastic.plan = MembershipPlan::reactive_evict();
  EXPECT_THROW(BarrierPlanner{reactive}, ConfigError);

  ThreadedTrainConfig sim_only = base_config();
  sim_only.protocol = Protocol::kDssp;
  EXPECT_THROW(BarrierPlanner{sim_only}, ConfigError);
}

}  // namespace
}  // namespace ss
