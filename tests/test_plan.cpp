// The one lowering from a Sync-Switch policy to plan legs (ps/plan.h), as a
// table of source -> legs and edges, and the one cursor that walks them.
// Both runtimes walk exactly these legs through a PlanCursor: the sim
// session in virtual time, the threaded BarrierPlanner in segments.
#include "ps/plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "determinism_corpus.h"

namespace ss {
namespace {

constexpr SwitchTrigger kSteps = SwitchTrigger::kStepCount;
constexpr SwitchTrigger kDetected = SwitchTrigger::kStragglerDetected;
constexpr SwitchTrigger kCleared = SwitchTrigger::kStragglerCleared;
constexpr MomentumPolicy kBase = MomentumPolicy::kBaseline;
constexpr MomentumPolicy kZero = MomentumPolicy::kZero;

/// Every field of one expected leg, in PlanLeg order.
struct Want {
  Protocol protocol;
  SwitchTrigger trigger;
  std::int64_t steps;
  int bound;
  MomentumPolicy momentum;
  Reaction reaction;
  std::size_t next;
  std::size_t on_trigger;
};

struct Row {
  std::string name;
  SyncSwitchPolicy policy;
  std::int64_t total = 160;
  MembershipPlan membership;
  bool has_stragglers = false;
  std::vector<Want> legs;
};

/// The offline BSP -> ASP plan with the zero-momentum ablation, so the
/// table shows which legs take it.
SyncSwitchPolicy hybrid(double fraction, OnlinePolicy online = OnlinePolicy::kNone) {
  SyncSwitchPolicy p = SyncSwitchPolicy::bsp_to_asp(fraction);
  p.momentum_policy = kZero;
  p.online = online;
  return p;
}

SyncSwitchPolicy scheduled(SwitchSchedule schedule, OnlinePolicy online = OnlinePolicy::kNone) {
  SyncSwitchPolicy p = hybrid(0.5, online);
  p.schedule = std::move(schedule);
  return p;
}

const SwitchSchedule kSchedule({{Protocol::kBsp, kSteps, 10, -1},
                                {Protocol::kAsp, kDetected, 0, -1},
                                {Protocol::kSsp, kSteps, 0, 5}});

std::vector<Row> table() {
  using enum Protocol;
  using enum Reaction;
  const std::vector<Want> offline = {{kBsp, kSteps, 10, 3, kBase, kNone, 1, 1},
                                     {kAsp, kSteps, 0, 3, kZero, kNone, 2, 2}};
  return {
      {"fixed protocol", SyncSwitchPolicy::pure(kSsp), 160, {}, false,
       {{kSsp, kSteps, 0, 3, kBase, kNone, 1, 1}}},
      {"offline at fraction 0", hybrid(0.0), 160, {}, false,
       {{kAsp, kSteps, 0, 3, kZero, kNone, 1, 1}}},
      {"offline at fraction 1", hybrid(1.0), 160, {}, false,
       {{kBsp, kSteps, 0, 3, kBase, kNone, 1, 1}}},
      {"offline at fraction 1/16", hybrid(1.0 / 16), 160, {}, false, offline},
      {"schedule verbatim, momentum after the first leg", scheduled(kSchedule), 160, {}, false,
       {{kBsp, kSteps, 10, 3, kBase, kNone, 1, 1},
        {kAsp, kDetected, 0, 3, kZero, kNone, 2, 2},
        {kSsp, kSteps, 0, 5, kZero, kNone, 3, 3}}},
      {"greedy cycles first -> second -> first", hybrid(1.0 / 16, OnlinePolicy::kGreedy), 160,
       {}, true,
       {{kBsp, kDetected, 10, 3, kBase, kNone, 2, 1},
        {kAsp, kCleared, 0, 3, kZero, kNone, 2, 0},
        {kAsp, kSteps, 0, 3, kZero, kNone, 3, 3}}},
      {"elastic evicts on the first leg", hybrid(1.0 / 16, OnlinePolicy::kElastic), 160, {},
       true,
       {{kBsp, kSteps, 10, 3, kBase, kEvict, 1, 1}, {kAsp, kSteps, 0, 3, kZero, kNone, 2, 2}}},
      {"replace on every leg", hybrid(1.0 / 16, OnlinePolicy::kReplace), 160, {}, true,
       {{kBsp, kSteps, 10, 3, kBase, kReplace, 1, 1},
        {kAsp, kSteps, 0, 3, kZero, kReplace, 2, 2}}},
      {"reactive membership leaves on every leg", hybrid(1.0 / 16), 160,
       MembershipPlan::reactive_evict(), false,
       {{kBsp, kSteps, 10, 3, kBase, kLeave, 1, 1}, {kAsp, kSteps, 0, 3, kZero, kLeave, 2, 2}}},
      {"online policy ignored without stragglers", hybrid(1.0 / 16, OnlinePolicy::kGreedy), 160,
       {}, false, offline},
      {"online policy ignored under a schedule", scheduled(kSchedule, OnlinePolicy::kReplace),
       160, {}, true,
       {{kBsp, kSteps, 10, 3, kBase, kNone, 1, 1},
        {kAsp, kDetected, 0, 3, kZero, kNone, 2, 2},
        {kSsp, kSteps, 0, 5, kZero, kNone, 3, 3}}},
      {"greedy needs a first-protocol quota", hybrid(0.0, OnlinePolicy::kGreedy), 160, {}, true,
       {{kAsp, kSteps, 0, 3, kZero, kNone, 1, 1}}},
  };
}

TEST(Plan, LowersEverySourceOntoLegsAndEdges) {
  for (const Row& row : table()) {
    SCOPED_TRACE(row.name);
    const std::vector<PlanLeg> legs =
        lower_plan(row.policy, row.total, row.membership, row.has_stragglers);
    ASSERT_EQ(legs.size(), row.legs.size());
    for (std::size_t i = 0; i < legs.size(); ++i) {
      SCOPED_TRACE("leg " + std::to_string(i));
      const PlanLeg& got = legs[i];
      const Want& want = row.legs[i];
      EXPECT_EQ(got.phase.protocol, want.protocol);
      EXPECT_EQ(got.phase.trigger, want.trigger);
      EXPECT_EQ(got.phase.steps, want.steps);
      EXPECT_EQ(got.phase.ssp_staleness_bound, want.bound);
      EXPECT_EQ(got.momentum, want.momentum);
      EXPECT_EQ(got.reaction, want.reaction);
      EXPECT_EQ(got.next, want.next);
      EXPECT_EQ(got.on_trigger, want.on_trigger);
    }
  }
}

TEST(Plan, RejectsANegativeResolvedBoundOnlyWhereAProtocolReadsIt) {
  SyncSwitchPolicy p = SyncSwitchPolicy::pure(Protocol::kSsp);
  p.ssp_staleness_bound = -1;
  EXPECT_THROW((void)lower_plan(p, 100, {}, false), ConfigError);
  p = SyncSwitchPolicy::pure(Protocol::kDssp);
  p.ssp_staleness_bound = -1;
  EXPECT_THROW((void)lower_plan(p, 100, {}, false), ConfigError);
  p.schedule =
      SwitchSchedule({{Protocol::kBsp, kSteps, 10, -1}, {Protocol::kSsp, kSteps, 0, -1}});
  EXPECT_THROW((void)lower_plan(p, 100, {}, false), ConfigError);

  // A leg's own bound wins over the negative default, and a protocol that
  // reads no bound keeps the default as it is.
  p.schedule =
      SwitchSchedule({{Protocol::kBsp, kSteps, 10, -1}, {Protocol::kSsp, kSteps, 0, 2}});
  const std::vector<PlanLeg> legs = lower_plan(p, 100, {}, false);
  EXPECT_EQ(legs[0].phase.ssp_staleness_bound, -1);
  EXPECT_EQ(legs[1].phase.ssp_staleness_bound, 2);
  // SSP first with no quota never runs, so its bound is never read.
  p = SyncSwitchPolicy::pure(Protocol::kAsp);
  p.first = Protocol::kSsp;
  p.switch_fraction = 0.0;
  p.ssp_staleness_bound = -1;
  EXPECT_EQ(lower_plan(p, 100, {}, false).size(), 1u);
}

TEST(Plan, RejectsSourcesThatShareTheWorkerSetOrTheDetector) {
  SyncSwitchPolicy online = hybrid(1.0 / 16, OnlinePolicy::kElastic);
  EXPECT_THROW(check_plan(online, MembershipPlan::leave(1, 5)), ConfigError);
  EXPECT_THROW((void)lower_plan(online, 160, MembershipPlan::leave(1, 5), true), ConfigError);
  EXPECT_NO_THROW(check_plan(online, {}));

  const SyncSwitchPolicy reactive =
      scheduled(SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp));
  EXPECT_THROW(check_plan(reactive, MembershipPlan::reactive_evict()), ConfigError);
  EXPECT_NO_THROW(check_plan(reactive, MembershipPlan::leave(1, 5)));
  EXPECT_NO_THROW(check_plan(scheduled(kSchedule), {}));
}

TEST(Plan, ALegReadsTheDetectorWhenItHasATriggerOrAReaction) {
  EXPECT_FALSE(reads_detector(kSteps, Reaction::kNone));
  EXPECT_TRUE(reads_detector(kDetected, Reaction::kNone));
  EXPECT_TRUE(reads_detector(kCleared, Reaction::kNone));
  for (Reaction r : {Reaction::kLeave, Reaction::kEvict, Reaction::kReplace})
    EXPECT_TRUE(reads_detector(kSteps, r));
}

// ---------------------------------------------------------------------------
// PlanCursor with no runtime: the walk, the quota carry and each reaction's
// membership delta, driven by hand.
// ---------------------------------------------------------------------------

TEST(PlanCursor, GreedysBackEdgeCarriesTheFirstLegsQuotaAcrossTheRevisit) {
  PlanCursor c(lower_plan(hybrid(1.0 / 16, OnlinePolicy::kGreedy), 160, {}, true), 160);
  ASSERT_EQ(c.index(), 0u);
  EXPECT_EQ(c.visit_end(), 10);
  c.advance_to(4);  // detected after 4 of the 10 BSP steps
  EXPECT_TRUE(c.finish(true).empty());
  EXPECT_EQ(c.index(), 1u);
  EXPECT_EQ(c.visit_start(), 4);
  EXPECT_EQ(c.visit_end(), 160) << "the cleared leg has no quota";
  c.advance_to(50);
  c.finish(true);  // cleared: back to BSP
  EXPECT_EQ(c.index(), 0u);
  EXPECT_EQ(c.visit_end(), 56) << "6 BSP steps were left from the first visit";
  c.advance_to(56);
  c.finish(false);
  EXPECT_EQ(c.index(), 2u);
  EXPECT_EQ(c.visit_end(), 160);
  EXPECT_FALSE(c.done());
}

TEST(PlanCursor, ATriggerOnAVisitsLastStepFollowsNext) {
  PlanCursor c(lower_plan(hybrid(1.0 / 16, OnlinePolicy::kGreedy), 160, {}, true), 160);
  c.advance_to(10);
  c.finish(true);
  EXPECT_EQ(c.index(), 2u) << "no quota left, so the trigger takes `next`, not `on_trigger`";

  // The same on a revisit: the carried quota runs out on the trigger's step.
  PlanCursor r(lower_plan(hybrid(1.0 / 16, OnlinePolicy::kGreedy), 160, {}, true), 160);
  r.advance_to(3);
  r.finish(true);
  r.advance_to(20);
  r.finish(true);
  ASSERT_EQ(r.index(), 0u);
  r.advance_to(r.visit_end());
  r.finish(true);
  EXPECT_EQ(r.index(), 2u);
}

TEST(PlanCursor, ElasticEvictsEveryFlaggedActiveSlotOrNoneAndKeepsTwo) {
  PlanCursor c(lower_plan(hybrid(1.0 / 16, OnlinePolicy::kElastic), 160, {}, true), 160);
  ASSERT_EQ(c.leg().reaction, Reaction::kEvict);
  const std::vector<int> four = {0, 1, 2, 3};
  EXPECT_EQ(c.react(four, {2}), (std::vector<int>{2}));
  EXPECT_EQ(c.react(four, {3, 1, 7}), (std::vector<int>{1, 3})) << "inactive flags are ignored";
  EXPECT_TRUE(c.react(four, {1, 2, 3}).empty()) << "all or none: one slot would remain";
  EXPECT_TRUE(c.react({0, 1}, {1}).empty()) << "never below two";
  EXPECT_TRUE(c.react({0, 1, 2}, {}).empty());
  EXPECT_EQ(c.react({0, 1, 2}, {0}), (std::vector<int>{0}));
}

TEST(PlanCursor, KEvictsSlotsReturnWhenItsLegEnds) {
  PlanCursor c(lower_plan(hybrid(1.0 / 16, OnlinePolicy::kElastic), 160, {}, true), 160);
  EXPECT_EQ(c.react({0, 1, 2, 3}, {1}), (std::vector<int>{1}));
  EXPECT_EQ(c.react({0, 2, 3}, {3}), (std::vector<int>{3}));
  c.advance_to(10);
  EXPECT_EQ(c.finish(false), (std::vector<int>{1, 3}));
  ASSERT_EQ(c.index(), 1u);
  EXPECT_EQ(c.leg().reaction, Reaction::kNone);
  EXPECT_TRUE(c.react({0, 1, 2, 3}, {1}).empty()) << "a leg without a reaction evicts no one";
  c.advance_to(160);
  EXPECT_TRUE(c.finish(false).empty());
  EXPECT_TRUE(c.done());
}

TEST(PlanCursor, ReplaceMarksItsSlotsAndLeaveHandsTheFlagsOnAsTheyAre) {
  PlanCursor replace(lower_plan(hybrid(1.0 / 16, OnlinePolicy::kReplace), 160, {}, true), 160);
  EXPECT_EQ(replace.react({0, 1, 2, 3}, {2}), (std::vector<int>{2}));
  EXPECT_TRUE(replace.react({0, 1}, {0}).empty()) << "never below two";
  replace.advance_to(10);
  EXPECT_TRUE(replace.finish(false).empty()) << "a replaced slot returns only once provisioned";
  EXPECT_EQ(replace.react({0, 1, 3}, {3}), (std::vector<int>{3})) << "every leg replaces";

  PlanCursor leave(lower_plan(hybrid(1.0 / 16), 160, MembershipPlan::reactive_evict(), false),
                   160);
  ASSERT_EQ(leave.leg().reaction, Reaction::kLeave);
  EXPECT_EQ(leave.react({0, 1}, {3, 1}), (std::vector<int>{3, 1}))
      << "the recovery coordinator clamps, not the cursor";
  leave.advance_to(10);
  EXPECT_TRUE(leave.finish(false).empty());
}

TEST(PlanCursor, AControllerLegIsAppendedWhereTheWalkSteps) {
  std::vector<PlanLeg> legs = lower_plan(SyncSwitchPolicy::pure(Protocol::kBsp), 30, {}, false);
  legs[0].phase.steps = 7;
  PlanCursor c(legs, 30);
  c.advance_to(7);
  c.finish(false);
  EXPECT_EQ(c.index(), 1u);
  EXPECT_FALSE(c.done()) << "the budget is left; the controller appends the leg";
  PlanLeg next = c.legs().back();
  next.phase.protocol = Protocol::kSsp;
  c.append(next);
  ASSERT_EQ(c.legs().size(), 2u);
  EXPECT_EQ(c.leg().phase.protocol, Protocol::kSsp);
  EXPECT_EQ(c.leg().next, 2u);
  EXPECT_EQ(c.leg().on_trigger, 2u);
  EXPECT_EQ(c.visit_start(), 7);
  EXPECT_EQ(c.visit_end(), 14);
}

TEST(PlanCursor, ThePlanEndsWhenTheBudgetIsSpent) {
  SyncSwitchPolicy p = SyncSwitchPolicy::pure(Protocol::kBsp);
  p.schedule = SwitchSchedule::bsp_to_asp(50);
  PlanCursor c(lower_plan(p, 30, {}, false), 30);
  EXPECT_EQ(c.visit_end(), 30) << "a quota longer than the run is cut to the budget";
  c.advance_to(30);
  EXPECT_TRUE(c.done());

  PlanCursor plan(lower_plan(hybrid(1.0 / 16), 160, {}, false), 160);
  plan.advance_to(10);
  plan.finish(false);
  EXPECT_FALSE(plan.done());
  EXPECT_EQ(plan.visit_end(), 160) << "the last leg runs out the budget";
  plan.advance_to(163);  // a BSP round may overshoot
  plan.finish(false);
  EXPECT_TRUE(plan.done());
  EXPECT_EQ(plan.index(), 2u);
}

// ---------------------------------------------------------------------------
// Sim runs of leg paths the determinism corpus does not reach, pinned from
// the session's own leg loop before the walk moved into PlanCursor: a
// reactive membership plan's kLeave reaction, a reactive schedule's round
// trip, and greedy's trigger firing on the last step of its quota (which
// follows `next`, so it matches the one-way reactive schedule bit for bit).
// ---------------------------------------------------------------------------

TEST(PlanWalk, SimDigestsOfLegPathsOutsideTheCorpusArePinned) {
  const SyncSwitchPolicy half = SyncSwitchPolicy::bsp_to_asp(0.5);
  RunRequest leave = online_policy_request(half, OnlinePolicy::kNone, true);
  leave.elastic.plan = MembershipPlan::reactive_evict();
  SyncSwitchPolicy round_trip = half;
  round_trip.schedule = SwitchSchedule::reactive_round_trip(Protocol::kBsp, Protocol::kAsp);
  const struct {
    const char* name;
    RunRequest request;
    int switches;
    int membership_events;
    const char* digest;
  } pins[] = {
      {"kLeave on a straggler", leave, 1, 1, "fac554127b1c80e9"},
      {"reactive round trip",
       online_policy_request(round_trip, OnlinePolicy::kNone, false), 2, 0, "f9283036b169a335"},
      {"greedy fired at its quota",
       online_policy_request(SyncSwitchPolicy::bsp_to_asp(0.125), OnlinePolicy::kGreedy, false),
       1, 0, "9f282cbed1fed5ef"},
  };
  for (const auto& p : pins) {
    SCOPED_TRACE(p.name);
    const RunResult r = TrainingSession(p.request).run();
    EXPECT_EQ(r.steps_completed, 512);
    EXPECT_EQ(r.num_switches, p.switches);
    EXPECT_EQ(r.num_membership_events, p.membership_events);
    EXPECT_EQ(result_fingerprint(r), p.digest);
  }
}

}  // namespace
}  // namespace ss
