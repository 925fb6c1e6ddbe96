// The one lowering from a Sync-Switch policy to plan legs (ps/plan.h), as a
// table of source -> legs and edges.  Both runtimes walk exactly these legs:
// the sim session in virtual time, the threaded BarrierPlanner in segments.
#include "ps/plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"

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

}  // namespace
}  // namespace ss
