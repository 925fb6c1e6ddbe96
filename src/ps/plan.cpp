#include "ps/plan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace ss {

std::string online_policy_name(OnlinePolicy p) {
  switch (p) {
    case OnlinePolicy::kNone:
      return "Baseline";
    case OnlinePolicy::kGreedy:
      return "Greedy";
    case OnlinePolicy::kElastic:
      return "Elastic";
    case OnlinePolicy::kReplace:
      return "Replace";
  }
  return "?";
}

SyncSwitchPolicy SyncSwitchPolicy::pure(Protocol p) {
  return {.first = p, .second = p, .switch_fraction = 1.0};
}

SyncSwitchPolicy SyncSwitchPolicy::bsp_to_asp(double fraction) {
  return {.first = Protocol::kBsp, .second = Protocol::kAsp, .switch_fraction = fraction};
}

SyncSwitchPolicy SyncSwitchPolicy::asp_to_bsp(double fraction) {
  return {.first = Protocol::kAsp, .second = Protocol::kBsp, .switch_fraction = fraction};
}

void check_plan(const SyncSwitchPolicy& policy, const MembershipPlan& membership) {
  if (membership.empty()) return;
  if (policy.online != OnlinePolicy::kNone)
    throw ConfigError("plan: an elastic membership plan and an online straggler policy both "
                      "manipulate the active worker set; pick one");
  if (membership.reactive() && policy.schedule.has_reactive_trigger())
    throw ConfigError("plan: reactive membership and reactive switch triggers cannot share "
                      "one straggler detector; pick one");
}

std::vector<PlanLeg> lower_plan(const SyncSwitchPolicy& p, std::int64_t total,
                                const MembershipPlan& membership, bool has_stragglers) {
  check_plan(p, membership);
  const std::int64_t first_budget = std::llround(p.switch_fraction * static_cast<double>(total));
  constexpr SwitchTrigger kSteps = SwitchTrigger::kStepCount;
  std::vector<PlanLeg> legs;
  if (!p.schedule.empty()) {
    for (const SwitchPhase& ph : p.schedule.phases())
      legs.push_back({ph, legs.empty() ? MomentumPolicy::kBaseline : p.momentum_policy});
  } else if (first_budget > 0 && first_budget < total) {
    legs = {{.phase = {p.first, kSteps, first_budget, -1}}, {.phase = {p.second, kSteps, 0, -1}}};
  } else {
    legs = {{.phase = {first_budget >= total ? p.first : p.second, kSteps, 0, -1}}};
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    legs[i].next = legs[i].on_trigger = i + 1;
    if (membership.reactive()) legs[i].reaction = Reaction::kLeave;
  }
  const OnlinePolicy online = p.schedule.empty() && has_stragglers ? p.online : OnlinePolicy::kNone;
  if (online == OnlinePolicy::kGreedy && first_budget > 0) {
    legs = {{.phase = {p.first, SwitchTrigger::kStragglerDetected, first_budget, -1},
             .next = 2, .on_trigger = 1},
            {.phase = {p.second, SwitchTrigger::kStragglerCleared, 0, -1},
             .next = 2, .on_trigger = 0},
            {.phase = {p.second, kSteps, 0, -1}, .next = 3, .on_trigger = 3}};
  } else if (online == OnlinePolicy::kElastic && first_budget > 0) {
    legs.front().reaction = Reaction::kEvict;
  } else if (online == OnlinePolicy::kReplace) {
    for (PlanLeg& leg : legs) leg.reaction = Reaction::kReplace;
  }
  for (PlanLeg& leg : legs) {
    if (p.schedule.empty() && (leg.phase.protocol != p.first || p.switch_fraction <= 0.0))
      leg.momentum = p.momentum_policy;
    int& bound = leg.phase.ssp_staleness_bound;
    if (bound < 0) bound = p.ssp_staleness_bound;
    if (bound < 0 && reads_staleness_bound(leg.phase.protocol))
      throw ConfigError("plan: negative staleness bound " + std::to_string(bound) + " for " +
                        protocol_name(leg.phase.protocol));
  }
  return legs;
}

std::vector<int> PlanCursor::react(const std::vector<int>& active,
                                   const std::vector<int>& flagged) {
  const Reaction reaction = leg().reaction;
  if (reaction == Reaction::kLeave) return flagged;
  std::vector<int> out;
  for (int w : active)
    if (std::find(flagged.begin(), flagged.end(), w) != flagged.end()) out.push_back(w);
  if (reaction == Reaction::kNone || active.size() - out.size() < 2) out.clear();
  if (reaction == Reaction::kEvict) evicted_.insert(evicted_.end(), out.begin(), out.end());
  return out;
}

std::vector<int> PlanCursor::finish(bool triggered) {
  const PlanLeg& leg = this->leg();
  const bool quota_left = leg.phase.steps == 0 || spent_[leg_] < leg.phase.steps;
  leg_ = triggered && quota_left ? leg.on_trigger : leg.next;
  visit_start_ = progress_;
  return std::exchange(evicted_, {});
}

void PlanCursor::append(PlanLeg leg) {
  leg.next = leg.on_trigger = legs_.size() + 1;
  legs_.push_back(leg);
  spent_.push_back(0);
}

}  // namespace ss
