// The plan: a Sync-Switch policy, its one lowering onto protocol legs, and
// the one cursor that walks them.
//
// Sync-Switch is one cluster manager that turns a policy into a plan of
// protocol phases: the offline timing policy (run `first` for a fraction of
// the steps, then `second`), an explicit switch schedule, or the online
// reactions to a detected straggler (Sections IV-B2 and VI-B3), with a
// membership plan alongside.  lower_plan() is the only place a policy
// becomes legs, and PlanCursor is the only walk over them.  Both runtimes
// walk the legs through a cursor and keep only their own actuation:
//
//  * the simulator session (core/session.cpp) prices each move in virtual
//    time;
//  * the threaded runtime's BarrierPlanner (ps/barrier_planner.h) cuts legs
//    into segments at drain barriers and appends the controller's legs.
//
// A leg runs one protocol until its step quota is spent or its trigger
// fires; `next` and `on_trigger` name the leg that follows, so greedy's
// first -> second -> first cycle is a back edge.  A detector flag that is
// not the leg's trigger runs the leg's reaction.  This module has no threads
// and no clock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config_policy.h"
#include "core/straggler_detector.h"
#include "elastic/membership_plan.h"
#include "ps/protocol.h"
#include "ps/switch_schedule.h"

namespace ss {

/// Online straggler-reaction policy (Section IV-B2).  kReplace extends the
/// paper: it targets *permanent* stragglers, which the paper explicitly
/// delegates to node replacement ("permanent stragglers are best dealt with
/// by requesting replacement") — detected stragglers are evicted and a
/// replacement VM is provisioned in the background (~100 s), rejoining the
/// cluster healthy once ready.
enum class OnlinePolicy { kNone, kGreedy, kElastic, kReplace };

std::string online_policy_name(OnlinePolicy p);

/// What a leg does when the straggler detector flags a worker and the flag
/// is not the leg's own trigger.
enum class Reaction {
  kNone,     ///< the leg does not watch the detector
  kLeave,    ///< reactive membership plan: flagged workers leave through the
             ///< recovery coordinator (clamped to ElasticConfig::min_workers)
  kEvict,    ///< elastic policy: evict every flagged worker or none, never
             ///< below two; the full cluster returns when the leg ends
  kReplace,  ///< replace policy: kEvict, and a fresh node takes each evicted
             ///< slot over once provisioned
};

/// One leg of a plan.  Legs run from index 0; the plan size ends the run.
struct PlanLeg {
  /// Protocol, trigger, step quota and SSP bound, the bound resolved against
  /// the policy's default.  `steps` > 0 is a quota in runtime-local steps;
  /// 0 runs out the run budget.
  SwitchPhase phase;
  MomentumPolicy momentum = MomentumPolicy::kBaseline;
  Reaction reaction = Reaction::kNone;
  std::size_t next = 0;        ///< after the quota or the run budget is spent
  std::size_t on_trigger = 0;  ///< after the trigger fires with quota left
};

/// The full Sync-Switch policy set for one job.
struct SyncSwitchPolicy {
  Protocol first = Protocol::kBsp;   ///< protocol policy: BSP first...
  Protocol second = Protocol::kAsp;  ///< ...then ASP
  double switch_fraction = 0.0625;   ///< timing policy: fraction under `first`
  /// Explicit multi-phase switch schedule.  When non-empty it replaces the
  /// two-phase (first/second/switch_fraction) plan *and* the online policy
  /// (those fields are ignored; results cannot depend on them): phases run
  /// in order with a checkpoint -> actuate -> restore switch between them.
  /// `momentum_policy` still applies — to every phase after the first, just
  /// as it applies to the post-switch protocol in the two-phase plan.
  /// Phase `steps` are global minibatch steps (the unit of
  /// Workload::total_steps); reactive triggers consume the straggler
  /// detector exactly as the online policies do.  The same schedule type
  /// drives the threaded runtime's live switching (there, steps are local
  /// steps per worker) — see ps/switch_schedule.h for the correspondence.
  SwitchSchedule schedule{};
  MomentumPolicy momentum_policy = MomentumPolicy::kBaseline;
  OnlinePolicy online = OnlinePolicy::kNone;
  DetectorConfig detector{};
  int ssp_staleness_bound = 3;
  int k_param = 0;  ///< K for the K-variant protocols (0 = cluster size)

  /// Train exclusively with `p` (the BSP / ASP baselines).
  [[nodiscard]] static SyncSwitchPolicy pure(Protocol p);
  /// The paper's default hybrid: BSP for `fraction`, then ASP.
  [[nodiscard]] static SyncSwitchPolicy bsp_to_asp(double fraction);
  /// The reversed order (Figure 5(a) ablation).
  [[nodiscard]] static SyncSwitchPolicy asp_to_bsp(double fraction);
};

/// Throws ConfigError for policies that do not compose: a membership plan
/// with an online policy (both manipulate the worker set), and reactive
/// membership with reactive switch triggers (both read one detector).
void check_plan(const SyncSwitchPolicy& policy, const MembershipPlan& membership);

/// Lowers `policy` over a run of `total_steps` runtime-local steps onto
/// legs, after check_plan().  An explicit schedule runs verbatim, its first
/// leg at baseline momentum.  The offline plan runs `first` and then
/// `second`; only legs off `first` (all of them when the fraction is 0)
/// take the momentum ablation.  When `has_stragglers`:
///  * greedy cycles: `first` until a straggler is detected, `second` until
///    it clears, back to `first` until its quota is spent, then `second`;
///  * elastic evicts stragglers in the first leg, replace in every leg.
/// A reactive membership plan makes every leg leave flagged workers.
/// Throws ConfigError when an SSP or DSSP leg resolves a negative bound.
[[nodiscard]] std::vector<PlanLeg> lower_plan(const SyncSwitchPolicy& policy,
                                              std::int64_t total_steps,
                                              const MembershipPlan& membership,
                                              bool has_stragglers);

/// True when a leg with `trigger` and `reaction` reads the detector.
[[nodiscard]] inline bool reads_detector(SwitchTrigger trigger, Reaction reaction) noexcept {
  return trigger != SwitchTrigger::kStepCount || reaction != Reaction::kNone;
}

/// True when some leg of `plan` reads the detector, so the runtime must feed
/// it task observations.
[[nodiscard]] inline bool reads_detector(const std::vector<PlanLeg>& plan) noexcept {
  return std::any_of(plan.begin(), plan.end(), [](const PlanLeg& leg) {
    return reads_detector(leg.phase.trigger, leg.reaction);
  });
}

/// True when `detector`'s current flags fire such a leg: no flag fires a
/// kStragglerCleared trigger; any flag fires every other leg that reads it.
[[nodiscard]] inline bool detector_fires(SwitchTrigger trigger, Reaction reaction,
                                         const StragglerDetector& detector) {
  return reads_detector(trigger, reaction) &&
         (trigger == SwitchTrigger::kStragglerCleared) != detector.any_straggler();
}

/// The walk over a plan's legs, in a run's step currency (global steps in
/// the sim, per-worker local steps on threads).  It owns which leg runs, each
/// leg's quota spent over all its visits, the run's progress against its
/// budget, and each reaction's membership delta.  It has no threads, no
/// clock and no parameter server: a runtime reports the steps it ran and
/// what the detector flagged, and actuates what the cursor answers.
///
/// The walk ends when the budget is spent.  Every lowered plan's last leg
/// has no quota and no trigger, so it runs out the budget; the controller
/// appends the leg the cursor steps onto before the runtime reads it.
class PlanCursor {
 public:
  PlanCursor(std::vector<PlanLeg> legs, std::int64_t total)
      : legs_(std::move(legs)), spent_(legs_.size(), 0), total_(total) {}

  [[nodiscard]] const std::vector<PlanLeg>& legs() const noexcept { return legs_; }
  [[nodiscard]] std::size_t index() const noexcept { return leg_; }
  [[nodiscard]] const PlanLeg& leg() const { return legs_.at(leg_); }
  /// Steps run so far, and the progress the current visit began at.
  [[nodiscard]] std::int64_t progress() const noexcept { return progress_; }
  [[nodiscard]] std::int64_t visit_start() const noexcept { return visit_start_; }
  [[nodiscard]] bool done() const noexcept { return progress_ >= total_; }
  /// Progress the current visit ends at: the leg's quota left over its
  /// earlier visits, capped at the budget; the budget for a leg with none.
  [[nodiscard]] std::int64_t visit_end() const {
    const std::int64_t steps = leg().phase.steps;
    return steps > 0 ? std::min(progress_ + steps - spent_[leg_], total_) : total_;
  }

  /// The runtime ran the current leg up to `progress`.
  void advance_to(std::int64_t progress) {
    spent_[leg_] += progress - progress_;
    progress_ = progress;
  }
  /// The slots the current leg's reaction takes out of `active` when the
  /// detector flags `flagged`:
  ///  * kLeave: `flagged` as it is, for the RecoveryCoordinator to clamp;
  ///  * kEvict / kReplace: every flagged slot of `active`, or none when
  ///    fewer than two would remain.  kEvict's come back at the leg's end.
  [[nodiscard]] std::vector<int> react(const std::vector<int>& active,
                                       const std::vector<int>& flagged);
  /// Ends the visit, `triggered` when the leg's trigger fired: the walk
  /// takes `on_trigger` if the leg had quota left, else `next`.  Returns the
  /// slots kEvict took out during the visit, which return now.
  std::vector<int> finish(bool triggered);
  /// Appends `leg` at the plan's end, with its edges to the leg after it.
  void append(PlanLeg leg);

 private:
  std::vector<PlanLeg> legs_;
  std::vector<std::int64_t> spent_;  ///< quota used per leg, over all visits
  std::int64_t total_;
  std::int64_t progress_ = 0;
  std::int64_t visit_start_ = 0;
  std::size_t leg_ = 0;
  std::vector<int> evicted_;  ///< kEvict's slots out for the current visit
};

}  // namespace ss
