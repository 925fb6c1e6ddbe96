// BarrierPlanner: what the threaded runtime runs next, and on which workers.
//
// Every Sync-Switch policy answers one question at a drain barrier — the
// offline timing policy with a fixed step count, a reactive schedule or
// membership plan when the straggler detector fires, the controller with a
// twin-priced move.  The planner answers it by walking the legs ps/plan.h's
// lower_plan() makes with a PlanCursor, the same lowering and the same walk
// the simulator session uses (core/session.cpp):
//
//  * a fixed protocol is one leg that runs out the run budget;
//  * a switch schedule is its phases, verbatim;
//  * a reactive membership plan makes every leg's reaction kLeave;
//  * the controller appends one `decision_interval`-step leg per decision,
//    and an eviction it enacts is the membership delta before that leg.
//
// A leg runs as one or more *segments*: scripted membership events
// (RecoveryCoordinator::next_event_step) cut it into segments so each event
// resolves at a drain barrier.  The runtime arms a segment, runs it to its
// drain barrier, and reports how far it got; the cursor settles the leg, and
// the planner books the membership delta due before the next segment and
// lowers that segment.  The planner holds no leg or phase progress of its
// own, only the lr rule, the worker set, the compression flag, the
// controller and the membership delta.  A segment is plain data, so the
// runtime's worker loops and drain completion never branch on where a
// decision came from, and this header's logic is testable without threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "control/controller.h"
#include "core/straggler_detector.h"
#include "elastic/recovery_coordinator.h"
#include "ps/plan.h"
#include "ps/protocol.h"
#include "ps/threaded_runtime.h"

namespace ss {

/// One stretch of training between two drain barriers, on a fixed worker
/// set.  Step counts are per-worker local steps within the segment's phase.
struct Segment {
  std::size_t leg = 0;  ///< index of the plan leg (the phase) it belongs to
  /// That leg: its protocol, resolved SSP bound, and the trigger and
  /// reaction the segment watches the detector for (see reads_detector /
  /// detector_fires in ps/plan.h).
  PlanLeg plan;
  double lr = 0.0;
  bool compress = false;  ///< push through the run's codec (never set without one)
  /// Steps of the phase already run before this segment; 0 when the segment
  /// opens the phase.  A phase is only ever interrupted after a step, so a
  /// resumed segment always has start > 0.
  std::int64_t start = 0;
  /// Step the segment runs to.  BSP and SSP run every worker's clock there;
  /// ASP spends n_alive x (quota - start) shared step tickets.
  std::int64_t quota = 0;
};

class BarrierPlanner {
 public:
  /// Lowers `cfg` onto legs.  Throws ConfigError for an invalid or
  /// non-composable config: the controller picks its own legs and owns the
  /// worker set, so it excludes a schedule and a membership plan; the
  /// checks the sim shares are lower_plan()'s.  `cfg` must outlive the
  /// planner.
  explicit BarrierPlanner(const ThreadedTrainConfig& cfg);

  /// The worker set: slot ids and the scripted events still to come.
  [[nodiscard]] const RecoveryCoordinator& membership() const noexcept { return coord_; }
  /// True when some leg watches the detector, so workers must feed it.
  [[nodiscard]] bool uses_detector() const noexcept { return uses_detector_; }
  /// Per-worker local steps of the finished phases.
  [[nodiscard]] std::int64_t done() const noexcept { return cursor_.visit_start(); }
  /// True once the finished phases cover the run's steps_per_worker.
  [[nodiscard]] bool finished() const noexcept { return cursor_.done(); }

  /// The lr a `protocol` segment trains at with `n` workers.  With
  /// derive_phase_lr off it is the configured lr.  Otherwise schedule and
  /// controller legs take the configuration policy's lr outright (linear
  /// scaling for synchronous protocols), and a fixed protocol rescales the
  /// configured lr by the policy's n / n0 ratio, which is exactly 1.0 until
  /// the cluster changes.
  [[nodiscard]] double lr(Protocol protocol, std::size_t n) const;

  /// The segment to run next on the current worker set: the rest of an
  /// interrupted phase, else the next leg (the first one at run start).
  /// Its quota stops at the next scripted membership event.
  [[nodiscard]] Segment next();

  /// The segment from next() reached its drain barrier after `reached`
  /// phase steps, and `fired` says the detector fired it.  A fire is the
  /// leg's trigger when it has one; otherwise its kLeave reaction books the
  /// workers `detector` flags at the barrier for eviction.  The phase
  /// completes at its quota or when its trigger fired: then
  /// the result is its stats, with the protocol, ended_by_trigger,
  /// start_step and steps filled in for the caller to complete.  Otherwise
  /// the next segment resumes the phase.
  std::optional<ThreadedPhaseStats> drain(std::int64_t reached, bool fired,
                                          const StragglerDetector& detector);

  /// Controller runs, after a completed phase: settles the previous
  /// decision's realized gain from `phase`, and unless the run is over
  /// asks the controller for the next move from `measure()` (holding if it
  /// throws) and enacts it.  No-op without a controller, which leaves
  /// `measure` uncalled.
  void decide(const ThreadedPhaseStats& phase, const std::function<MeasuredPhaseCosts()>& measure);
  /// Appends the leg `d` chooses: the current leg for `decision_interval`
  /// steps, with the chosen protocol and bound (the compression switches
  /// with it), or with the measured straggler's slot booked for eviction.
  void enact(ControllerDecision d);
  [[nodiscard]] std::vector<ControllerDecision> take_decisions() { return std::move(decisions_); }

  /// True when a membership delta is due before the next segment: slots
  /// booked for eviction, a fired kLeave reaction (even if its flags
  /// cleared by the barrier), or scripted events at the current progress.
  [[nodiscard]] bool membership_due() const noexcept;
  /// Applies the due delta to the worker set — evictions first, then the
  /// scripted events — and returns what changed.  Call with every worker
  /// quiesced, before next(); may throw ConfigError when reactive evictions
  /// leave a scripted event infeasible.
  std::vector<AppliedMembershipEvent> apply_membership();

 private:
  /// Validates `cfg`, checking in a fixed order so the first error reported
  /// stays the same, and lowers its protocol or schedule onto the legs the
  /// planner starts from.
  [[nodiscard]] static std::vector<PlanLeg> lower(const ThreadedTrainConfig& cfg);

  const ThreadedTrainConfig& cfg_;
  PlanCursor cursor_;  ///< the lowered plan, then the controller's legs
  RecoveryCoordinator coord_;
  bool uses_detector_ = false;
  bool compress_ = false;  ///< push through the codec; the controller may switch it

  bool delta_due_ = false;  ///< a membership delta is booked
  std::vector<int> evict_;  ///< slots it evicts

  std::optional<OnlineController> controller_;
  std::vector<ControllerDecision> decisions_;
  std::int64_t last_move_step_ = 0;  ///< done() when the last move was enacted
  double prev_sec_per_step_ = 0.0;   ///< the previous interval's wall/step
};

}  // namespace ss
