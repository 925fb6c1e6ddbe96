// BarrierPlanner: the threaded run's drain side.  It decides what runs next
// and on which workers, and it records what each finished phase and each
// membership change cost.
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
// resolves at a drain barrier.
//
// threaded_train (ps/threaded_runtime.cpp) keeps the thread mechanics: the
// epoch loop, the two barriers, BSP aggregation, failure containment,
// straggler injection and the obs sites.  Everything else is here:
//
//  * a segment's step rules, under the planner's own locks: admit() lets an
//    async worker take its next step (SSP within its clock bound, ASP on a
//    drawn ticket) and records its clock gap, stepped() advances its clock,
//    observe() feeds the detector, latch() ends a fired segment early and
//    abort() stops every worker after a failure;
//  * the BSP leader and the detector's lock; the worker set and the
//    detector are its RecoveryCoordinator's;
//  * the armed segment, re-armed in place at each drain or recovery: its
//    leg, lr, compression, quota, ASP ticket budget and the latch that
//    lowers it, with the phase-entry resets;
//  * the per-slot clocks and counters the workers advance, and the
//    controller's measurement taken from them;
//  * each finished phase's ThreadedPhaseStats, the eval hook and the
//    controller's decision;
//  * the membership delta it books (a kLeave reaction's or the controller's
//    eviction) and each event's ThreadedMembershipStats; the
//    RecoveryCoordinator applies the delta and restores a crash;
//  * the run's result.
//
// The planner starts no thread and reads the time only through the clock
// it is given, at start() and at drains and recoveries, never per step, so
// tests drive whole drain transitions with a fake clock.  Between drains
// the workers read the segment, write their own slot's counters, and reach
// the clocks, the tickets and the latch only through the step-rule calls;
// the drain side touches them only while every worker is parked or joined.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "control/controller.h"
#include "core/straggler_detector.h"
#include "elastic/async_snapshotter.h"
#include "elastic/recovery_coordinator.h"
#include "ps/param_server.h"
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
  /// Step the segment runs to.  BSP and SSP run every worker's clock there
  /// (an SSP latch lowers it to a clock every worker can still reach).
  std::int64_t quota = 0;
  /// ASP: the step tickets the segment shares out, n_alive x (quota -
  /// start).  A latched trigger lowers it (BarrierPlanner::latch).  The
  /// ticket fields are written under the planner's clock lock on every
  /// ASP step, so they sit on their own cache line, apart from the fields
  /// above that every worker reads each step.
  alignas(64) std::int64_t ticket_budget = 0;
  std::int64_t tickets = 0;  ///< ASP tickets drawn so far
  bool fired = false;        ///< the segment's watch latched
};

/// One worker slot's counters.  Its worker writes them, directly or through
/// BarrierPlanner::admit (`max_gap`, under the clock lock) and observe (the
/// step time); the drain side reads and resets them only while every
/// worker is parked.  Each slot has its own cache line, since every worker
/// writes its own each step and no peer reads them.
struct alignas(64) SlotCounters {
  std::int64_t max_gap = 0;  ///< largest clock gap at this slot's step starts in the phase
  std::int64_t staleness_sum = 0;  ///< over the phase's pushes
  std::int64_t push_bytes = 0;     ///< wire bytes pushed in the phase
  /// Compute-side step time (barrier and SSP waits excluded) since the
  /// controller last measured: a straggler's injected delay lands in its own
  /// slot instead of being smeared over everyone by barrier waits.
  double step_seconds = 0.0;
  std::int64_t step_count = 0;
  /// Mean step time over the slot's last interval with a finished step.
  double last_step_mean = 0.0;
};

class BarrierPlanner {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  /// The planner's one time source.
  using Clock = TimePoint (*)();
  static TimePoint steady_now() { return std::chrono::steady_clock::now(); }

  /// What a drain leaves the runtime to do.
  enum class Drained {
    kArmed,       ///< the next segment is armed on the same workers: run it
    kMembership,  ///< a membership delta is due: join the threads, then recover()
    kOver,        ///< the run is over: join the threads, then finish()
  };

  /// Lowers `cfg` onto legs on the initial workers; start() arms the first
  /// segment.  Throws ConfigError for an invalid or non-composable config:
  /// the controller picks its own legs and owns the worker set, so it
  /// excludes a schedule and a membership plan; the checks the sim shares
  /// are lower_plan()'s.  `ps` and `snapshots` must outlive the planner;
  /// `snapshots` holds the crash-restore floor.
  BarrierPlanner(ThreadedTrainConfig cfg, SharedParameterServer& ps,
                 AsyncSnapshotter& snapshots, Clock clock = &steady_now);

  /// Starts the run's clock and arms the first segment.  Call it once, after
  /// the runtime's setup (worker models, codec bank, snapshot floor), so
  /// that setup is charged to no phase and to no eval hook's wall time.
  void start();

  /// Alive slot ids, ascending.
  [[nodiscard]] const std::vector<int>& active() const noexcept { return coord_.active(); }
  /// The BSP aggregator: the first alive slot.
  [[nodiscard]] std::size_t leader() const noexcept {
    return static_cast<std::size_t>(coord_.active().front());
  }
  /// Slot ids ever used: the initial workers plus the scripted joins.
  [[nodiscard]] std::size_t max_slots() const noexcept { return slots_.size(); }
  /// The straggler detector observe() feeds, or null when no leg watches
  /// it (then nothing feeds it).  Scoped to the alive slots.
  [[nodiscard]] StragglerDetector* detector() noexcept {
    return watched_ ? &coord_.detector() : nullptr;
  }

  /// The armed segment.
  [[nodiscard]] Segment& segment() noexcept { return seg_; }
  [[nodiscard]] SlotCounters& slot(std::size_t w) noexcept { return slots_[w]; }
  /// Slot `w`'s local steps in the current phase.  A BSP worker advances
  /// its own between round barriers; an async one through stepped().
  [[nodiscard]] std::int64_t& clock(std::size_t w) noexcept { return clocks_[w]; }

  // A segment's step rules, called by its workers.  The clock lock guards
  // the clocks, the ASP tickets, the latch and the abort flag; the
  // detector's lock guards the detector.

  /// Admits worker `w`'s next async step.  SSP waits while `w`'s clock is
  /// more than the segment's bound ahead of the slowest alive clock; ASP
  /// draws a ticket.  Both record `w`'s clock gap.  Returns false, and
  /// admits nothing, once the segment is spent (SSP: `w` at the quota; ASP:
  /// every ticket drawn) or the run is aborted.
  bool admit(std::size_t w);
  /// Worker `w` finished the async step admit() gave it: advances its clock
  /// and wakes the SSP waiters.
  void stepped(std::size_t w);
  /// Records worker `w`'s step of `seconds` (compute side, waits excluded):
  /// into its slot's step time for the controller, and to the detector.
  /// True when a detection pass ran and the segment's watch then fires;
  /// false when no leg watches the detector.
  bool observe(std::size_t w, double seconds);
  /// True when the segment's watch fires on the detector's current flags:
  /// the BSP leader's check, once a round.
  bool fires();
  /// Latches the segment's fired watch so that it ends as soon as it can
  /// end exactly.  SSP lowers the quota to the alive slots' fastest clock
  /// + 1, a clock every worker can still reach, and wakes the waiters to
  /// re-check it.  An ASP trigger rounds the tickets drawn so far up to the
  /// next multiple of n_alive, so the segment closes within n_alive tickets
  /// on a whole per-worker step count (the drain divides by n_alive).  An
  /// ASP reaction keeps its budget.  Returns the segment as latched, or
  /// nothing when it already was.
  std::optional<Segment> latch();
  /// A worker failed: every admit() refuses from now on, parked SSP waiters
  /// wake, and the next drain ends the run.
  void abort();
  /// True once abort() was called.
  [[nodiscard]] bool failed() const noexcept { return aborted_.load(); }

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

  /// The drain transition, with every worker parked at the drain barrier
  /// and `updates` PS updates applied so far.  After abort() it only
  /// returns kOver, recording nothing.  Otherwise it settles the segment
  /// against the cursor: BSP and SSP reached the leader's clock, ASP its
  /// tickets / n_alive.  A fired watch is the leg's trigger when it has one;
  /// otherwise its kLeave reaction books the workers the detector flags for
  /// eviction.  When the phase completes (at its quota or on its trigger)
  /// the planner records its stats, calls the eval hook and, on controller
  /// runs, measures the interval and enacts the controller's move.  Then
  /// the run ends, a due membership delta asks for recover(), or the next
  /// segment is armed.
  Drained drain(std::int64_t updates);

  /// Applies the due membership delta with every worker thread joined, as
  /// one RecoveryCoordinator::apply pass: evictions first, then the
  /// scripted events, and a crash under kRestoreSnapshot restores the
  /// latest snapshot, its loss charged to the pass's first crash.  Then it
  /// arms the next segment with the lr re-derived for the new size and
  /// returns the pass's records.  May throw ConfigError when reactive
  /// evictions leave a scripted event infeasible.
  std::span<const ThreadedMembershipStats> recover();

  /// What the run has recorded so far: its finished phases, membership
  /// events and controller decisions.
  [[nodiscard]] const ThreadedTrainResult& recorded() const noexcept { return result_; }
  /// The run's result, once it is over, with `updates` PS updates applied:
  /// the run totals and the final parameters join the records.  Moves them
  /// out; call once.
  ThreadedTrainResult finish(std::int64_t updates);

 private:
  /// Validates `cfg`, checking in a fixed order so the first error reported
  /// stays the same, and lowers its protocol or schedule onto the legs the
  /// planner starts from.
  [[nodiscard]] static std::vector<PlanLeg> lower(const ThreadedTrainConfig& cfg);

  /// Arms the segment the cursor is at on the current workers: the rest of
  /// an interrupted phase (clocks fast-forwarded to the steps it already
  /// ran), else the next leg.  Its quota stops at the next scripted event.
  void arm();
  /// Records the finished phase, calls the eval hook and decides.
  void finish_phase(std::int64_t steps, bool triggered, std::int64_t updates, TimePoint now);
  /// The controller's measurement of the finished interval: the lower
  /// median of the alive slots' step times, and the slowest slot's factor
  /// over it.
  MeasuredPhaseCosts measure();
  /// Controller runs: settles the previous decision's realized gain from
  /// `phase`, and unless the run is over enacts the controller's next move
  /// (a hold should the controller throw).
  void decide(const ThreadedPhaseStats& phase);
  /// Appends the leg `d` chooses: the current leg for `decision_interval`
  /// steps, with the chosen protocol and bound (the compression switches
  /// with it), or with the measured straggler's slot booked for eviction.
  void enact(ControllerDecision d);

  const ThreadedTrainConfig cfg_;
  SharedParameterServer& ps_;
  AsyncSnapshotter& snapshots_;
  Clock clock_;
  PlanCursor cursor_;  ///< the lowered plan, then the controller's legs
  RecoveryCoordinator coord_;  ///< the worker set, the detector and the crash restore
  bool watched_ = false;       ///< some leg reads the detector
  std::mutex det_mu_;          ///< guards coord_'s detector while workers run
  std::vector<SlotCounters> slots_;
  /// One contiguous vector: an async step reads every alive clock under the
  /// clock lock (the SSP bound and the clock gap).
  std::vector<std::int64_t> clocks_;
  Segment seg_;
  /// Taken on every async step, so off the line of the segment fields that
  /// every step reads.
  alignas(64) std::mutex clock_mu_;
  std::condition_variable clock_cv_;  ///< SSP waiters park on it
  std::atomic<bool> aborted_{false};  ///< written under clock_mu_; BSP reads it unlocked
  bool compress_ = false;  ///< push through the codec; the controller may switch it

  /// A booked membership delta: the slots it evicts (maybe none).
  std::optional<std::vector<int>> evict_;

  TimePoint run_start_;
  TimePoint phase_start_;
  std::int64_t phase_start_updates_ = 0;
  std::int64_t async_staleness_ = 0;  ///< run totals over async-phase pushes
  std::int64_t async_updates_ = 0;
  std::vector<float> eval_params_;  ///< eval_hook scratch
  ThreadedTrainResult result_;

  std::optional<OnlineController> controller_;
  std::int64_t last_move_step_ = 0;  ///< done() when the last move was enacted
  double prev_sec_per_step_ = 0.0;   ///< the previous interval's wall/step
};

}  // namespace ss
