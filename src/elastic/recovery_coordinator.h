// The one membership transition, shared by both runtimes.
//
// Sync-Switch's online reactions and its crash recovery all change the
// worker set at a quiesce point (the simulator between run_phase segments,
// the threaded runtime at the drain barrier with every worker joined).  The
// RecoveryCoordinator owns that change and the answer to "who trains right
// now".  Worker *slots* are stable integer ids: the initial cluster occupies
// [0, n); every join claims the next id, so a slot id never refers to two
// different workers.
//
//   1. next_event_step() caps a segment so training stops exactly at the
//      next scripted event;
//   2. apply(leavers, progress) is one membership pass: the reactive kLeave
//      leavers go (clamped to ElasticConfig::min_workers), then every
//      scripted event due at `progress` resolves (joins get their slot
//      here).  A pass holding a crash under kRestoreSnapshot rolls the PS
//      back to the latest snapshot once and charges the updates it lost to
//      the pass's first crash;
//   3. set_aside() / readmit() are the online reactions' half: kEvict keeps
//      its slots out until the leg ends, kReplace until a replacement's
//      ready time.
//
// It owns the straggler detector and rescopes it to active() at every
// change, so retired and set-aside slots never block its warm-up.
//
// The plan is dry-run in the constructor, so an infeasible plan (crashing a
// dead worker, shrinking below the floor, leaving an empty cluster) fails
// fast with ConfigError instead of mid-run.  The coordinator has no clock
// and starts no thread: times are the caller's (virtual in the simulator).
// Each runtime prices and records what a pass returns — the simulator its
// resize, join and restore costs, the threaded BarrierPlanner its
// ThreadedMembershipStats — and retires or spawns its own workers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/vtime.h"
#include "core/straggler_detector.h"
#include "elastic/membership_plan.h"

namespace ss {

class AsyncSnapshotter;
class SharedParameterServer;

/// One resolved event: `event.worker` is always filled in (joins get their
/// assigned slot), `workers_after` is the cluster size once applied.
struct AppliedMembershipEvent {
  MembershipEvent event;
  std::size_t workers_after = 0;
  /// True on the pass's first crash when the pass restored a snapshot.
  bool restored = false;
  /// The updates that restore rolled back; 0 on every other event.
  std::int64_t updates_lost = 0;
};

class RecoveryCoordinator {
 public:
  /// Validates the scripted plan against `initial_workers` by dry-running
  /// it; throws ConfigError if any event targets a dead/unknown slot or
  /// shrinks the cluster below max(min_workers, 1), or if the plan restores
  /// snapshots (ElasticConfig::takes_snapshots) and `snapshots` or `ps` is
  /// missing.  A crash restores `ps` through `snapshots`; both must outlive
  /// the coordinator.
  RecoveryCoordinator(const ElasticConfig& cfg, std::size_t initial_workers,
                      const DetectorConfig& detector = {}, AsyncSnapshotter* snapshots = nullptr,
                      SharedParameterServer* ps = nullptr);

  /// Upper bound on slot ids ever used: initial workers + scripted joins.
  /// Runtimes pre-size per-slot state (contexts, clocks, detector) with it.
  [[nodiscard]] std::size_t max_slots() const noexcept { return max_slots_; }

  /// The run's worker set: alive slots not set aside, ascending.
  [[nodiscard]] const std::vector<int>& active() const noexcept { return active_; }
  [[nodiscard]] std::size_t alive_count() const noexcept { return active_.size(); }
  [[nodiscard]] bool is_alive(int slot) const noexcept;

  /// The straggler detector, sized by max_slots() and scoped to active().
  [[nodiscard]] StragglerDetector& detector() noexcept { return detector_; }

  /// Step of the next unresolved scripted event strictly after `progress`,
  /// or -1 when none remain.
  [[nodiscard]] std::int64_t next_event_step(std::int64_t progress) const noexcept;

  /// True when an unresolved scripted event is due at or before `progress`.
  [[nodiscard]] bool events_due(std::int64_t progress) const noexcept;

  /// One membership pass at `progress`: `leavers` leave (dead or unknown
  /// slots are ignored; clamped so at least max(min_workers, 1) remain),
  /// then every scripted event with at_step <= progress applies, in plan
  /// order.  A crash under kRestoreSnapshot restores the latest snapshot
  /// once for the pass.  Rescopes the detector even when nothing changed:
  /// the flags that led here are spent.  Throws ConfigError when the
  /// leavers left a scripted event infeasible.
  std::vector<AppliedMembershipEvent> apply(const std::vector<int>& leavers,
                                            std::int64_t progress);

  /// An online reaction takes `slots` out of active() until readmit():
  /// kReplace's until `ready`, kEvict's (no `ready`) until its leg ends.
  /// Rescopes the detector even when `slots` is empty.
  void set_aside(const std::vector<int>& slots, std::optional<VTime> ready);
  /// Re-admits the set-aside slots whose ready time is at or before `now`,
  /// in the order they were set aside, and returns them.
  std::vector<int> readmit(VTime now);
  /// Re-admits `slots` (kEvict's, returned at the leg's end).
  void readmit(const std::vector<int>& slots);
  /// True when a set-aside slot's ready time is at or before `now`.
  [[nodiscard]] bool replacement_due(VTime now) const noexcept;

 private:
  struct SetAside {
    int slot;
    std::optional<VTime> ready;  ///< none: until the caller re-admits it
  };

  /// Moves the set-aside slots `due` picks back into active().
  template <class Due>
  std::vector<int> readmit_where(Due due);

  ElasticConfig cfg_;
  AsyncSnapshotter* snapshots_;
  SharedParameterServer* ps_;
  std::vector<int> active_;
  std::vector<SetAside> aside_;
  std::size_t next_slot_;
  std::size_t max_slots_;
  std::size_t next_event_ = 0;  ///< index into cfg_.plan.events()
  StragglerDetector detector_;
};

}  // namespace ss
