// Elastic cluster membership: crash / join / leave as first-class events.
//
// The paper treats the worker set as a constant; real clusters do not.
// Workers crash, get preempted, or are added for capacity — and the
// discrete-event literature (adevs, csimpy) models exactly these as
// schedulable events.  A MembershipPlan is the declarative form, the
// membership analogue of SwitchSchedule (ps/switch_schedule.h): a validated
// event list consumed by BOTH runtimes.
//
//  * both resolve events through one RecoveryCoordinator
//    (elastic/recovery_coordinator.h): it applies the worker-set change,
//    restores a crash's losses from the AsyncSnapshotter's latest checkpoint
//    once per pass, and rescopes the straggler detector;
//  * the simulator (core/session.h) splits phase budgets at event steps,
//    prices each pass through the cluster/actuator models, and keys the
//    plan into the run-cache key — elastic runs are bit-for-bit
//    reproducible and cacheable like any other;
//  * the threaded runtime (ps/threaded_runtime.h) resolves events at the
//    drain barrier, where BarrierPlanner re-derives hyper-parameters for the
//    new cluster size and threaded_train retires/spawns real OS threads.
//
// Step currency is runtime-local, exactly like SwitchSchedule: the
// simulator resolves `at_step` against global minibatch steps (the unit of
// Workload::total_steps), the threaded runtime against per-worker local
// steps (the unit of ThreadedTrainConfig::steps_per_worker).
//
// Besides the scripted form there is a reactive variant driven by the
// existing StragglerDetector: `MembershipPlan::reactive_evict()` turns every
// detector flag into a leave() of the flagged workers (bounded below by
// ElasticConfig::min_workers), under any protocol and on both runtimes.
// The session's OnlinePolicy::kElastic is a narrower, simulator-only rule:
// it evicts every flagged worker or none (never below two), only while the
// first protocol runs, and restores the full cluster at the switch.  Both
// are reactions of one plan leg (ps/plan.h: Reaction::kLeave for this plan,
// kEvict for the online policy), lowered once for either runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ss {

enum class MembershipEventKind {
  kCrash,  ///< worker dies: ungraceful, recovers per RecoveryMode
  kJoin,   ///< a new worker slot is provisioned and integrated
  kLeave,  ///< worker retires gracefully (its applied work is kept)
};

std::string membership_event_name(MembershipEventKind k);

/// How a crash is recovered at the drain barrier.
enum class RecoveryMode {
  /// Restore parameters + optimizer velocity from the last asynchronous
  /// snapshot: every update since the snapshot is lost, so the loss window
  /// is bounded by one snapshot interval.  This is the faithful model of a
  /// PS that does not log individual updates.
  kRestoreSnapshot,
  /// Keep the live PS state: only the crashed worker's future contribution
  /// is lost (models a replicated PS whose state survives worker crashes).
  kKeepLive,
};

std::string recovery_mode_name(RecoveryMode m);

/// One membership event.  `worker` is the slot a crash/leave applies to
/// (slot ids of joined workers continue past the initial cluster size, in
/// join order); for kJoin it must be -1 in the plan — the coordinator
/// assigns the next free slot when the event resolves.
struct MembershipEvent {
  MembershipEventKind kind = MembershipEventKind::kLeave;
  int worker = -1;
  std::int64_t at_step = 0;  ///< runtime-local step the event resolves at
};

/// Validated event list (plus the optional reactive rule).  Empty plan +
/// kNone reactive = elasticity off.
class MembershipPlan {
 public:
  MembershipPlan() = default;
  /// Throws ConfigError unless every event has at_step > 0, crashes/leaves
  /// name a worker >= 0, and joins leave `worker` at -1.  Events are kept
  /// sorted by at_step (stable, so same-step events resolve in list order).
  explicit MembershipPlan(std::vector<MembershipEvent> events);

  /// Reactive variant: no scripted events; whenever the straggler detector
  /// flags workers, they leave the cluster at the next drain barrier.
  [[nodiscard]] static MembershipPlan reactive_evict();

  // Convenience single-event factories (compose via the vector ctor).
  [[nodiscard]] static MembershipPlan crash(int worker, std::int64_t at_step);
  [[nodiscard]] static MembershipPlan join(std::int64_t at_step);
  [[nodiscard]] static MembershipPlan leave(int worker, std::int64_t at_step);

  [[nodiscard]] bool empty() const noexcept { return events_.empty() && !reactive_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] const std::vector<MembershipEvent>& events() const noexcept { return events_; }
  [[nodiscard]] bool reactive() const noexcept { return reactive_; }

  /// Number of kJoin events (bounds the total slot count a run can reach).
  [[nodiscard]] std::size_t join_count() const noexcept;

  /// Canonical string covering every field that affects the result; feeds
  /// ElasticConfig::label() and hence RunRequest::cache_key().  "-" when
  /// empty.
  [[nodiscard]] std::string label() const;

 private:
  std::vector<MembershipEvent> events_;
  bool reactive_ = false;
};

/// Everything the elastic subsystem needs for one run, shared verbatim by
/// RunRequest (simulator) and ThreadedTrainConfig (threaded runtime).
struct ElasticConfig {
  MembershipPlan plan;
  /// Runtime-local steps between asynchronous snapshots (simulator: global
  /// minibatch steps; threaded: PS updates).  <= 0 takes only the run-start
  /// snapshot, so a crash under kRestoreSnapshot rolls back to step 0.
  std::int64_t snapshot_interval = 0;
  RecoveryMode recovery = RecoveryMode::kRestoreSnapshot;
  /// Crashes/leaves (scripted or reactive) may never shrink the cluster
  /// below this floor; the coordinator throws (scripted) or clamps the
  /// eviction set (reactive) otherwise.
  std::size_t min_workers = 1;

  [[nodiscard]] bool empty() const noexcept { return plan.empty(); }
  /// True when a run takes snapshots: only a scripted crash under
  /// kRestoreSnapshot reads one back.  Join/leave-only, reactive and
  /// kKeepLive runs take none, in both runtimes.
  [[nodiscard]] bool takes_snapshots() const noexcept;
  /// Cache-key form: "-" when elasticity is off.
  [[nodiscard]] std::string label() const;
};

}  // namespace ss
