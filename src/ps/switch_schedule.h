// Live protocol-switch schedules (paper Sections IV-A and VI-B3).
//
// A SwitchSchedule is the declarative form of Sync-Switch's headline move:
// run one synchronization protocol for a while, then transition to another
// mid-training.  It is a phase list consumed by both runtimes:
//
//  * the simulator (ps/plan.h: SyncSwitchPolicy::schedule) runs each
//    phase through SimRuntime::run_phase with a checkpoint -> actuate ->
//    restore switch between phases, and
//  * the threaded runtime (ps/threaded_runtime.h: ThreadedTrainConfig::
//    schedule) transitions live, quiescing real worker threads at a drain
//    barrier — no checkpoint, no restart, no lost update.
//
// Both take their legs from one lowering, ps/plan.h's lower_plan(), which
// copies the phases verbatim, and read a phase's budget off `steps` alone.
//
// A phase ends either after a fixed step budget (kStepCount — the paper's
// timing policy, which picks the switch point offline) or when the online
// straggler detector changes state (kStragglerDetected / kStragglerCleared —
// the paper's Section VI-B3 reactive policies).  The *last* phase always
// runs to the end of the run budget, so its `steps` must be 0 and it cannot
// carry a reactive trigger (there is nothing left to switch to).
//
// Step currency is runtime-local: the simulator counts global minibatch
// steps (the unit of Workload::total_steps), the threaded runtime counts
// local steps per worker.  A BSP round consumes n simulator steps but one
// threaded step per worker, so a sim schedule of {BSP n*s, ASP n*t} and a
// threaded schedule of {BSP s, ASP t} describe the same training plan and
// produce the same update counts — which is exactly what the cross-runtime
// switching conformance suite checks.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ps/protocol.h"

namespace ss {

/// What ends a phase (and hands control to the next one).
enum class SwitchTrigger {
  kStepCount,          ///< after `steps` runtime-local steps
  kStragglerDetected,  ///< when the straggler detector flags any worker
  kStragglerCleared,   ///< when the detector stops flagging (flags persist
                       ///< across phase entry, so this waits for a real
                       ///< recovery, not for a fresh empty detector)
};

std::string switch_trigger_name(SwitchTrigger t);

/// One leg of the schedule.
struct SwitchPhase {
  Protocol protocol = Protocol::kBsp;
  SwitchTrigger trigger = SwitchTrigger::kStepCount;
  /// kStepCount: steps this phase runs (runtime-local currency; see file
  /// comment), or fewer if the run budget ends first.  Must be > 0 except on
  /// the last phase, where it must be 0 (the last phase always runs out the
  /// remaining budget).  Must be 0 for reactive triggers, which run until
  /// the trigger fires or the budget ends.
  std::int64_t steps = 0;
  /// Staleness bound override for kSsp phases; < 0 inherits the runtime's
  /// configured default bound.
  int ssp_staleness_bound = -1;
};

/// Validated phase list.  An empty schedule means "no switching" — the
/// consumer falls back to its single-protocol configuration.
class SwitchSchedule {
 public:
  SwitchSchedule() = default;
  /// Throws ConfigError unless: every non-last kStepCount phase has
  /// steps > 0, every reactive phase has steps == 0, and the last phase is
  /// kStepCount with steps == 0.
  explicit SwitchSchedule(std::vector<SwitchPhase> phases);

  [[nodiscard]] bool empty() const noexcept { return phases_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return phases_.size(); }
  [[nodiscard]] const std::vector<SwitchPhase>& phases() const noexcept { return phases_; }
  [[nodiscard]] const SwitchPhase& phase(std::size_t i) const { return phases_.at(i); }

  /// True if any phase ends on a detector trigger (the consumer must then
  /// run a StragglerDetector and feed it task observations).
  [[nodiscard]] bool has_reactive_trigger() const noexcept;

  /// Canonical string covering every field that affects the result; part of
  /// RunRequest::cache_key().  Empty schedule -> "-".
  [[nodiscard]] std::string label() const;

  /// One protocol for the whole run (equivalent to no schedule, but
  /// explicit — useful for sweeping schedules programmatically).
  [[nodiscard]] static SwitchSchedule single(Protocol p);
  /// Fixed step-triggered legs: {{BSP, 120}, {ASP, 0}} runs BSP for 120
  /// steps and ASP for the rest.  The last leg's step count must be 0.
  [[nodiscard]] static SwitchSchedule step_switched(
      std::vector<std::pair<Protocol, std::int64_t>> legs);
  /// The paper's default hybrid in step-triggered form.
  [[nodiscard]] static SwitchSchedule bsp_to_asp(std::int64_t bsp_steps);
  /// Section VI-B3 reactive policy: `first` until a straggler is detected,
  /// then `second` for the rest of the run.
  [[nodiscard]] static SwitchSchedule reactive(Protocol first, Protocol second);
  /// Greedy-style round trip: `first` until a straggler is detected,
  /// `second` until it clears, then `first` again for the rest.
  [[nodiscard]] static SwitchSchedule reactive_round_trip(Protocol first, Protocol second);

 private:
  std::vector<SwitchPhase> phases_;
};

}  // namespace ss
