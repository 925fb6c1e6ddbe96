// Real multi-threaded parameter-server runtime.
//
// The simulator (sim_runtime.h) provides deterministic science; this runtime
// proves the same PS/protocol logic is actually concurrent-safe by running
// workers as OS threads against the per-shard-locked SharedParameterServer
// (ps/param_server.h) that the simulator and the socket server use too (one
// lock when num_ps_shards == 1):
//
//  * BSP uses a std::barrier per round: every worker pulls through the
//    Transport, and the leader (the first alive slot) aggregates and
//    applies.
//  * ASP workers freely pull/push under the shard locks at their own pace.  An
//    ASP phase is work-conserving, as the simulator counts it: it holds one
//    budget of n_alive x (per-worker steps) step tickets, and whichever
//    worker asks next draws the next one, so a straggler takes fewer steps
//    instead of holding its peers at the drain barrier.  (The socket
//    deployment runs the same WorkerSlot step, ps/worker_slot.h, in each
//    remote worker process, but still over its own steps_per_worker loop.)
//  * SSP workers free-run within the staleness bound: a worker whose local
//    clock is more than `ssp_staleness_bound` steps ahead of the slowest
//    waits in BarrierPlanner::admit until the laggard catches up.  SSP keeps
//    a per-worker step quota, because its bound is defined on local clocks.
//
// Beyond the fixed-protocol mode, the runtime executes live protocol
// switches (`ThreadedTrainConfig::schedule`): a SwitchSchedule's phases run
// back to back on the *same* worker threads and the same parameter server.
// At each phase boundary every worker quiesces at a drain barrier — all of
// its pushes are synchronous calls into the PS, so arriving at the barrier
// means its updates are durably applied; SSP waiters are released because
// the phase quota is a common local-step count every worker reaches, and
// ASP workers leave once the phase's tickets are spent — and the barrier's
// completion (with every worker parked) is one BarrierPlanner::drain call,
// which records the phase's metrics and arms the next phase.  No checkpoint, no restart, no
// lost update.  Phases end on a fixed step quota or reactively, when the
// shared StragglerDetector (fed by per-step wall-clock throughput
// observations) flags or clears a straggler — the paper's Section VI-B3
// policies on real threads.
//
// Everything that decides who may step and when a segment ends lives in
// one class that starts no thread, the BarrierPlanner
// (ps/barrier_planner.h).  It walks the plan of legs that ps/plan.h lowers
// the fixed protocol or the schedule and the elastic membership plan onto,
// appends the online controller's legs, holds the worker set and the armed
// Segment — protocol, bound, lr, compression, step quota, ticket budget and
// the latch that lowers it, trigger and reaction — admits every async step
// under its own clock lock (the SSP wait, the ASP ticket draw), feeds the
// detector under its own lock, and records the per-phase and per-event
// stats and the result; its run clock starts once this file's setup is
// done.  This file keeps only the thread mechanics: the epoch loop, the
// barriers, BSP aggregation, failure containment, straggler injection and
// the obs sites.  The worker loops run segments and never branch on where
// one came from.
//
// Transient stragglers are injected from a `StragglerSchedule` evaluated
// against the wall clock: after computing its gradient, a slowed worker
// sleeps (slow_factor - 1) x its measured step time, emulating the paper's
// injected network latency without consuming CPU.
//
// Elastic membership (`ThreadedTrainConfig::elastic`, src/elastic/): the
// worker set itself can change mid-run.  Scripted crash/join/leave events —
// or the reactive evict-on-detect rule — resolve at the drain barrier: the
// epoch's threads quiesce and exit, BarrierPlanner::recover runs one pass of
// its RecoveryCoordinator on the main thread (the worker-set change, and a
// crash's restore of the AsyncSnapshotter's latest copy-on-read checkpoint
// when ElasticConfig::takes_snapshots), the next segment's lr is re-derived
// for the new cluster size via derive_hyper, and a fresh set of threads
// (with barriers sized to the new count) carries the same plan forward.
// Protocol switches with no membership event due still transition live.
//
// All protocols support gradient compression (`ThreadedTrainConfig::
// compression`): each worker thread encodes its gradient through its own
// `CompressorBank` slot into a `CompressedPush`, and sparse (top-k) pushes
// take a per-shard fast path that locks only the shards owning kept
// coordinates.
//
// Used by tests and the `threaded_training` example.  Wall-clock timing here
// is real, so results are NOT deterministic in update order for ASP (that is
// the point) — but invariants (parameter finiteness, update counts, loss
// decrease on easy problems, per-phase staleness bounds) hold and are
// tested.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "compress/spec.h"
#include "control/controller.h"
#include "core/straggler_detector.h"
#include "elastic/membership_plan.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "nn/lr_schedule.h"
#include "nn/model.h"
#include "ps/param_server.h"
#include "ps/protocol.h"
#include "ps/switch_schedule.h"
#include "sim/straggler.h"

namespace ss {

struct ThreadedTrainConfig {
  /// Protocol for the whole run when `schedule` is empty; ignored otherwise.
  Protocol protocol = Protocol::kBsp;
  /// Live switch schedule: phases run back to back on the same threads and
  /// PS, transitioning at drain barriers.  Phase `steps` are local steps per
  /// worker (an ASP phase spends them as n x `steps` tickets shared by all
  /// workers); the last phase runs out the remaining `steps_per_worker`
  /// budget.  Only BSP/ASP/SSP phases are accepted (threaded_supported).
  SwitchSchedule schedule;
  std::size_t num_workers = 4;
  std::size_t batch_size = 32;
  /// Local steps per worker.  BSP and SSP run every worker exactly this
  /// many; ASP phases make it a per-worker *average*: the phase's
  /// n x steps tickets go to whichever worker asks next, so a fast worker
  /// takes more and a straggler fewer, and the total is exact.
  std::int64_t steps_per_worker = 100;
  double lr = 0.05;
  double momentum = 0.9;
  std::uint64_t seed = 99;
  int ssp_staleness_bound = 3;  ///< local-clock gap bound for kSsp
  /// PS shards (one mutex each): >1 lets concurrent pushes interleave at
  /// shard granularity instead of serializing on a global lock.
  std::size_t num_ps_shards = 1;
  /// Optional gradient compression, specified exactly like `RunRequest`'s
  /// (core/session.h): the runtime builds one `CompressorBank` for the run
  /// and every worker encodes its push through its own bank slot — the same
  /// pipeline the simulator drives, but on real threads.  Sparse (top-k)
  /// pushes go through the per-shard `push_compressed` fast path.
  CompressionSpec compression;
  /// Wall-clock straggler injection: before pushing, a worker slowed at the
  /// current elapsed time sleeps (slow_factor - 1) x its measured step time.
  /// Event times are seconds since the run started.  Default: no events.
  StragglerSchedule stragglers;
  /// Detector for reactive schedule triggers (kStragglerDetected /
  /// kStragglerCleared).  Fed per-step throughput observations under a
  /// mutex; flags persist across phase transitions so kStragglerCleared
  /// waits for a real recovery.  Unused when the schedule has no reactive
  /// trigger.
  DetectorConfig detector;
  /// Schedule mode only: derive each phase's learning rate from the
  /// configuration policy (core/config_policy.h) with `lr` as the base eta —
  /// synchronous phases get the linear-scaled n x lr, asynchronous phases
  /// keep lr, momentum stays at `momentum` (the paper's kBaseline choice;
  /// PS-side momentum cannot be re-derived mid-run).  When false, every
  /// phase uses `lr` as-is.  Fixed-protocol mode always uses `lr` as-is.
  bool derive_phase_lr = true;
  /// Elastic membership & fault tolerance (src/elastic/).  Event `at_step`
  /// is in per-worker local steps (the unit of `steps_per_worker`);
  /// `snapshot_interval` counts PS updates between asynchronous snapshots.
  /// Scripted events resolve at the drain barrier once the run has
  /// completed exactly `at_step` local steps per worker: the planner ends
  /// each segment at the next event (for ASP phases: once the segment's
  /// n_alive x steps tickets are spent).  The reactive plan watches every
  /// leg for flagged workers and evicts them at the next drain (BSP and SSP
  /// cut the segment short for it; ASP does not, so a fixed-ASP run evicts
  /// no one).  When a
  /// membership plan is active, `derive_phase_lr` additionally re-derives the
  /// learning rate for the changed cluster size (synchronous phases rescale
  /// by n'/n, matching the configuration policy's linear scaling; async
  /// phases keep lr) — in fixed-protocol mode too, relative to the
  /// configured `lr`.
  ElasticConfig elastic;
  /// Online policy controller (src/control/): when enabled, the planner
  /// appends one `controller.decision_interval`-step leg per decision, so
  /// every leg boundary is a drain barrier where the controller measures
  /// the finished interval, prices a candidate grid on the simulator twin,
  /// and enacts the winner live — protocol/bound/compression as the next
  /// leg's, a straggler eviction as the membership delta before it (the
  /// run's tail interval may be shorter).  Mutually exclusive with
  /// `schedule` and `elastic`: the controller owns both the plan and the
  /// worker set, and the planner rejects the combination.
  /// `derive_phase_lr` applies the configuration policy per enacted
  /// protocol exactly as in schedule mode.  Decision records land in
  /// ThreadedTrainResult::decisions.  Disabled (the default) leaves every
  /// code path bit-identical to a config without this field.
  ControllerConfig controller;
  /// Test hook: called by each worker before every local step (e.g. to make
  /// one worker artificially slow).  `step` is the calling worker's own
  /// local step index: the per-worker steps of the finished phases plus its
  /// own clock in the current one.  Under BSP/SSP every worker counts
  /// 0 .. steps_per_worker - 1; under ASP a worker counts only the tickets it
  /// drew, so a given worker may never reach a given step (fire test faults
  /// on the run's k-th call instead).  Must be thread-safe; may be null.
  std::function<void(std::size_t worker, std::int64_t step)> pre_step_hook;
  /// Observer hook: called inside every drain-barrier completion that
  /// completes a phase (including the run-ending one) with the per-worker
  /// local step count, wall seconds since run start, and a fresh parameter
  /// snapshot — every worker is parked, so the pull is consistent and the
  /// evaluation time is not charged to any worker's step.  Lets examples
  /// trace accuracy-versus-wall-clock without perturbing the workers.  May
  /// be null.  Fixed-protocol runs without a controller drain only at run
  /// end; schedule/controller runs also fire at every phase/interval
  /// boundary.
  std::function<void(std::int64_t step, double wall_seconds, std::span<const float> params)>
      eval_hook;
};

/// Metrics for one executed schedule phase (exactly one entry for a
/// fixed-protocol run).  `steps` is the per-worker local step count of the
/// phase.  BSP and SSP workers all take exactly that many: the phase ends at
/// a common quota (fixed, or latched as max-clock + 1 when a trigger fires).
/// An ASP phase reports its tickets / n_alive, summed over its epoch
/// segments: every segment ends on a multiple of n_alive tickets (a fired
/// trigger rounds the tickets drawn so far up to the next one), so the count
/// is exact even though individual workers took more or fewer.
struct ThreadedPhaseStats {
  Protocol protocol = Protocol::kBsp;
  bool ended_by_trigger = false;  ///< reactive trigger fired (vs quota/budget)
  std::int64_t start_step = 0;    ///< per-worker local step the phase began at
  std::int64_t steps = 0;         ///< local steps per worker in this phase
  std::int64_t updates = 0;       ///< PS updates applied during the phase
  double mean_staleness = 0.0;    ///< over the phase's async pushes (0 for BSP)
  /// Largest local-clock gap (fastest minus slowest worker's own steps in
  /// the phase) at any step start.  <= the bound for SSP, 0 for BSP; under
  /// ASP it grows with how many more tickets the fast workers draw.
  std::int64_t max_clock_gap = 0;
  std::int64_t push_bytes = 0;    ///< wire bytes pushed during the phase
  double wall_seconds = 0.0;      ///< real elapsed time of the phase
  double updates_per_sec = 0.0;   ///< phase throughput (updates / wall_seconds)
};

/// Metrics for one resolved membership event (crash / join / leave —
/// scripted or reactive).  One entry per event, in resolution order.
struct ThreadedMembershipStats {
  MembershipEventKind kind = MembershipEventKind::kLeave;
  int worker = -1;                ///< slot the event applied to (joins: the assigned slot)
  std::int64_t at_step = 0;       ///< per-worker local step the event resolved at
  std::size_t workers_after = 0;  ///< cluster size once applied
  double lr_after = 0.0;          ///< current phase's lr re-derived for the new n
  /// Crash with RecoveryMode::kRestoreSnapshot: PS updates rolled back to
  /// the restored snapshot (bounded by one snapshot interval).  0 otherwise.
  std::int64_t updates_lost = 0;
  double recovery_wall_seconds = 0.0;  ///< wall time of the whole recovery pass
};

struct ThreadedTrainResult {
  std::int64_t total_updates = 0;   ///< PS updates applied
  double mean_staleness = 0.0;      ///< over async pushes (0 for pure BSP)
  /// Largest observed local-clock gap (fastest minus slowest worker) at any
  /// step start.  For kSsp this is <= ssp_staleness_bound by construction.
  std::int64_t max_clock_gap = 0;
  /// Total gradient bytes pushed on the (virtual) wire: the codec's wire
  /// size per push when compression is on, full fp32 width otherwise.
  std::int64_t push_bytes = 0;
  /// One entry per executed phase, in order.  Phases the run budget never
  /// reached (or that a never-firing trigger absorbed) are absent.  A phase
  /// interrupted by a membership event contributes ONE entry covering its
  /// whole span (its wall_seconds include the recovery pauses inside it).
  std::vector<ThreadedPhaseStats> phases;
  /// One entry per resolved membership event, in order (empty when the run
  /// is not elastic).
  std::vector<ThreadedMembershipStats> membership;
  /// Snapshots the AsyncSnapshotter stored (incl. the run-start one); 0 for
  /// non-elastic runs.
  std::int64_t snapshots_taken = 0;
  /// One entry per controller decision point (empty unless
  /// ThreadedTrainConfig::controller.enabled): the quantized measurements
  /// the decision saw, every candidate's predicted cost and cache
  /// provenance, the chosen move, and predicted vs. realized gain.
  std::vector<ControllerDecision> decisions;
  std::vector<float> final_params;
};

/// Train `prototype` (cloned per worker) on `train` with real threads.
/// Returns the final parameters; throws on internal inconsistency.
ThreadedTrainResult threaded_train(const Model& prototype, const Dataset& train,
                                   const ThreadedTrainConfig& cfg);

}  // namespace ss
