// Event-driven distributed-training runtime: "virtual time, real math".
//
// Gradients are computed by real forward/backward passes on the model; *when*
// they are computed and *which parameter version* they see is decided by the
// discrete-event cluster model.  This reproduces the semantics in the paper's
// Figure 3 exactly:
//
//  * BSP: all active workers pull the same parameters, compute in parallel,
//    and the PS applies the averaged gradient once the barrier completes
//    (equivalent to large-batch minibatch SGD — tested).
//  * ASP: each worker pulls a snapshot, computes, and pushes at its own pace;
//    the PS applies immediately, so a gradient is stale by however many
//    updates other workers landed in between (~n-1 on average — tested).
//  * SSP: ASP within a staleness bound on worker clocks.
//
// Step accounting: the unit of workload is the *minibatch step* (one worker
// batch of B examples).  A BSP aggregated update consumes n minibatch steps,
// an ASP update consumes one; both protocols therefore process the same
// number of examples for the same step budget, and the LR schedule is
// indexed by this shared counter.  See EXPERIMENTS.md §"Step semantics".
//
// The PS is the same per-shard-locked SharedParameterServer the threaded
// runtime and the socket server use (ps/param_server.h), driven through the
// same pull_with_versions / push / push_compressed calls; one thread drives
// it here, so every shard lock is uncontended.
//
// Every update of every protocol ends in one tail (`SimRuntime::Phase`, in
// the .cpp): the sink sees an update's `on_task` calls, then its
// `on_update`, then any `on_eval`; divergence is checked once per update.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/vtime.h"
#include "compress/bank.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "nn/lr_schedule.h"
#include "nn/model.h"
#include "ps/param_server.h"
#include "ps/protocol.h"
#include "sim/cluster.h"
#include "sim/des_engine.h"
#include "sim/straggler.h"

namespace ss {

/// Emitted whenever one worker task (pull+compute+push) completes.  This is
/// the signal the straggler detector consumes.
struct TaskObservation {
  int worker = 0;
  VTime completed_at;
  VTime task_duration;
  std::size_t images = 0;
};

/// Emitted on every PS update.
struct UpdateObservation {
  std::int64_t global_step = 0;  ///< minibatch steps completed (after this update)
  VTime time;
  double train_loss = 0.0;
  std::int64_t staleness = 0;  ///< PS versions advanced between pull and push
  Protocol protocol = Protocol::kBsp;
};

/// Receives training telemetry (implemented by the core profiler).
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void on_task(const TaskObservation& obs) = 0;
  virtual void on_update(const UpdateObservation& obs) = 0;
  virtual void on_eval(std::int64_t global_step, VTime time, double test_accuracy) = 0;
};

/// No-op sink for tests.
class NullMetricsSink final : public MetricsSink {
 public:
  void on_task(const TaskObservation&) override {}
  void on_update(const UpdateObservation&) override {}
  void on_eval(std::int64_t, VTime, double) override {}
};

/// Everything that persists across phases of one training session.
struct TrainingState {
  TrainingState(SharedParameterServer ps_in, std::vector<MinibatchSampler> samplers_in,
                std::vector<Rng> worker_rngs_in)
      : ps(std::move(ps_in)),
        samplers(std::move(samplers_in)),
        worker_rngs(std::move(worker_rngs_in)) {}

  SharedParameterServer ps;
  std::vector<MinibatchSampler> samplers;  ///< one per worker slot
  std::vector<Rng> worker_rngs;            ///< timing jitter streams
  std::int64_t global_step = 0;            ///< minibatch steps completed
  VTime clock;                             ///< virtual wall clock
};

/// Default DSSP credit r (the bound floats in [s, s + r]).  Sessions keep
/// it, so a session's staleness ceiling is its SSP bound plus this.
inline constexpr int kDsspStalenessUpper = 8;

/// Hyper-parameters and knobs for one phase (already derived by the
/// configuration policy).
struct PhaseConfig {
  Protocol protocol = Protocol::kBsp;
  int ssp_staleness_bound = 3;       ///< fixed bound for kSsp; lower bound for kDssp
  int dssp_staleness_upper = kDsspStalenessUpper;  ///< upper bound r for kDssp
  int k_param = 0;                   ///< K for the K-variant protocols; 0 = cluster size
  std::int64_t step_budget = 0;      ///< minibatch steps to run in this phase
  const LrSchedule* lr_schedule = nullptr;  ///< absolute eta(step), required
  double lr_multiplier = 1.0;        ///< config policy: n for BSP, 1 for ASP
  /// Optional override of lr_multiplier as a function of the global step.
  /// Used for the gradual warmup of the linear-scaled BSP learning rate
  /// (Goyal et al., the recipe behind the paper's configuration policy).
  std::function<double(std::int64_t)> lr_multiplier_schedule;
  std::size_t per_worker_batch = 64;
  double momentum = 0.9;
  /// Optional momentum override evaluated per update as a function of
  /// minibatch steps completed *inside this phase* (Figure 8(b) ablations).
  std::function<double(std::int64_t)> momentum_schedule;
  std::int64_t eval_interval = 128;  ///< minibatch steps between test evals
  double divergence_loss_threshold = 50.0;
  /// Optional gradient compression applied to every push (paper §VII calls
  /// compression orthogonal and combinable with Sync-Switch; see
  /// bench/ablation_compression).  Not owned; must outlive the phase.  The
  /// gradient math sees the decoded (lossy) values and the network model
  /// charges the push for the codec's wire bytes.  In the async protocols a
  /// sparse (top-k) push goes through `push_compressed` — only the shards
  /// owning kept coordinates advance, exactly as on threads and sockets;
  /// synchronous protocols aggregate decoded pushes before one dense push.
  CompressorBank* compressor = nullptr;
};

/// Why a phase ended.
enum class PhaseEnd {
  kBudgetExhausted,
  kStopRequested,  ///< stop predicate returned true
  kDiverged,
};

struct PhaseResult {
  PhaseEnd end = PhaseEnd::kBudgetExhausted;
  std::int64_t steps_done = 0;  ///< minibatch steps completed in this phase
  /// Global minibatch step at which the stop predicate fired (-1 unless
  /// end == kStopRequested).  This mirrors what the threaded runtime's
  /// ThreadedPhaseStats records for a trigger-ended phase (ended_by_trigger
  /// + the per-worker step count), so cross-runtime conformance tests can
  /// compare reactive trigger timing instead of only update counts.
  std::int64_t trigger_step = -1;
  VTime elapsed;                ///< virtual time this phase took
  double mean_staleness = 0.0;  ///< average gradient staleness over the phase
  std::int64_t push_bytes = 0;  ///< gradient bytes pushed over the wire
  /// K-sync / K-batch-sync only: completed-but-discarded worker tasks (the
  /// straggler work the protocol cancels at each round).
  std::int64_t cancelled_tasks = 0;
  /// Async protocols: largest observed local-clock gap (fastest minus
  /// slowest worker) at any scheduling decision.  SSP guarantees this never
  /// exceeds the staleness bound, DSSP never exceeds bound + upper credit;
  /// the threaded runtime reports the same invariant, which is what the
  /// cross-runtime conformance suite checks.  0 for synchronous protocols.
  std::int64_t max_clock_gap = 0;
};

/// Predicate polled after every worker-task completion; return true to end
/// the phase (used by online straggler policies).
using StopPredicate = std::function<bool(VTime now, std::int64_t global_step)>;

/// Executes one synchronization phase on the simulated cluster.
class SimRuntime {
 public:
  /// `grad_model` and `eval_model` are working replicas (their parameters
  /// are overwritten); `eval_set` is the held-out data used for the periodic
  /// accuracy evaluations.  The cluster model is copied (it is a small value
  /// type), so passing a temporary is safe.
  SimRuntime(ClusterModel cluster, Model& grad_model, Model& eval_model,
             const Dataset& train, const Dataset& eval_set, MetricsSink& sink);

  /// Run a phase.  `active_workers` are the participating worker indices
  /// (the elastic policy shrinks this set); `stragglers` provides slowdown
  /// factors over virtual time; `stop` may be null.
  PhaseResult run_phase(TrainingState& state, const PhaseConfig& cfg,
                        const std::vector<int>& active_workers,
                        const StragglerSchedule& stragglers, const StopPredicate& stop);

 private:
  /// What every update of one phase shares, and `commit`, the one tail
  /// every update runs through (defined in the .cpp).
  struct Phase;
  /// The WorkerProcess behind every event-driven protocol.
  class EventDrivenProcess;

  /// The synchronous family (BSP, K-sync, K-batch-sync): one `plan_round`
  /// per aggregated update.  BSP is K-sync with K = n (bit-for-bit);
  /// `pipelined` selects K-batch-sync's fast-workers-pipeline round shape.
  PhaseResult run_rounds(Phase& phase, const std::vector<int>& active, bool pipelined);
  /// The event-driven family (ASP/SSP/DSSP apply each push under `rules`;
  /// K-async/K-batch-async free-run and buffer K pushes per update, with
  /// `distinct_workers` selecting K-async's distinct-source trigger).
  PhaseResult run_event_driven(Phase& phase, const std::vector<int>& active,
                               AdmissionRules rules, bool buffered, bool distinct_workers);

  ClusterModel cluster_;
  Model& grad_model_;
  Model& eval_model_;
  const Dataset& train_;
  const Dataset& eval_set_;
  MetricsSink& sink_;
};

}  // namespace ss
