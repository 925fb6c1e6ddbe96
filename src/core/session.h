// TrainingSession: the Sync-Switch cluster manager.
//
// Mirrors the paper's architecture (Figure 9): it takes the user's training
// script (Workload + ClusterSpec + initial hyper-parameters), consults the
// policy manager (protocol / timing / configuration policies), launches
// phases on the runtime, monitors metrics through the profiler, and performs
// protocol switches via checkpoint -> actuate -> restore, paying the
// actuator's measured overhead in virtual time.
//
// Every policy runs through one phase-plan engine.  run() lowers the
// request's policy with ps/plan.h's lower_plan() and walks the legs with its
// PlanCursor, the same lowering and the same walk the threaded runtime's
// BarrierPlanner uses; the session prices each move in virtual time.  Greedy
// flips to ASP while a straggler is detected and back once it clears, until
// the BSP quota is met.  Elastic evicts detected stragglers for the rest of
// the BSP phase and restores the full cluster for ASP.  Replace evicts them
// and re-admits each slot once a fresh node is provisioned.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compress/spec.h"
#include "core/config_policy.h"
#include "core/profiler.h"
#include "elastic/membership_plan.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/plan.h"
#include "sim/actuator.h"
#include "sim/cluster.h"
#include "sim/straggler.h"

namespace ss {

/// What to train: model, data, step budget, initial hyper-parameters.
struct Workload {
  ModelArch arch = ModelArch::kResNet32Lite;
  SyntheticSpec data = SyntheticSpec::cifar10_like();
  std::int64_t total_steps = 2048;  ///< minibatch-step budget ("64K" scaled)
  BaseHyper hyper;
  std::int64_t eval_interval = 128;
  double divergence_loss_threshold = 50.0;
};

/// One training job on one simulated cluster.
struct RunRequest {
  Workload workload;
  ClusterSpec cluster;
  ActuatorExec actuator = ActuatorExec::kParallel;
  SyncSwitchPolicy policy;
  StragglerScenario stragglers;  ///< zero stragglers = clean run
  /// Explicit straggler schedule (scenario engine / trace replays).  When
  /// non-empty it drives the run verbatim and `stragglers` is ignored —
  /// episode times are virtual-clock points, exactly as run_phase reads
  /// them.  Empty (the default) keeps the historical behavior: a schedule is
  /// generated from the `stragglers` scenario and the run seed.
  StragglerSchedule straggler_schedule;
  CompressionSpec compression;   ///< optional gradient compression on pushes
  /// Elastic membership & fault tolerance (src/elastic/): scripted or
  /// reactive crash/join/leave events, resolved between run_phase segments
  /// and priced through the cluster/actuator models.  Event `at_step` is in
  /// global minibatch steps (the unit of Workload::total_steps), matching
  /// how SwitchSchedule steps read on the sim side; `snapshot_interval` is
  /// in the same unit.  Incompatible with the online straggler policies
  /// (both manipulate the active worker set) and — for the reactive plan —
  /// with reactive schedule triggers (both consume the detector).
  ElasticConfig elastic;
  std::uint64_t seed = 1;        ///< repetition seed (init, timing, batching)

  /// Optional pure-observer sink (e.g. a TraceSink, ps/trace.h): receives
  /// every task/update/eval observation after the profiler and detector.
  /// Not owned, not part of the cache key (observation cannot change the
  /// result).
  MetricsSink* observer = nullptr;

  /// Scales the actuator's init/switch/resize costs.  The bench setups run
  /// a ~30x scaled-down step budget, so absolute overheads from the paper's
  /// Table III are scaled by the same factor to keep overhead:training
  /// ratios faithful (Table III itself reports the unscaled model).
  double actuator_time_scale = 1.0;

  /// Canonical string covering every field that affects the result; used as
  /// the run-cache key and for reproducibility audits.  The key opens with
  /// a schema-version tag (`sv=N`) that is bumped whenever the key grammar
  /// or any result-affecting semantics change, so stale `.ss_runcache`
  /// entries hash to unreachable slots and self-invalidate instead of
  /// requiring a manual delete.
  [[nodiscard]] std::string cache_key() const;
};

/// Cache-key schema version (the `sv=` tag in cache_key()).  Bump on any
/// change to the key grammar or to result-affecting semantics.
/// v6: explicit straggler schedules (`xstrg=`), RunResult::updates_lost,
/// and full-precision (17-digit) result serialization.
/// v7: online policies react to explicit straggler schedules too.
inline constexpr int kCacheKeySchemaVersion = 7;

/// Everything the paper's evaluation reads off one run.
struct RunResult {
  bool diverged = false;
  bool converged = false;          ///< accuracy stabilized per the 5-eval rule
  double converged_accuracy = 0.0; ///< falls back to final accuracy if !converged
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  double train_time_seconds = 0.0;     ///< virtual, includes switch overhead
  double init_time_seconds = 0.0;      ///< cluster bring-up (reported separately)
  double switch_overhead_seconds = 0.0;
  int num_switches = 0;
  /// Elastic runs: membership events resolved (crash/join/leave, scripted
  /// or reactive) and the total virtual time their recoveries cost.
  int num_membership_events = 0;
  double recovery_overhead_seconds = 0.0;
  /// Global steps of applied work rolled back by crash recoveries (summed
  /// over crashes; 0 under RecoveryMode::kKeepLive).  The snapshot cadence
  /// bounds each crash's contribution by one snapshot_interval plus the
  /// BSP round overshoot — the invariant the scenario fuzzer asserts.
  std::int64_t updates_lost = 0;
  double mean_staleness = 0.0;
  double throughput_images_per_sec = 0.0;
  double final_train_loss = 0.0;
  std::int64_t steps_completed = 0;
  std::vector<LossPoint> loss_curve;
  std::vector<AccuracyPoint> accuracy_curve;

  /// First virtual time (seconds) test accuracy reached `threshold`.
  [[nodiscard]] std::optional<double> time_to_accuracy(double threshold) const;
};

/// Runs one job to completion on the simulated cluster.
class TrainingSession {
 public:
  /// Builds its own split from `request.workload.data` when it runs.
  explicit TrainingSession(RunRequest request);
  /// Runs on `data`, which must be `make_synthetic(request.workload.data)`
  /// and outlive the session; it is only read, so sessions on several
  /// threads may share one split.
  TrainingSession(RunRequest request, const DataSplit& data);

  /// Execute the job.  Never throws on divergence (that is a *result*);
  /// throws ConfigError on inconsistent requests.
  RunResult run();

 private:
  RunRequest req_;
  const DataSplit* data_ = nullptr;
};

}  // namespace ss
