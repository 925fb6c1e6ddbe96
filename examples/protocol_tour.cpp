// A tour of every synchronization protocol in the library on one workload:
// BSP, ASP, SSP, DSSP, the K-variant family (Dutta et al.), the group-based
// Gaia-style hybrid, and Sync-Switch itself.
//
//   $ ./build/examples/protocol_tour
//
// This is the paper's Figure 1 design space at example scale: accuracy and
// (virtual) training time for each point, showing the trade-off frontier
// Sync-Switch escapes.
#include <iostream>

#include "core/profiler.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/group_runtime.h"

using namespace ss;

namespace {

RunRequest base_request() {
  RunRequest req;
  req.workload.arch = ModelArch::kResNet32Lite;
  req.workload.data = SyntheticSpec::cifar10_like();
  req.workload.total_steps = 2048;
  req.workload.hyper.batch_size = 64;
  req.workload.hyper.learning_rate = 0.05;
  req.workload.hyper.momentum = 0.9;
  req.workload.eval_interval = 64;
  req.cluster.num_workers = 8;
  req.cluster.compute_per_batch = VTime::from_ms(120.0);
  req.cluster.reference_batch = 64;
  req.cluster.sync_base = VTime::from_ms(287.0);
  req.cluster.sync_quad = VTime::from_ms(6.4);
  req.actuator_time_scale = 0.015;
  req.seed = 1;
  return req;
}

void report(const std::string& name, double acc, double minutes, bool diverged,
            double staleness = -1.0) {
  std::cout << "  " << name << ": ";
  if (diverged) {
    std::cout << "DIVERGED\n";
    return;
  }
  std::cout << "accuracy " << acc << ", time " << minutes << " min";
  if (staleness >= 0.0) std::cout << ", staleness " << staleness;
  std::cout << "\n";
}

void run_session(const std::string& name, const SyncSwitchPolicy& policy) {
  RunRequest req = base_request();
  req.policy = policy;
  const RunResult r = TrainingSession(req).run();
  report(name, r.converged_accuracy, r.train_time_seconds / 60.0, r.diverged,
         r.mean_staleness);
}

/// The group-based protocol runs through its own runtime (it maintains one
/// parameter replica per group rather than a single PS).
void run_group_based() {
  const RunRequest req = base_request();
  const Workload& wl = req.workload;
  const DataSplit data = make_synthetic(wl.data);
  const Dataset eval_subset = data.test.head(2048);

  Rng root(req.seed * 0x9E3779B97f4A7C15ULL + 17);
  Rng init_rng = root.fork(1);
  Model grad_model = make_model(wl.arch, wl.data.feature_dim, wl.data.num_classes, init_rng);
  Model eval_model = grad_model.clone();

  const std::size_t n = req.cluster.num_workers;
  const auto shards = make_shards(data.train.size(), n);
  std::vector<MinibatchSampler> samplers;
  std::vector<Rng> worker_rngs;
  for (std::size_t w = 0; w < n; ++w) {
    samplers.emplace_back(shards[w], wl.hyper.batch_size, root.fork(100 + w));
    worker_rngs.push_back(root.fork(200 + w));
  }
  TrainingState state(SharedParameterServer(grad_model.get_params(), wl.hyper.momentum),
                      std::move(samplers), std::move(worker_rngs));

  Profiler profiler;
  GroupRuntime runtime(ClusterModel(req.cluster), grad_model, eval_model, data.train,
                       eval_subset, profiler);
  const PiecewiseDecay schedule =
      PiecewiseDecay::resnet_style(wl.hyper.learning_rate, wl.total_steps);

  GroupConfig cfg;
  cfg.num_groups = 2;
  cfg.significance_threshold = 0.01;
  cfg.step_budget = wl.total_steps;
  cfg.lr_schedule = &schedule;
  cfg.per_worker_batch = wl.hyper.batch_size;
  cfg.momentum = wl.hyper.momentum;
  cfg.eval_interval = wl.eval_interval;

  StragglerSchedule none;
  const GroupPhaseResult r = runtime.run(state, cfg, none);
  const auto conv = profiler.converged_accuracy();
  report("Group-based (G=2)  ", conv ? *conv : profiler.final_accuracy(),
         r.elapsed.seconds() / 60.0, r.end == PhaseEnd::kDiverged);
  std::cout << "    (significance filter passed "
            << 100.0 * r.mean_significant_fraction << "% of coordinates per broadcast, "
            << r.broadcasts << " broadcasts)\n";
}

SyncSwitchPolicy with_k(Protocol proto, int k) {
  SyncSwitchPolicy p = SyncSwitchPolicy::pure(proto);
  p.k_param = k;
  return p;
}

}  // namespace

int main() {
  std::cout << "Protocol tour: every synchronization scheme on one workload\n\n";
  run_session("BSP                ", SyncSwitchPolicy::pure(Protocol::kBsp));
  run_session("ASP                ", SyncSwitchPolicy::pure(Protocol::kAsp));
  run_session("SSP(3)             ", SyncSwitchPolicy::pure(Protocol::kSsp));
  run_session("DSSP(3,+8)         ", SyncSwitchPolicy::pure(Protocol::kDssp));
  run_session("K-sync (K=6)       ", with_k(Protocol::kKSync, 6));
  run_session("K-batch-sync (K=6) ", with_k(Protocol::kKBatchSync, 6));
  run_session("K-async (K=2)      ", with_k(Protocol::kKAsync, 2));
  run_session("K-batch-async (K=2)", with_k(Protocol::kKBatchAsync, 2));
  run_group_based();
  run_session("Sync-Switch 6.25%  ", SyncSwitchPolicy::bsp_to_asp(0.0625));

  std::cout << "\nThe static protocols trace the throughput/accuracy frontier of the\n"
               "paper's Figure 1; Sync-Switch reaches BSP-level accuracy at near-ASP\n"
               "time by switching protocols mid-training instead of compromising.\n";
  return 0;
}
