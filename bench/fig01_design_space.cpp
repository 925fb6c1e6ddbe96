// Figure 1: the synchronization design space.
//
// The paper's Figure 1 sketches converged accuracy vs training throughput:
// BSP sits high-accuracy/low-throughput, ASP the opposite, and the
// semi-synchronous family (SSP, DSSP, group-based) trades between them along
// a frontier — while Sync-Switch claims the top-right corner (both at once).
// This bench *measures* that sketch on experiment setup 1: every protocol
// the paper names is trained for real on the same workload and placed on
// the plane.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/table.h"
#include "core/profiler.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/group_runtime.h"
#include "setups.h"

using namespace ss;

namespace {

struct Point {
  std::string label;
  double accuracy = 0.0;
  double throughput = 0.0;  // images/s
  bool failed = false;
};

/// Run the group-based (Gaia-style) protocol, which lives outside
/// TrainingSession, with the same workload/cluster/repetitions contract as
/// setups::run_reps.
Point run_group_based(const setups::ExperimentSetup& s, std::size_t num_groups) {
  std::vector<double> accs, thrs;
  int diverged = 0;
  for (int rep = 0; rep < setups::kReps; ++rep) {
    const Workload& wl = s.workload;
    const auto seed = static_cast<std::uint64_t>(rep) + 1;
    const DataSplit data = make_synthetic(wl.data);
    const Dataset eval_subset = data.test.head(std::min<std::size_t>(data.test.size(), 2048));

    Rng root(seed * 0x9E3779B97f4A7C15ULL + 17);
    Rng init_rng = root.fork(1);
    Model grad_model = make_model(wl.arch, wl.data.feature_dim, wl.data.num_classes, init_rng);
    Model eval_model = grad_model.clone();

    const std::size_t n = s.cluster.num_workers;
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
    GroupRuntime runtime(ClusterModel(s.cluster), grad_model, eval_model, data.train,
                         eval_subset, profiler);
    const PiecewiseDecay schedule =
        PiecewiseDecay::resnet_style(wl.hyper.learning_rate, wl.total_steps);

    GroupConfig cfg;
    cfg.num_groups = num_groups;
    cfg.significance_threshold = 0.01;  // Gaia's initial threshold
    cfg.step_budget = wl.total_steps;
    cfg.lr_schedule = &schedule;
    cfg.lr_multiplier = 1.0;
    cfg.per_worker_batch = wl.hyper.batch_size;
    cfg.momentum = wl.hyper.momentum;
    cfg.eval_interval = wl.eval_interval;
    cfg.divergence_loss_threshold = wl.divergence_loss_threshold;

    StragglerSchedule none;
    const GroupPhaseResult r = runtime.run(state, cfg, none);
    if (r.end == PhaseEnd::kDiverged) {
      ++diverged;
      continue;
    }
    const auto conv = profiler.converged_accuracy();
    accs.push_back(conv ? *conv : profiler.final_accuracy());
    if (r.elapsed.seconds() > 0.0)
      thrs.push_back(static_cast<double>(profiler.total_images()) / r.elapsed.seconds());
  }
  Point pt;
  pt.label = "Group-based (Gaia, G=" + std::to_string(num_groups) + ")";
  pt.failed = accs.empty();
  pt.accuracy = mean_of(accs);
  pt.throughput = mean_of(thrs);
  return pt;
}

Point run_policy(const setups::ExperimentSetup& s, const std::string& label,
                 const SyncSwitchPolicy& policy) {
  const auto stats = setups::run_reps(s, policy);
  Point pt;
  pt.label = label;
  pt.failed = setups::all_failed(stats, s.workload.data.num_classes);
  pt.accuracy = stats.mean_accuracy;
  pt.throughput = stats.mean_throughput;
  return pt;
}

SyncSwitchPolicy k_policy(Protocol proto, int k) {
  SyncSwitchPolicy p = SyncSwitchPolicy::pure(proto);
  p.k_param = k;
  return p;
}

}  // namespace

int main() {
  const auto s = setups::setup1();
  std::cout << "Figure 1: the synchronization design space, measured (" << s.workload_name
            << ")\n";

  std::vector<Point> points;
  points.push_back(run_policy(s, "BSP", SyncSwitchPolicy::pure(Protocol::kBsp)));
  points.push_back(run_policy(s, "SSP(3)", SyncSwitchPolicy::pure(Protocol::kSsp)));
  points.push_back(run_policy(s, "DSSP(3,+8)", SyncSwitchPolicy::pure(Protocol::kDssp)));
  points.push_back(run_policy(s, "K-sync (K=6)", k_policy(Protocol::kKSync, 6)));
  points.push_back(run_policy(s, "K-async (K=2)", k_policy(Protocol::kKAsync, 2)));
  points.push_back(run_group_based(s, 2));
  points.push_back(run_policy(s, "ASP", SyncSwitchPolicy::pure(Protocol::kAsp)));
  points.push_back(
      run_policy(s, "Sync-Switch", SyncSwitchPolicy::bsp_to_asp(s.policy_fraction)));

  Table t({"protocol", "converged acc", "throughput (img/s)"});
  for (const auto& pt : points) {
    t.add_row({pt.label, pt.failed ? "Fail" : Table::num(pt.accuracy, 4),
               pt.failed ? "-" : Table::num(pt.throughput, 0)});
  }
  t.print("design space: accuracy vs throughput");

  // ASCII scatter, accuracy (y) vs throughput (x): the paper's Figure 1.
  const double max_thr =
      std::max_element(points.begin(), points.end(), [](const Point& a, const Point& b) {
        return a.throughput < b.throughput;
      })->throughput;
  double min_acc = 1.0;
  double max_acc = 0.0;
  for (const auto& pt : points) {
    if (pt.failed) continue;
    min_acc = std::min(min_acc, pt.accuracy);
    max_acc = std::max(max_acc, pt.accuracy);
  }
  const int width = 68;
  const int height = 16;
  std::vector<std::string> canvas(height, std::string(width, ' '));
  char marker = 'A';
  std::cout << "\n  accuracy\n";
  std::vector<std::string> legend;
  for (const auto& pt : points) {
    const char m = marker++;
    if (pt.failed) {
      legend.push_back(std::string(1, m) + " = " + pt.label + " (failed)");
      continue;
    }
    const int x = std::clamp(
        static_cast<int>(pt.throughput / max_thr * (width - 1)), 0, width - 1);
    const int y = std::clamp(
        static_cast<int>((max_acc - pt.accuracy) / std::max(1e-9, max_acc - min_acc) *
                         (height - 1)),
        0, height - 1);
    // Points may land on the same cell (protocols with near-identical
    // performance); nudge right until a free cell is found.
    int xx = x;
    while (xx < width - 1 && canvas[static_cast<std::size_t>(y)][static_cast<std::size_t>(xx)] != ' ')
      ++xx;
    canvas[static_cast<std::size_t>(y)][static_cast<std::size_t>(xx)] = m;
    legend.push_back(std::string(1, m) + " = " + pt.label);
  }
  for (const auto& row : canvas) std::cout << "  |" << row << "\n";
  std::cout << "  +" << std::string(width, '-') << "> throughput\n\n";
  for (const auto& l : legend) std::cout << "  " << l << "\n";

  std::cout << "\nExpected shape: BSP top-left, ASP bottom-right, SSP/DSSP/K-variants/\n"
               "group-based along the frontier between them, Sync-Switch top-right\n"
               "(the paper's Figure 1 claim).\n";
  return 0;
}
