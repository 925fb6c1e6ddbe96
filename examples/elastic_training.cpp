// Elastic training on real threads: the cluster changes under the run.
//
// An ASP run on 4 worker threads survives a scripted failure story:
//
//   * 30% in, worker 1 CRASHES.  The AsyncSnapshotter has been taking
//     copy-on-read snapshots of the sharded PS in the background, so the
//     RecoveryCoordinator retires the dead slot and rolls parameters +
//     optimizer velocity back to the last snapshot (losing at most one
//     snapshot interval of updates); the runtime joins the dead thread and
//     re-derives hyper-parameters for n = 3.
//   * 60% in, a replacement JOINS: a fresh worker slot (own data shard, own
//     RNG streams) is spawned, pulls the current parameters, and the
//     cluster is back to 4.
//
// The run finishes its full per-worker step budget and lands within
// tolerance of the uninterrupted baseline — the elastic machinery costs a
// bounded window of updates, not convergence.
//
//   $ ./build/example_elastic_training
#include <cmath>
#include <cstdio>
#include <iostream>

#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/threaded_runtime.h"

using namespace ss;

namespace {

void print_membership_table(const ThreadedTrainResult& result) {
  std::printf("  %-7s %-7s %8s %9s %9s %13s %11s\n", "event", "worker", "at step",
              "n after", "lr after", "updates lost", "recovery s");
  for (const ThreadedMembershipStats& m : result.membership)
    std::printf("  %-7s %-7d %8lld %9zu %9.4f %13lld %11.6f\n",
                membership_event_name(m.kind).c_str(), m.worker,
                static_cast<long long>(m.at_step), m.workers_after, m.lr_after,
                static_cast<long long>(m.updates_lost), m.recovery_wall_seconds);
}

}  // namespace

int main() {
  std::cout << "Elastic threaded training: crash at 30%, rejoin at 60%\n\n";

  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 4096;
  spec.test_size = 1024;
  const DataSplit data = make_synthetic(spec);

  Rng rng(21);
  Model model = make_model(ModelArch::kResNet32Lite, spec.feature_dim, spec.num_classes, rng);
  std::cout << "initial test accuracy: " << model.evaluate_accuracy(data.test) << "\n\n";

  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.batch_size = 64;
  cfg.steps_per_worker = 150;
  cfg.lr = 0.05;
  cfg.momentum = 0.9;
  cfg.seed = 42;
  cfg.num_ps_shards = 8;

  // Uninterrupted baseline.
  const ThreadedTrainResult clean = threaded_train(model, data.train, cfg);
  Model clean_model = model.clone();
  clean_model.set_params(clean.final_params);
  const double clean_acc = clean_model.evaluate_accuracy(data.test);
  std::cout << "baseline ASP (no failures): " << clean.total_updates
            << " PS updates, test accuracy " << clean_acc << "\n\n";

  // The same run, except the cluster misbehaves: crash at step 45 (30% of
  // 150), a replacement joins at step 90 (60%).  Snapshots every 100 PS
  // updates bound what the crash can destroy.
  cfg.elastic.plan = MembershipPlan({{MembershipEventKind::kCrash, 1, 45},
                                     {MembershipEventKind::kJoin, -1, 90}});
  cfg.elastic.snapshot_interval = 100;
  cfg.elastic.recovery = RecoveryMode::kRestoreSnapshot;

  const ThreadedTrainResult elastic = threaded_train(model, data.train, cfg);
  Model elastic_model = model.clone();
  elastic_model.set_params(elastic.final_params);
  const double elastic_acc = elastic_model.evaluate_accuracy(data.test);

  std::cout << "elastic ASP (crash + rejoin): " << elastic.total_updates
            << " PS updates, " << elastic.snapshots_taken << " snapshots, test accuracy "
            << elastic_acc << "\n\n";
  print_membership_table(elastic);

  std::cout << "\naccuracy delta vs uninterrupted run: " << elastic_acc - clean_acc
            << (std::abs(elastic_acc - clean_acc) < 0.1 ? "  (within tolerance)" : "")
            << "\n";
  std::cout << "\nNote: the crash rolls the sharded PS back to the last asynchronous\n"
               "snapshot (taken copy-on-read, one shard lock at a time, while workers\n"
               "keep pushing), so at most one snapshot interval of updates is lost.\n"
               "The join spawns a fresh worker thread mid-run: barriers are re-sized,\n"
               "the detector re-scoped, and the learning rate re-derived for the new n.\n";
  return 0;
}
