// Semantics of the K-variant protocol family (Dutta et al., paper reference
// [11]): K-sync, K-batch-sync, K-async, K-batch-async.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/sim_runtime.h"

namespace ss {
namespace {

struct Fixture {
  explicit Fixture(std::size_t workers, std::uint64_t seed = 5, std::size_t batch = 8)
      : spec(make_spec()),
        split(make_synthetic(spec)),
        eval_set(split.test.head(128)),
        root(seed),
        model([&] {
          Rng init = root.fork(1);
          return make_model(ModelArch::kLinear, spec.feature_dim, spec.num_classes, init);
        }()),
        eval_model(model.clone()),
        state(make_state(workers, batch)),
        schedule(0.05) {}

  static SyntheticSpec make_spec() {
    SyntheticSpec s = SyntheticSpec::cifar10_like();
    s.train_size = 512;
    s.test_size = 256;
    s.num_classes = 4;
    s.feature_dim = 16;
    s.class_separation = 1.2;
    return s;
  }

  TrainingState make_state(std::size_t workers, std::size_t batch) {
    const auto shards = make_shards(split.train.size(), workers);
    std::vector<MinibatchSampler> samplers;
    std::vector<Rng> rngs;
    for (std::size_t w = 0; w < workers; ++w) {
      samplers.emplace_back(shards[w], batch, root.fork(100 + w));
      rngs.push_back(root.fork(200 + w));
    }
    return TrainingState(SharedParameterServer(model.get_params(), 0.9), std::move(samplers),
                         std::move(rngs));
  }

  static ClusterSpec cluster_spec(std::size_t workers) {
    ClusterSpec c;
    c.num_workers = workers;
    c.compute_per_batch = VTime::from_ms(10.0);
    c.reference_batch = 8;
    c.compute_jitter_sigma = 0.1;
    c.net_latency = VTime::from_ms(1.0);
    c.payload_bytes = 1000.0;
    c.bandwidth_bps = 1e8;
    c.sync_base = VTime::from_ms(5.0);
    c.sync_quad = VTime::from_ms(0.1);
    c.async_apply = VTime::from_ms(0.1);
    return c;
  }

  PhaseConfig phase(Protocol proto, std::int64_t budget, int k = 0) const {
    PhaseConfig cfg;
    cfg.protocol = proto;
    cfg.k_param = k;
    cfg.step_budget = budget;
    cfg.lr_schedule = &schedule;
    cfg.lr_multiplier = 1.0;
    cfg.per_worker_batch = 8;
    cfg.momentum = 0.9;
    cfg.eval_interval = 0;
    return cfg;
  }

  std::vector<int> workers(std::size_t n) const {
    std::vector<int> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<int>(i);
    return out;
  }

  SyntheticSpec spec;
  DataSplit split;
  Dataset eval_set;
  Rng root;
  Model model;
  Model eval_model;
  TrainingState state;
  ConstantLr schedule;
  StragglerSchedule no_stragglers;
  NullMetricsSink null_sink;
};

/// Records every PS update (protocol, staleness, step counts).
class UpdateRecorder final : public MetricsSink {
 public:
  void on_task(const TaskObservation& obs) override { tasks.push_back(obs); }
  void on_update(const UpdateObservation& obs) override { updates.push_back(obs); }
  void on_eval(std::int64_t, VTime, double) override {}
  std::vector<TaskObservation> tasks;
  std::vector<UpdateObservation> updates;
};

TEST(KSync, KEqualToClusterSizeIsBitwiseBsp) {
  const std::size_t n = 4;
  Fixture a(n);
  Fixture b(n);
  SimRuntime rt_a(ClusterModel(Fixture::cluster_spec(n)), a.model, a.eval_model, a.split.train,
                  a.eval_set, a.null_sink);
  SimRuntime rt_b(ClusterModel(Fixture::cluster_spec(n)), b.model, b.eval_model, b.split.train,
                  b.eval_set, b.null_sink);

  const auto budget = static_cast<std::int64_t>(6 * n);
  const PhaseResult ra = rt_a.run_phase(a.state, a.phase(Protocol::kBsp, budget), a.workers(n),
                                        a.no_stragglers, nullptr);
  const PhaseResult rb =
      rt_b.run_phase(b.state, b.phase(Protocol::kKSync, budget, static_cast<int>(n)),
                     b.workers(n), b.no_stragglers, nullptr);

  ASSERT_EQ(ra.steps_done, rb.steps_done);
  EXPECT_EQ(ra.elapsed, rb.elapsed);
  const auto pa = a.state.ps.snapshot();
  const auto pb = b.state.ps.snapshot();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]) << "param " << i;
}

TEST(KSync, RoundTimeIsKthFastestNotSlowest) {
  // With one permanent 10x straggler, K-sync with K = n-1 should never wait
  // for it: the elapsed time must be far below BSP's on the same cluster.
  const std::size_t n = 4;
  StragglerScenario scenario;
  auto schedule = StragglerSchedule::permanent(/*worker=*/0, /*slow_factor=*/10.0);

  Fixture bsp(n);
  SimRuntime rt_bsp(ClusterModel(Fixture::cluster_spec(n)), bsp.model, bsp.eval_model,
                    bsp.split.train, bsp.eval_set, bsp.null_sink);
  const PhaseResult rb = rt_bsp.run_phase(bsp.state, bsp.phase(Protocol::kBsp, 6 * 4),
                                          bsp.workers(n), schedule, nullptr);

  Fixture ks(n);
  SimRuntime rt_ks(ClusterModel(Fixture::cluster_spec(n)), ks.model, ks.eval_model,
                   ks.split.train, ks.eval_set, ks.null_sink);
  const PhaseResult rk = rt_ks.run_phase(ks.state, ks.phase(Protocol::kKSync, 6 * 3, 3),
                                         ks.workers(n), schedule, nullptr);

  // Same number of rounds (6); each BSP round pays the 10x task.
  EXPECT_LT(rk.elapsed.seconds(), 0.5 * rb.elapsed.seconds());
}

TEST(KSync, CountsCancelledTasks) {
  const std::size_t n = 5;
  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, fx.null_sink);
  const PhaseResult r = rt.run_phase(fx.state, fx.phase(Protocol::kKSync, 4 * 3, 3),
                                     fx.workers(n), fx.no_stragglers, nullptr);
  // 4 rounds of 3 steps each; each round cancels n - k = 2 workers.
  EXPECT_EQ(r.steps_done, 12);
  EXPECT_EQ(r.cancelled_tasks, 4 * 2);
}

TEST(KSync, UpdatesHaveZeroStaleness) {
  const std::size_t n = 4;
  Fixture fx(n);
  UpdateRecorder rec;
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, rec);
  rt.run_phase(fx.state, fx.phase(Protocol::kKSync, 9, 3), fx.workers(n), fx.no_stragglers,
               nullptr);
  ASSERT_FALSE(rec.updates.empty());
  for (const auto& u : rec.updates) {
    EXPECT_EQ(u.staleness, 0);
    EXPECT_EQ(u.protocol, Protocol::kKSync);
  }
}

TEST(KBatchSync, FastWorkersContributeMultipleBatches) {
  // Worker 0 is 10x slower permanently; with K = n batches per round the
  // fast workers should fill the quota and the straggler should contribute
  // to (almost) no rounds.
  const std::size_t n = 3;
  auto schedule = StragglerSchedule::permanent(0, 10.0);
  Fixture fx(n);
  UpdateRecorder rec;
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, rec);
  rt.run_phase(fx.state, fx.phase(Protocol::kKBatchSync, 5 * 3, 3), fx.workers(n), schedule,
               nullptr);

  std::map<int, int> contributions;
  for (const auto& t : rec.tasks) contributions[t.worker]++;
  // Fast workers (1, 2) must dominate; the straggler is at most a rare contributor.
  EXPECT_GT(contributions[1] + contributions[2], 4 * contributions[0]);
  EXPECT_EQ(rec.tasks.size(), 15u);  // K contributions per round, 5 rounds
}

TEST(KBatchSync, KEqualToClusterSizeStillSynchronous) {
  const std::size_t n = 4;
  Fixture fx(n);
  UpdateRecorder rec;
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, rec);
  const PhaseResult r = rt.run_phase(fx.state, fx.phase(Protocol::kKBatchSync, 12, 4),
                                     fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(r.steps_done, 12);
  EXPECT_EQ(r.mean_staleness, 0.0);
  for (const auto& u : rec.updates) EXPECT_EQ(u.protocol, Protocol::kKBatchSync);
}

TEST(KAsync, AppliesOneUpdatePerKContributions) {
  const std::size_t n = 4;
  Fixture fx(n);
  UpdateRecorder rec;
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, rec);
  const PhaseResult r = rt.run_phase(fx.state, fx.phase(Protocol::kKAsync, 24, 2), fx.workers(n),
                                     fx.no_stragglers, nullptr);
  EXPECT_EQ(r.steps_done, 24);
  // Every update consumed >= K contributions, so there are at most steps/K.
  EXPECT_LE(static_cast<std::int64_t>(rec.updates.size()), 12);
  EXPECT_GT(rec.updates.size(), 0u);
  // PS version advanced once per aggregated update, not per contribution.
  std::vector<float> params(fx.state.ps.num_params());
  std::vector<std::int64_t> versions;
  fx.state.ps.pull_with_versions(params, versions);
  EXPECT_EQ(versions, std::vector<std::int64_t>{static_cast<std::int64_t>(rec.updates.size())});
}

TEST(KAsync, StalenessIsLowerThanAsp) {
  // Aggregating K gradients per version means fewer versions race past an
  // in-flight worker: mean staleness (in versions) must be below ASP's.
  const std::size_t n = 6;
  Fixture asp(n);
  SimRuntime rt_asp(ClusterModel(Fixture::cluster_spec(n)), asp.model, asp.eval_model,
                    asp.split.train, asp.eval_set, asp.null_sink);
  const PhaseResult ra = rt_asp.run_phase(asp.state, asp.phase(Protocol::kAsp, 120),
                                          asp.workers(n), asp.no_stragglers, nullptr);

  Fixture ka(n);
  SimRuntime rt_ka(ClusterModel(Fixture::cluster_spec(n)), ka.model, ka.eval_model,
                   ka.split.train, ka.eval_set, ka.null_sink);
  const PhaseResult rk = rt_ka.run_phase(ka.state, ka.phase(Protocol::kKAsync, 120, 3),
                                         ka.workers(n), ka.no_stragglers, nullptr);

  EXPECT_GT(ra.mean_staleness, 0.0);
  EXPECT_LT(rk.mean_staleness, ra.mean_staleness);
}

TEST(KBatchAsync, TriggersOnAnyKGradients) {
  const std::size_t n = 4;
  Fixture fx(n);
  UpdateRecorder rec;
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, rec);
  const PhaseResult r = rt.run_phase(fx.state, fx.phase(Protocol::kKBatchAsync, 24, 3),
                                     fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(r.steps_done, 24);
  // Buffer triggers at exactly 3 in batch mode: 24 / 3 = 8 updates.
  EXPECT_EQ(rec.updates.size(), 8u);
  for (const auto& u : rec.updates) EXPECT_EQ(u.protocol, Protocol::kKBatchAsync);
}

TEST(KAsync, RespectsStopPredicate) {
  const std::size_t n = 4;
  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, fx.null_sink);
  const PhaseResult r =
      rt.run_phase(fx.state, fx.phase(Protocol::kKAsync, 1000, 2), fx.workers(n),
                   fx.no_stragglers, [](VTime, std::int64_t step) { return step >= 10; });
  EXPECT_EQ(r.end, PhaseEnd::kStopRequested);
  EXPECT_GE(fx.state.global_step, 10);
  EXPECT_LT(fx.state.global_step, 1000);
}

TEST(KProtocols, DefaultKIsClusterSize) {
  // k_param = 0: K-sync behaves like BSP (all workers per round).
  const std::size_t n = 3;
  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, fx.null_sink);
  const PhaseResult r = rt.run_phase(fx.state, fx.phase(Protocol::kKSync, 9, 0), fx.workers(n),
                                     fx.no_stragglers, nullptr);
  EXPECT_EQ(r.steps_done, 9);
  EXPECT_EQ(r.cancelled_tasks, 0);  // K = n: nobody cancelled
}

TEST(KProtocols, OversizedKClampsToClusterSize) {
  const std::size_t n = 3;
  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, fx.null_sink);
  const PhaseResult r = rt.run_phase(fx.state, fx.phase(Protocol::kKSync, 9, 64), fx.workers(n),
                                     fx.no_stragglers, nullptr);
  EXPECT_EQ(r.steps_done, 9);
  EXPECT_EQ(r.cancelled_tasks, 0);
}

class KSweep : public ::testing::TestWithParam<int> {};

TEST_P(KSweep, KAsyncConvergesForAllK) {
  const std::size_t n = 4;
  const int k = GetParam();
  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, fx.null_sink);
  PhaseConfig cfg = fx.phase(Protocol::kKAsync, 240, k);
  cfg.lr_multiplier = static_cast<double>(k);  // linear scaling with K
  const PhaseResult r = rt.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  ASSERT_EQ(r.end, PhaseEnd::kBudgetExhausted);
  fx.eval_model.set_params(fx.state.ps.snapshot());
  EXPECT_GT(fx.eval_model.evaluate_accuracy(fx.eval_set), 0.6) << "K=" << k;
}

TEST_P(KSweep, KSyncConvergesForAllK) {
  const std::size_t n = 4;
  const int k = GetParam();
  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::cluster_spec(n)), fx.model, fx.eval_model, fx.split.train,
                fx.eval_set, fx.null_sink);
  PhaseConfig cfg = fx.phase(Protocol::kKSync, 240, k);
  cfg.lr_multiplier = static_cast<double>(k);
  const PhaseResult r = rt.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  ASSERT_EQ(r.end, PhaseEnd::kBudgetExhausted);
  fx.eval_model.set_params(fx.state.ps.snapshot());
  EXPECT_GT(fx.eval_model.evaluate_accuracy(fx.eval_set), 0.6) << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(K, KSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ss
