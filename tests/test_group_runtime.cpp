// Group-based hybrid synchronization (Gaia-style) semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/group_runtime.h"

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

  GroupConfig config(std::size_t groups, std::int64_t budget,
                     double threshold = 0.01) const {
    GroupConfig cfg;
    cfg.num_groups = groups;
    cfg.significance_threshold = threshold;
    cfg.step_budget = budget;
    cfg.lr_schedule = &schedule;
    cfg.lr_multiplier = 1.0;
    cfg.per_worker_batch = 8;
    cfg.momentum = 0.9;
    cfg.eval_interval = 0;
    return cfg;
  }

  GroupRuntime runtime() {
    return GroupRuntime(ClusterModel(cluster_spec(state.samplers.size())), model, eval_model,
                        split.train, eval_set, null_sink);
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

TEST(GroupRuntime, ValidatesConfig) {
  Fixture fx(4);
  auto rt = fx.runtime();
  GroupConfig cfg = fx.config(2, 16);
  cfg.lr_schedule = nullptr;
  EXPECT_THROW(rt.run(fx.state, cfg, fx.no_stragglers), ConfigError);

  cfg = fx.config(0, 16);
  EXPECT_THROW(rt.run(fx.state, cfg, fx.no_stragglers), ConfigError);

  cfg = fx.config(8, 16);  // more groups than the 4 workers
  EXPECT_THROW(rt.run(fx.state, cfg, fx.no_stragglers), ConfigError);

  cfg = fx.config(2, 16, -0.5);
  EXPECT_THROW(rt.run(fx.state, cfg, fx.no_stragglers), ConfigError);
}

TEST(GroupRuntime, SingleGroupHasNoBroadcastsOrDrift) {
  Fixture fx(4);
  auto rt = fx.runtime();
  const GroupPhaseResult r = rt.run(fx.state, fx.config(1, 16), fx.no_stragglers);
  EXPECT_EQ(r.end, PhaseEnd::kBudgetExhausted);
  EXPECT_EQ(r.steps_done, 16);
  EXPECT_EQ(r.broadcasts, 0);
  EXPECT_EQ(r.mean_replica_divergence, 0.0);
}

TEST(GroupRuntime, CompletesBudgetAcrossGroups) {
  Fixture fx(6);
  auto rt = fx.runtime();
  const GroupPhaseResult r = rt.run(fx.state, fx.config(2, 60), fx.no_stragglers);
  EXPECT_EQ(r.end, PhaseEnd::kBudgetExhausted);
  EXPECT_GE(r.steps_done, 60);
  EXPECT_GT(r.broadcasts, 0);
}

TEST(GroupRuntime, ZeroThresholdBroadcastsEverything) {
  Fixture fx(4);
  auto rt = fx.runtime();
  const GroupPhaseResult r = rt.run(fx.state, fx.config(2, 40, 0.0), fx.no_stragglers);
  // Every coordinate moves every round (dense gradients + momentum), so the
  // significance filter passes (almost) everything.
  EXPECT_GT(r.mean_significant_fraction, 0.95);
}

TEST(GroupRuntime, HugeThresholdSuppressesBroadcastsAndCausesDrift) {
  Fixture low(4);
  auto rt_low = low.runtime();
  const GroupPhaseResult rl = rt_low.run(low.state, low.config(2, 40, 0.001), low.no_stragglers);

  Fixture high(4);
  auto rt_high = high.runtime();
  const GroupPhaseResult rh =
      rt_high.run(high.state, high.config(2, 40, 1e9), high.no_stragglers);

  EXPECT_EQ(rh.broadcasts, 0);
  EXPECT_GT(rl.broadcasts, 0);
  // Without broadcasts the replicas only share their initialization: drift
  // must exceed the coupled configuration's.
  EXPECT_GT(rh.mean_replica_divergence, rl.mean_replica_divergence);
}

TEST(GroupRuntime, LearnsTheTask) {
  Fixture fx(4);
  auto rt = fx.runtime();
  const GroupPhaseResult r = rt.run(fx.state, fx.config(2, 480), fx.no_stragglers);
  ASSERT_EQ(r.end, PhaseEnd::kBudgetExhausted);
  fx.eval_model.set_params(fx.state.ps.snapshot());
  EXPECT_GT(fx.eval_model.evaluate_accuracy(fx.eval_set), 0.6);
}

TEST(GroupRuntime, FoldsAverageBackIntoParameterServer) {
  Fixture fx(4);
  auto rt = fx.runtime();
  std::vector<float> before(fx.state.ps.num_params());
  std::vector<std::int64_t> versions_before;
  fx.state.ps.pull_with_versions(before, versions_before);
  rt.run(fx.state, fx.config(2, 16), fx.no_stragglers);
  std::vector<float> after(fx.state.ps.num_params());
  std::vector<std::int64_t> versions_after;
  fx.state.ps.pull_with_versions(after, versions_after);
  EXPECT_GT(versions_after[0], versions_before[0]);
  // Training moved the parameters.
  double diff = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i)
    diff += std::fabs(static_cast<double>(after[i]) - before[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(GroupRuntime, StragglerInOneGroupDoesNotBlockTheOther) {
  // Worker 0 is permanently 10x slower.  With 2 groups (round-robin: worker
  // 0 in group 0), group 1 should complete many more rounds than group 0 —
  // i.e. total time is far below what a global barrier would cost.
  const std::size_t n = 4;
  auto schedule = StragglerSchedule::permanent(0, 10.0);

  Fixture grouped(n);
  auto rt_g = grouped.runtime();
  const GroupPhaseResult rg = rt_g.run(grouped.state, grouped.config(2, 80), schedule);

  Fixture global(n);
  auto rt_b = global.runtime();
  const GroupPhaseResult rb = rt_b.run(global.state, global.config(1, 80), schedule);

  EXPECT_LT(rg.elapsed.seconds(), 0.7 * rb.elapsed.seconds());
}

TEST(GroupRuntime, DivergenceIsDetected) {
  Fixture fx(4);
  ConstantLr explosive(1e5);
  auto rt = fx.runtime();
  GroupConfig cfg = fx.config(2, 400);
  cfg.lr_schedule = &explosive;
  // Softmax CE saturates around -log(1e-12) ~ 27.6; use a threshold the
  // exploded-but-saturated loss will cross.
  cfg.divergence_loss_threshold = 5.0;
  const GroupPhaseResult r = rt.run(fx.state, cfg, fx.no_stragglers);
  EXPECT_EQ(r.end, PhaseEnd::kDiverged);
  EXPECT_LT(r.steps_done, 400);
}

class GroupCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupCount, AllGroupCountsConverge) {
  const std::size_t groups = GetParam();
  Fixture fx(8);
  auto rt = fx.runtime();
  const GroupPhaseResult r = rt.run(fx.state, fx.config(groups, 480), fx.no_stragglers);
  ASSERT_EQ(r.end, PhaseEnd::kBudgetExhausted) << groups << " groups";
  fx.eval_model.set_params(fx.state.ps.snapshot());
  EXPECT_GT(fx.eval_model.evaluate_accuracy(fx.eval_set), 0.6) << groups << " groups";
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupCount, ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace ss
