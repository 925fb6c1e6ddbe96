// Integration: gradient compression inside the simulated PS runtime.
//
// Verifies the two halves of the codec contract end to end: the *network*
// half (compressed pushes shrink wire bytes and, in a network-bound cluster,
// virtual training time) and the *math* half (training on decoded lossy
// gradients still converges).
#include <gtest/gtest.h>

#include <memory>

#include "compress/bank.h"
#include "compress/qsgd.h"
#include "compress/terngrad.h"
#include "compress/topk.h"
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

  /// Network-bound cluster: the full-width push dominates the step time, so
  /// compression has a visible throughput effect.
  static ClusterSpec network_bound(std::size_t workers, std::size_t num_params) {
    ClusterSpec c;
    c.num_workers = workers;
    c.compute_per_batch = VTime::from_ms(2.0);
    c.reference_batch = 8;
    c.compute_jitter_sigma = 0.0;
    c.net_latency = VTime::from_ms(0.5);
    c.payload_bytes = static_cast<double>(num_params) * sizeof(float);
    c.bandwidth_bps = 2e4;  // 20 kB/s: the fp32 transfer dwarfs compute
    c.sync_base = VTime::from_ms(1.0);
    c.sync_quad = VTime::from_ms(0.05);
    c.async_apply = VTime::from_ms(0.1);
    return c;
  }

  PhaseConfig phase(Protocol proto, std::int64_t budget) const {
    PhaseConfig cfg;
    cfg.protocol = proto;
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

TEST(CompressedTraining, PushBytesMatchTheCodec) {
  const std::size_t n = 4;
  Fixture fx(n);
  const std::size_t p = fx.state.ps.num_params();
  SimRuntime runtime(ClusterModel(Fixture::network_bound(n, p)), fx.model, fx.eval_model,
                     fx.split.train, fx.eval_set, fx.null_sink);
  auto codec = std::make_shared<TopKCodec>(0.1);
  CompressorBank bank(codec, n, true);
  PhaseConfig cfg = fx.phase(Protocol::kAsp, 12);
  cfg.compressor = &bank;
  const PhaseResult r =
      runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(r.push_bytes, r.steps_done * static_cast<std::int64_t>(codec->wire_bytes(p)));
}

TEST(CompressedTraining, UncompressedPushBytesAreFullWidth) {
  const std::size_t n = 4;
  Fixture fx(n);
  const std::size_t p = fx.state.ps.num_params();
  const ClusterSpec cs = Fixture::network_bound(n, p);
  SimRuntime runtime(ClusterModel(cs), fx.model, fx.eval_model, fx.split.train, fx.eval_set,
                     fx.null_sink);
  const PhaseConfig cfg = fx.phase(Protocol::kAsp, 12);
  const PhaseResult r =
      runtime.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  EXPECT_EQ(r.push_bytes,
            r.steps_done * static_cast<std::int64_t>(cs.payload_bytes));
}

TEST(CompressedTraining, TopKSpeedsUpNetworkBoundBsp) {
  const std::size_t n = 4;
  const std::int64_t budget = 20 * static_cast<std::int64_t>(n);

  Fixture base(n);
  const std::size_t p = base.state.ps.num_params();
  SimRuntime rt_base(ClusterModel(Fixture::network_bound(n, p)), base.model, base.eval_model,
                     base.split.train, base.eval_set, base.null_sink);
  const PhaseResult uncompressed = rt_base.run_phase(
      base.state, base.phase(Protocol::kBsp, budget), base.workers(n), base.no_stragglers,
      nullptr);

  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::network_bound(n, p)), fx.model, fx.eval_model,
                fx.split.train, fx.eval_set, fx.null_sink);
  CompressorBank bank(std::make_shared<TopKCodec>(0.05), n, true);
  PhaseConfig cfg = fx.phase(Protocol::kBsp, budget);
  cfg.compressor = &bank;
  const PhaseResult compressed =
      rt.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);

  ASSERT_EQ(uncompressed.steps_done, compressed.steps_done);
  // The push leg is ~p*4 bytes vs ~5% of that plus the sparse header; the
  // pull leg is unchanged, so expect a substantial but sub-2x speedup.  (On
  // this tiny 68-param model the fixed header is a visible fraction of the
  // push, hence /8 rather than the raw keep ratio.)
  EXPECT_LT(compressed.elapsed.seconds(), 0.75 * uncompressed.elapsed.seconds());
  EXPECT_LT(compressed.push_bytes, uncompressed.push_bytes / 8);
}

struct ConvergenceCase {
  std::string label;
  std::shared_ptr<GradientCodec> codec;
};

class CompressedConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(CompressedConvergence, BspStillLearnsOnLossyGradients) {
  const std::size_t n = 4;
  const std::int64_t budget = 60 * static_cast<std::int64_t>(n);

  Fixture fx(n);
  const std::size_t p = fx.state.ps.num_params();
  SimRuntime rt(ClusterModel(Fixture::network_bound(n, p)), fx.model, fx.eval_model,
                fx.split.train, fx.eval_set, fx.null_sink);
  auto bank = CompressorBank::with_default_feedback(GetParam().codec, n);
  PhaseConfig cfg = fx.phase(Protocol::kBsp, budget);
  cfg.compressor = &bank;
  const PhaseResult r = rt.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  ASSERT_EQ(r.end, PhaseEnd::kBudgetExhausted);

  fx.eval_model.set_params(fx.state.ps.snapshot());
  const double acc = fx.eval_model.evaluate_accuracy(fx.eval_set);
  // 4 well-separated classes: random is 0.25; trained should be far above.
  EXPECT_GT(acc, 0.6) << "codec " << GetParam().codec->name() << " broke convergence";
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CompressedConvergence,
    ::testing::Values(ConvergenceCase{"topk10", std::make_shared<TopKCodec>(0.1)},
                      ConvergenceCase{"terngrad", std::make_shared<TernGradCodec>()},
                      ConvergenceCase{"qsgd4bit", std::make_shared<QsgdCodec>(15)}),
    [](const ::testing::TestParamInfo<ConvergenceCase>& info) { return info.param.label; });

TEST(CompressedTraining, KSyncChargesCompressedPushes) {
  const std::size_t n = 4;
  const std::int64_t budget = 12 * 3;

  Fixture base(n);
  const std::size_t p = base.state.ps.num_params();
  SimRuntime rt_base(ClusterModel(Fixture::network_bound(n, p)), base.model, base.eval_model,
                     base.split.train, base.eval_set, base.null_sink);
  PhaseConfig plain = base.phase(Protocol::kKSync, budget);
  plain.k_param = 3;
  const PhaseResult uncompressed =
      rt_base.run_phase(base.state, plain, base.workers(n), base.no_stragglers, nullptr);

  Fixture fx(n);
  SimRuntime rt(ClusterModel(Fixture::network_bound(n, p)), fx.model, fx.eval_model,
                fx.split.train, fx.eval_set, fx.null_sink);
  CompressorBank bank(std::make_shared<TopKCodec>(0.05), n, true);
  PhaseConfig cfg = fx.phase(Protocol::kKSync, budget);
  cfg.k_param = 3;
  cfg.compressor = &bank;
  const PhaseResult compressed =
      rt.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);

  ASSERT_EQ(uncompressed.steps_done, compressed.steps_done);
  EXPECT_LT(compressed.elapsed.seconds(), 0.8 * uncompressed.elapsed.seconds());
  EXPECT_LT(compressed.push_bytes, uncompressed.push_bytes / 8);
}

TEST(CompressedTraining, AspWithQsgdStaysFiniteAndLearns) {
  const std::size_t n = 4;
  Fixture fx(n);
  const std::size_t p = fx.state.ps.num_params();
  SimRuntime rt(ClusterModel(Fixture::network_bound(n, p)), fx.model, fx.eval_model,
                fx.split.train, fx.eval_set, fx.null_sink);
  CompressorBank bank(std::make_shared<QsgdCodec>(15), n, false);
  PhaseConfig cfg = fx.phase(Protocol::kAsp, 240);
  cfg.compressor = &bank;
  const PhaseResult r = rt.run_phase(fx.state, cfg, fx.workers(n), fx.no_stragglers, nullptr);
  ASSERT_EQ(r.end, PhaseEnd::kBudgetExhausted);
  fx.eval_model.set_params(fx.state.ps.snapshot());
  EXPECT_GT(fx.eval_model.evaluate_accuracy(fx.eval_set), 0.5);
}

}  // namespace
}  // namespace ss
