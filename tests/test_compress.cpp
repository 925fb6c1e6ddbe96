#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/bank.h"
#include "compress/codec.h"
#include "compress/qsgd.h"
#include "compress/terngrad.h"
#include "compress/topk.h"
#include "topk_test_inputs.h"

namespace ss {
namespace {

using topk_test::adversarial_gradient;
using topk_test::reference_topk;
using topk_test::same_bits;

std::vector<float> ramp(std::size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = scale * static_cast<float>(i + 1) * ((i % 2 == 0) ? 1.0f : -1.0f);
  return v;
}

// ---------------------------------------------------------------- Identity

TEST(IdentityCodec, IsANoOpAndChargesFullWidth) {
  IdentityCodec codec;
  Rng rng(1);
  std::vector<float> g = ramp(17);
  const std::vector<float> before = g;
  const std::size_t bytes = codec.transform(g, rng);
  EXPECT_EQ(g, before);
  EXPECT_EQ(bytes, 17 * sizeof(float));
  EXPECT_EQ(codec.wire_bytes(17), 17 * sizeof(float));
  EXPECT_TRUE(codec.unbiased());
}

// ------------------------------------------------------------------- TopK

TEST(TopK, RejectsBadFraction) {
  EXPECT_THROW(TopKCodec(0.0), ConfigError);
  EXPECT_THROW(TopKCodec(-0.5), ConfigError);
  EXPECT_THROW(TopKCodec(1.5), ConfigError);
  EXPECT_NO_THROW(TopKCodec(1.0));
}

TEST(TopK, KeepsExactlyTheLargestMagnitudes) {
  TopKCodec codec(0.25);
  Rng rng(1);
  // Magnitudes 1..8; top-2 are the entries with values -8 and 7.
  std::vector<float> g = {1.0f, -2.0f, 3.0f, -4.0f, 5.0f, -6.0f, 7.0f, -8.0f};
  codec.transform(g, rng);
  const std::vector<float> want = {0, 0, 0, 0, 0, 0, 7.0f, -8.0f};
  EXPECT_EQ(g, want);
}

TEST(TopK, AlwaysKeepsAtLeastOneCoordinate) {
  TopKCodec codec(0.001);
  Rng rng(1);
  std::vector<float> g = {0.5f, -2.0f, 1.0f};
  codec.transform(g, rng);
  EXPECT_EQ(codec.kept(3), 1u);
  const std::vector<float> want = {0.0f, -2.0f, 0.0f};
  EXPECT_EQ(g, want);
}

TEST(TopK, FullFractionKeepsEverything) {
  TopKCodec codec(1.0);
  Rng rng(1);
  std::vector<float> g = ramp(9);
  const std::vector<float> before = g;
  codec.transform(g, rng);
  EXPECT_EQ(g, before);
}

TEST(TopK, TieBreakIsDeterministicLowestIndexWins) {
  TopKCodec codec(0.5);
  Rng rng(1);
  std::vector<float> g = {2.0f, -2.0f, 2.0f, -2.0f};  // all same magnitude
  codec.transform(g, rng);
  const std::vector<float> want = {2.0f, -2.0f, 0.0f, 0.0f};
  EXPECT_EQ(g, want);
}

TEST(TopK, WireBytesCountIndexValuePairsPlusHeader) {
  TopKCodec codec(0.1);
  EXPECT_EQ(codec.kept(1000), 100u);
  EXPECT_EQ(codec.wire_bytes(1000), 100u * 8u + TopKCodec::kHeaderBytes);
  // Far smaller than fp32.
  EXPECT_LT(codec.wire_bytes(1000), 1000 * sizeof(float));
  EXPECT_FALSE(codec.unbiased());
  EXPECT_EQ(codec.name(), "topk(10%)");
}

// ------------------------------------------------- TopK selection property

TEST(TopKSelection, MatchesTheComparatorSelectorOnAdversarialInputs) {
  // 1 coordinate, 1%, and either side of the 50% dense fallback.
  const std::vector<double> fractions = {1e-9, 0.01, 0.4999, 0.5001};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const std::size_t n : {1u, 2u, 3u, 4097u, 102500u}) {
      const std::vector<float> g = adversarial_gradient(n, seed);
      for (const double f : fractions) {
        const TopKCodec codec(f);
        const std::size_t k = codec.kept(n);
        const std::vector<std::uint32_t> want_idx = reference_topk(g, k);
        std::vector<float> want_dense(n, 0.0f);
        for (const std::uint32_t i : want_idx) want_dense[i] = g[i];
        const auto where = ::testing::Message() << "seed " << seed << " n " << n << " f " << f;

        Rng rng(seed);
        std::vector<float> transformed = g;
        ASSERT_EQ(codec.transform(transformed, rng), codec.wire_bytes(n)) << where;
        ASSERT_TRUE(same_bits(transformed, want_dense)) << where;

        const CompressedPush push = codec.encode(g, rng);
        ASSERT_EQ(push.wire_size, codec.wire_bytes(n)) << where;
        if (push.sparse()) {
          ASSERT_EQ(push.indices, want_idx) << where;
          std::vector<float> want_values;
          for (const std::uint32_t i : want_idx) want_values.push_back(g[i]);
          ASSERT_TRUE(same_bits(push.values, want_values)) << where;
        } else {
          ASSERT_TRUE(same_bits(push.values, want_dense)) << where;
        }
      }
    }
  }
}

// --------------------------------------------------------------- TernGrad

TEST(TernGrad, OutputsAreTernary) {
  TernGradCodec codec(/*clip_sigma=*/0.0);
  Rng rng(7);
  std::vector<float> g = ramp(256, 0.01f);
  float scale = 0.0f;
  for (float v : g) scale = std::max(scale, std::fabs(v));
  codec.transform(g, rng);
  for (float v : g) {
    EXPECT_TRUE(v == 0.0f || std::fabs(std::fabs(v) - scale) < 1e-6f)
        << "non-ternary value " << v << " (scale " << scale << ")";
  }
}

TEST(TernGrad, ZeroGradientStaysZero) {
  TernGradCodec codec;
  Rng rng(7);
  std::vector<float> g(64, 0.0f);
  codec.transform(g, rng);
  for (float v : g) EXPECT_EQ(v, 0.0f);
}

TEST(TernGrad, IsUnbiasedInExpectation) {
  TernGradCodec codec(/*clip_sigma=*/0.0);
  Rng rng(42);
  const std::vector<float> g = {0.8f, -0.4f, 0.2f, -0.1f};
  std::vector<double> mean(g.size(), 0.0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    std::vector<float> copy = g;
    codec.transform(copy, rng);
    for (std::size_t i = 0; i < g.size(); ++i) mean[i] += copy[i];
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    mean[i] /= reps;
    EXPECT_NEAR(mean[i], g[i], 0.02) << "coordinate " << i;
  }
}

TEST(TernGrad, ClippingBoundsTheScale) {
  // One huge outlier: with clipping the ternary scale must be far below it.
  TernGradCodec clipped(/*clip_sigma=*/2.0);
  Rng rng(3);
  std::vector<float> g(128, 0.01f);
  g[0] = 100.0f;
  clipped.transform(g, rng);
  float scale = 0.0f;
  for (float v : g) scale = std::max(scale, std::fabs(v));
  EXPECT_LT(scale, 50.0f);
}

TEST(TernGrad, WireBytesAreTwoBitsPerCoord) {
  TernGradCodec codec;
  EXPECT_EQ(codec.wire_bytes(16), 16u * 2u / 8u + 4u);
  EXPECT_EQ(codec.wire_bytes(17), (17u * 2u + 7u) / 8u + 4u);
  EXPECT_TRUE(codec.unbiased());
}

// ------------------------------------------------------------------- QSGD

TEST(Qsgd, RejectsBadLevels) {
  EXPECT_THROW(QsgdCodec(0), ConfigError);
  EXPECT_THROW(QsgdCodec(-4), ConfigError);
  EXPECT_NO_THROW(QsgdCodec(1));
}

TEST(Qsgd, OutputsLieOnTheQuantizationGrid) {
  const int s = 4;
  QsgdCodec codec(s);
  Rng rng(11);
  std::vector<float> g = ramp(64, 0.05f);
  double sq = 0.0;
  for (float v : g) sq += static_cast<double>(v) * v;
  const double norm = std::sqrt(sq);
  codec.transform(g, rng);
  for (float v : g) {
    const double level = std::fabs(v) / norm * s;
    EXPECT_NEAR(level, std::round(level), 1e-4) << "value " << v << " off-grid";
    EXPECT_LE(level, s + 1e-4);
  }
}

TEST(Qsgd, IsUnbiasedInExpectation) {
  QsgdCodec codec(2);
  Rng rng(99);
  const std::vector<float> g = {0.9f, -0.3f, 0.15f, 0.05f};
  std::vector<double> mean(g.size(), 0.0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    std::vector<float> copy = g;
    codec.transform(copy, rng);
    for (std::size_t i = 0; i < g.size(); ++i) mean[i] += copy[i];
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    mean[i] /= reps;
    EXPECT_NEAR(mean[i], g[i], 0.02) << "coordinate " << i;
  }
}

TEST(Qsgd, ZeroGradientStaysZero) {
  QsgdCodec codec(15);
  Rng rng(5);
  std::vector<float> g(32, 0.0f);
  codec.transform(g, rng);
  for (float v : g) EXPECT_EQ(v, 0.0f);
}

TEST(Qsgd, BitsPerCoordMatchesLevels) {
  EXPECT_EQ(QsgdCodec(1).bits_per_coord(), 2);    // sign + 1 bit for {0,1}
  EXPECT_EQ(QsgdCodec(15).bits_per_coord(), 5);   // sign + 4 bits
  EXPECT_EQ(QsgdCodec(255).bits_per_coord(), 9);  // sign + 8 bits
  EXPECT_EQ(QsgdCodec(15).name(), "qsgd(s=15)");
}

TEST(Qsgd, WireBytesShrinkWithCoarserLevels) {
  const std::size_t n = 10000;
  EXPECT_LT(QsgdCodec(3).wire_bytes(n), QsgdCodec(255).wire_bytes(n));
  EXPECT_LT(QsgdCodec(255).wire_bytes(n), n * sizeof(float));
}

// ----------------------------------------------------- Parameterized sweep

struct CodecCase {
  std::string label;
  std::shared_ptr<GradientCodec> codec;
};

class AnyCodec : public ::testing::TestWithParam<CodecCase> {};

TEST_P(AnyCodec, TransformReportsItsOwnWireEstimate) {
  const auto& codec = *GetParam().codec;
  Rng rng(17);
  for (const std::size_t n : {1u, 7u, 64u, 1001u}) {
    std::vector<float> g = ramp(n, 0.01f);
    EXPECT_EQ(codec.transform(g, rng), codec.wire_bytes(n)) << "n=" << n;
  }
}

TEST_P(AnyCodec, OutputsAreFinite) {
  const auto& codec = *GetParam().codec;
  Rng rng(23);
  std::vector<float> g = ramp(513, 100.0f);
  g[0] = 1e30f;
  g[1] = -1e30f;
  codec.transform(g, rng);
  for (float v : g) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(AnyCodec, CompressesBelowFp32ForLargeGradients) {
  const auto& codec = *GetParam().codec;
  if (GetParam().label == "fp32") GTEST_SKIP() << "identity baseline";
  EXPECT_LT(codec.wire_bytes(100000), 100000 * sizeof(float));
}

TEST_P(AnyCodec, DeterministicGivenEqualRngState) {
  const auto& codec = *GetParam().codec;
  std::vector<float> a = ramp(200, 0.3f);
  std::vector<float> b = a;
  Rng r1(77);
  Rng r2(77);
  codec.transform(a, r1);
  codec.transform(b, r2);
  EXPECT_EQ(a, b);
}

TEST_P(AnyCodec, PreservesSigns) {
  const auto& codec = *GetParam().codec;
  Rng rng(31);
  std::vector<float> g = ramp(128, 0.02f);
  const std::vector<float> before = g;
  codec.transform(g, rng);
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i] == 0.0f) continue;
    EXPECT_EQ(std::signbit(g[i]), std::signbit(before[i])) << "coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, AnyCodec,
    ::testing::Values(CodecCase{"fp32", std::make_shared<IdentityCodec>()},
                      CodecCase{"topk10", std::make_shared<TopKCodec>(0.1)},
                      CodecCase{"topk1", std::make_shared<TopKCodec>(0.01)},
                      CodecCase{"terngrad", std::make_shared<TernGradCodec>()},
                      CodecCase{"qsgd4bit", std::make_shared<QsgdCodec>(15)},
                      CodecCase{"qsgd8bit", std::make_shared<QsgdCodec>(255)}),
    [](const ::testing::TestParamInfo<CodecCase>& info) { return info.param.label; });

// --------------------------------------------------------- CompressorBank

TEST(Bank, ValidatesConstruction) {
  EXPECT_THROW(CompressorBank(nullptr, 4, true), ConfigError);
  EXPECT_THROW(CompressorBank(std::make_shared<IdentityCodec>(), 0, false), ConfigError);
}

TEST(Bank, RejectsOutOfRangeWorker) {
  CompressorBank bank(std::make_shared<IdentityCodec>(), 2, false);
  Rng rng(1);
  std::vector<float> g = ramp(8);
  EXPECT_THROW(bank.transform(-1, g, rng), ConfigError);
  EXPECT_THROW(bank.transform(2, g, rng), ConfigError);
  EXPECT_NO_THROW(bank.transform(1, g, rng));
}

TEST(Bank, DefaultFeedbackTracksCodecBias) {
  auto topk = CompressorBank::with_default_feedback(std::make_shared<TopKCodec>(0.1), 4);
  EXPECT_TRUE(topk.error_feedback());
  auto qsgd = CompressorBank::with_default_feedback(std::make_shared<QsgdCodec>(15), 4);
  EXPECT_FALSE(qsgd.error_feedback());
}

TEST(Bank, ErrorFeedbackEventuallyTransmitsEveryCoordinate) {
  // Feed the same gradient repeatedly through top-k with feedback: the sum
  // of transmitted values must track rounds * gradient (the defining
  // property of error feedback — no coordinate is starved forever).
  const std::size_t n = 20;
  CompressorBank bank(std::make_shared<TopKCodec>(0.1), 1, /*error_feedback=*/true);
  Rng rng(3);
  const std::vector<float> g = ramp(n, 0.1f);
  std::vector<double> transmitted(n, 0.0);
  const int rounds = 400;
  for (int r = 0; r < rounds; ++r) {
    std::vector<float> copy = g;
    bank.transform(0, copy, rng);
    for (std::size_t i = 0; i < n; ++i) transmitted[i] += copy[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double want = static_cast<double>(rounds) * g[i];
    // Residual holds at most a bounded backlog, so the relative error decays.
    EXPECT_NEAR(transmitted[i] / want, 1.0, 0.15) << "coordinate " << i;
  }
}

TEST(Bank, WithoutFeedbackSmallCoordinatesAreStarved) {
  // Control for the test above: no feedback means the smallest coordinate
  // of a static gradient is never transmitted by top-k.
  const std::size_t n = 20;
  CompressorBank bank(std::make_shared<TopKCodec>(0.1), 1, /*error_feedback=*/false);
  Rng rng(3);
  const std::vector<float> g = ramp(n, 0.1f);
  double transmitted_smallest = 0.0;
  for (int r = 0; r < 100; ++r) {
    std::vector<float> copy = g;
    bank.transform(0, copy, rng);
    transmitted_smallest += copy[0];  // |g[0]| is the smallest magnitude
  }
  EXPECT_EQ(transmitted_smallest, 0.0);
}

TEST(Bank, ResidualsAreIsolatedPerWorker) {
  CompressorBank bank(std::make_shared<TopKCodec>(0.5), 2, true);
  Rng rng(9);
  std::vector<float> g = {1.0f, -2.0f, 3.0f, -4.0f};
  bank.transform(0, g, rng);
  EXPECT_GT(bank.residual_l1(0), 0.0);
  EXPECT_EQ(bank.residual_l1(1), 0.0);
}

TEST(Bank, ResetClearsResiduals) {
  CompressorBank bank(std::make_shared<TopKCodec>(0.5), 1, true);
  Rng rng(9);
  std::vector<float> g = {1.0f, -2.0f, 3.0f, -4.0f};
  bank.transform(0, g, rng);
  ASSERT_GT(bank.residual_l1(0), 0.0);
  bank.reset();
  EXPECT_EQ(bank.residual_l1(0), 0.0);
}

TEST(Bank, ResidualIsExactlyTheDroppedMass) {
  CompressorBank bank(std::make_shared<TopKCodec>(0.5), 1, true);
  Rng rng(9);
  std::vector<float> g = {1.0f, -2.0f, 3.0f, -4.0f};  // top-2: 3, -4
  bank.transform(0, g, rng);
  EXPECT_DOUBLE_EQ(bank.residual_l1(0), 3.0);  // |1| + |-2|
}

}  // namespace
}  // namespace ss
