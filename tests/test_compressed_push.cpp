// Regression suite for the compressed-push pipeline:
//
//  * the three codec bugfixes — top-k pricing capped at the dense payload,
//    QSGD levels clamped into [0, s] under adversarial fp rounding, TernGrad
//    magnitude clipping (not mean-centered clipping);
//  * encode/decode fidelity — for every codec, decoding the CompressedPush
//    reproduces the in-place transform bit for bit, with and without error
//    feedback;
//  * in-place error feedback — the bank's carry in / subtract-what-was-sent
//    matches the old carry/decode/subtract loop bit for bit, pushes and
//    residuals alike;
//  * sparse push — SharedParameterServer::push_compressed touches and
//    versions only the shards owning kept coordinates, is bit-identical to
//    the equivalent dense push on 1 and 8 shards, and refuses a malformed
//    push before it writes anything.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/bank.h"
#include "compress/codec.h"
#include "compress/compressed_push.h"
#include "compress/qsgd.h"
#include "compress/terngrad.h"
#include "compress/topk.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "ps/param_server.h"
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

// ------------------------------------------------- Bugfix 1: top-k pricing

TEST(TopKPricing, NeverExceedsTheDensePayloadPlusHeader) {
  const std::size_t n = 1000;
  for (const double f : {0.001, 0.01, 0.1, 0.5, 0.9, 1.0}) {
    const TopKCodec codec(f);
    EXPECT_LE(codec.wire_bytes(n), n * sizeof(float) + TopKCodec::kHeaderBytes)
        << "fraction " << f;
  }
  // The regression: topk(100%) used to price 8 bytes per coordinate — twice
  // the dense fp32 payload it falls back to.
  EXPECT_EQ(TopKCodec(1.0).wire_bytes(n), n * sizeof(float) + TopKCodec::kHeaderBytes);
  EXPECT_LT(TopKCodec(1.0).wire_bytes(n), 2 * n * sizeof(float));
}

TEST(TopKPricing, MonotoneInKeepFraction) {
  const std::size_t n = 1000;
  std::size_t prev = 0;
  for (const double f : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const std::size_t bytes = TopKCodec(f).wire_bytes(n);
    EXPECT_GE(bytes, prev) << "fraction " << f;
    prev = bytes;
  }
}

TEST(TopKPricing, EmptyGradientPricesLikeTheOtherCodecs) {
  TopKCodec codec(0.1);
  EXPECT_EQ(codec.kept(0), 0u);
  Rng rng(1);
  std::vector<float> empty;
  // transform on an empty gradient must report wire_bytes(0), as QSGD and
  // TernGrad do (it used to return a bare 0, skipping the header).
  EXPECT_EQ(codec.transform(empty, rng), codec.wire_bytes(0));
}

// --------------------------------------------- Bugfix 2: QSGD level range

TEST(QsgdLevels, NeverExceedSOnAdversarialInputs) {
  // |g| / ||g|| == 1 exactly (single nonzero coordinate) lands on r == s;
  // with fp rounding in the norm the unclamped ratio can nudge past s and
  // emit level s + 1, overflowing the priced 0..s range.  The clamp must
  // keep every reconstructed magnitude at or below the norm.
  for (const int s : {1, 2, 15, 255}) {
    const QsgdCodec codec(s);
    Rng data_rng(7);
    for (int rep = 0; rep < 200; ++rep) {
      // One dominant coordinate across a wide exponent range + tiny tail.
      const auto mag = static_cast<float>(
          std::pow(10.0, data_rng.uniform(-30.0, 30.0)));
      std::vector<float> g = {mag, mag * 1e-20f, -mag * 1e-25f, mag * 1e-30f};
      double sq = 0.0;
      for (const float v : g) sq += static_cast<double>(v) * v;
      const double norm = std::sqrt(sq);
      Rng rng(static_cast<std::uint64_t>(rep) + 1);
      codec.transform(g, rng);
      for (const float v : g) {
        const double level = std::fabs(v) / norm * s;
        EXPECT_LE(std::llround(level), s) << "s=" << s << " rep=" << rep;
        EXPECT_LE(std::fabs(v), norm * (1.0 + 1e-9)) << "s=" << s << " rep=" << rep;
      }
    }
  }
}

TEST(QsgdLevels, ExactTopLevelIsRepresentable) {
  // A coordinate sitting exactly on |g| == ||g|| quantizes to level s (the
  // top of the grid), not past it.
  QsgdCodec codec(15);
  Rng rng(3);
  std::vector<float> g = {-2.5f, 0.0f, 0.0f};
  codec.transform(g, rng);
  EXPECT_FLOAT_EQ(std::fabs(g[0]), 2.5f);
  EXPECT_EQ(g[1], 0.0f);
  EXPECT_EQ(g[2], 0.0f);
}

// ------------------------------------------ Bugfix 3: TernGrad clipping

TEST(TernGradClip, ClipsMagnitudesNotTheMeanBand) {
  // All-positive gradient with mean ~5 and tiny spread: magnitude clipping
  // bounds the ternary scale by c * sigma; the old mean +/- c*sigma clamp
  // left the scale near the mean (~50x larger).
  const double c = 2.5;
  TernGradCodec codec(c);
  std::vector<float> g(256);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = 5.0f + 0.01f * static_cast<float>(i % 16) * ((i % 2 == 0) ? 1.0f : -1.0f);
  double sum = 0.0, sq = 0.0;
  for (const float v : g) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(g.size());
  const double sigma = std::sqrt(std::max(0.0, sq / n - (sum / n) * (sum / n)));

  Rng rng(11);
  codec.transform(g, rng);
  float scale = 0.0f;
  for (const float v : g) scale = std::max(scale, std::fabs(v));
  EXPECT_LE(scale, c * sigma * (1.0 + 1e-6))
      << "ternary scale escaped the magnitude clip bound";
  EXPECT_GT(scale, 0.0f);
}

TEST(TernGradClip, IsSignSymmetric) {
  // Magnitude clipping is an odd function, so quantizing -g with the same
  // RNG stream must yield exactly the negated output of quantizing g.  The
  // mean-centered clamp broke this for nonzero-mean gradients.
  TernGradCodec codec(2.0);
  std::vector<float> g(128);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = 3.0f + 0.5f * static_cast<float>(i % 7);  // strongly nonzero mean
  std::vector<float> neg(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) neg[i] = -g[i];

  Rng r1(42), r2(42);
  codec.transform(g, r1);
  codec.transform(neg, r2);
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_EQ(g[i], -neg[i]) << "coordinate " << i;
}

// ------------------------------------------------ Encode/decode fidelity

struct CodecCase {
  std::string label;
  std::shared_ptr<GradientCodec> codec;
};

class PushCodec : public ::testing::TestWithParam<CodecCase> {};

TEST_P(PushCodec, DecodeReproducesTransformBitForBit) {
  const auto& codec = *GetParam().codec;
  for (const std::size_t n : {1u, 7u, 64u, 1001u}) {
    std::vector<float> via_transform = ramp(n, 0.01f);
    const std::vector<float> original = via_transform;
    Rng r1(17), r2(17);
    const std::size_t bytes = codec.transform(via_transform, r1);
    const CompressedPush push = codec.encode(original, r2);
    EXPECT_EQ(push.wire_size, bytes) << "n=" << n;
    EXPECT_EQ(push.num_params, n) << "n=" << n;
    EXPECT_NO_THROW(push.validate(n));
    std::vector<float> decoded(n);
    push.decode_into(decoded);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(decoded[i], via_transform[i]) << GetParam().label << " n=" << n << " i=" << i;
  }
}

TEST_P(PushCodec, AddIntoAccumulatesTheDecodedGradient) {
  const auto& codec = *GetParam().codec;
  const std::size_t n = 65;
  std::vector<float> g = ramp(n, 0.1f);
  Rng rng(5);
  const CompressedPush push = codec.encode(g, rng);
  std::vector<float> acc(n, 1.0f);
  push.add_into(acc);
  std::vector<float> decoded(n);
  push.decode_into(decoded);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(acc[i], 1.0f + decoded[i]) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, PushCodec,
    ::testing::Values(CodecCase{"fp32", std::make_shared<IdentityCodec>()},
                      CodecCase{"topk10", std::make_shared<TopKCodec>(0.1)},
                      CodecCase{"topk75", std::make_shared<TopKCodec>(0.75)},
                      CodecCase{"terngrad", std::make_shared<TernGradCodec>()},
                      CodecCase{"qsgd4bit", std::make_shared<QsgdCodec>(15)}),
    [](const ::testing::TestParamInfo<CodecCase>& info) { return info.param.label; });

TEST(SparseEncode, TopKEmitsAscendingUniqueIndicesWithExactValues) {
  TopKCodec codec(0.1);
  Rng rng(9);
  const std::vector<float> g = ramp(200, 0.3f);
  const CompressedPush push = codec.encode(g, rng);
  ASSERT_TRUE(push.sparse());
  EXPECT_EQ(push.nnz(), codec.kept(g.size()));
  EXPECT_EQ(push.wire_size, codec.wire_bytes(g.size()));
  for (std::size_t i = 0; i < push.indices.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(push.indices[i - 1], push.indices[i]);
    }
    // Top-k transmits kept values verbatim — no quantization.
    ASSERT_EQ(push.values[i], g[push.indices[i]]) << "i=" << i;
  }
}

TEST(SparseEncode, TopKFallsBackToDenseAboveHalfKeepFraction) {
  // At keep fractions >= 50% the (index, value) stream costs at least the
  // dense payload, so the encoder ships dense and prices accordingly.
  TopKCodec codec(0.75);
  Rng rng(9);
  const std::vector<float> g = ramp(64, 0.5f);
  const CompressedPush push = codec.encode(g, rng);
  EXPECT_FALSE(push.sparse());
  EXPECT_EQ(push.wire_size, 64u * sizeof(float) + TopKCodec::kHeaderBytes);
}

TEST(Bank, EncodeMatchesTransformIncludingErrorFeedback) {
  // Two banks fed the same gradient stream — one through the in-place
  // transform, one through encode/decode — must produce identical pushes
  // and identical residual trajectories.
  auto codec = std::make_shared<TopKCodec>(0.2);
  CompressorBank a(codec, 1, /*error_feedback=*/true);
  CompressorBank b(codec, 1, /*error_feedback=*/true);
  const std::size_t n = 40;
  Rng r1(3), r2(3);
  for (int round = 0; round < 10; ++round) {
    std::vector<float> ga = ramp(n, 0.1f * static_cast<float>(round + 1));
    const std::vector<float> gb = ga;
    a.transform(0, ga, r1);
    const CompressedPush push = b.encode(0, gb, r2);
    std::vector<float> decoded(n);
    push.decode_into(decoded);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(decoded[i], ga[i]) << "round " << round;
    ASSERT_DOUBLE_EQ(a.residual_l1(0), b.residual_l1(0)) << "round " << round;
  }
}

// The carry/decode/subtract loop the in-place bank replaced, written out as
// the reference: carry = g + residual into a fresh buffer, encode (or
// transform) it, then residual = carry - decoded.
struct ReferenceFeedback {
  const GradientCodec& codec;
  std::vector<float> residual;

  CompressedPush encode(std::span<const float> g, Rng& rng) {
    if (residual.size() != g.size()) residual.assign(g.size(), 0.0f);
    std::vector<float> carry(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) carry[i] = g[i] + residual[i];
    CompressedPush push = codec.encode(carry, rng);
    std::vector<float> decoded(g.size());
    push.decode_into(decoded);
    for (std::size_t i = 0; i < g.size(); ++i) residual[i] = carry[i] - decoded[i];
    return push;
  }

  std::size_t transform(std::span<float> g, Rng& rng) {
    if (residual.size() != g.size()) residual.assign(g.size(), 0.0f);
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += residual[i];
    const std::vector<float> carry(g.begin(), g.end());
    const std::size_t bytes = codec.transform(g, rng);
    for (std::size_t i = 0; i < g.size(); ++i) residual[i] = carry[i] - g[i];
    return bytes;
  }
};

TEST(Bank, InPlaceFeedbackIsBitIdenticalToTheCarryDecodeLoop) {
  const std::size_t n = 4097;
  const std::vector<CodecCase> cases = {
      {"topk1", std::make_shared<TopKCodec>(0.01)},
      {"topk75", std::make_shared<TopKCodec>(0.75)},  // dense fallback
      {"qsgd4bit", std::make_shared<QsgdCodec>(15)},  // unbiased: feedback forced on
  };
  for (const CodecCase& c : cases) {
    CompressorBank encode_bank(c.codec, 1, /*error_feedback=*/true);
    CompressorBank transform_bank(c.codec, 1, /*error_feedback=*/true);
    ReferenceFeedback encode_ref{*c.codec, {}};
    ReferenceFeedback transform_ref{*c.codec, {}};
    Rng data(7), r_enc(11), r_enc_ref(11), r_tr(13), r_tr_ref(13);
    for (int step = 0; step < 50; ++step) {
      // Gaussian steps with exact ties and signed zeros mixed in.
      std::vector<float> g(n);
      for (float& v : g) {
        const double u = data.uniform();
        v = u < 0.05 ? 0.5f : u < 0.1 ? -0.0f : static_cast<float>(data.gaussian());
      }
      const auto where = ::testing::Message() << c.label << " step " << step;

      const CompressedPush got = encode_bank.encode(0, g, r_enc);
      const CompressedPush want = encode_ref.encode(g, r_enc_ref);
      ASSERT_EQ(got.format, want.format) << where;
      ASSERT_EQ(got.wire_size, want.wire_size) << where;
      ASSERT_EQ(got.indices, want.indices) << where;
      ASSERT_TRUE(same_bits(got.values, want.values)) << where;
      ASSERT_TRUE(same_bits(encode_bank.residual(0), encode_ref.residual)) << where;

      std::vector<float> got_g = g;
      std::vector<float> want_g = g;
      ASSERT_EQ(transform_bank.transform(0, got_g, r_tr), transform_ref.transform(want_g, r_tr_ref))
          << where;
      ASSERT_TRUE(same_bits(got_g, want_g)) << where;
      ASSERT_TRUE(same_bits(transform_bank.residual(0), transform_ref.residual)) << where;
    }
  }

  // Top-k on the adversarial families at 1, 2, 3 coordinates, one past a
  // radix width and the topk-wide size; keeping 1 coordinate, 1%, and either
  // side of the dense fallback.  The six finite families take turns for 20
  // steps, then +/-inf (whose kept slots leave NaN in the residual), then one
  // more step over that residual.
  const std::uint64_t finite_families[] = {0, 1, 2, 3, 4, 6};
  for (const std::size_t n : {1u, 2u, 3u, 4097u, 102500u}) {
    for (const double f : {1e-9, 0.01, 0.4999, 0.5001}) {
      const auto codec = std::make_shared<TopKCodec>(f);
      CompressorBank encode_bank(codec, 1, /*error_feedback=*/true);
      CompressorBank transform_bank(codec, 1, /*error_feedback=*/true);
      ReferenceFeedback encode_ref{*codec, {}};
      ReferenceFeedback transform_ref{*codec, {}};
      Rng r_enc(11), r_enc_ref(11), r_tr(13), r_tr_ref(13);
      for (std::uint64_t step = 0; step < 22; ++step) {
        const std::uint64_t family = step < 20 ? finite_families[step % 6] : step == 20 ? 5 : 0;
        const std::vector<float> g = adversarial_gradient(n, 7 * (step + 1) + family);
        const auto where = ::testing::Message() << "n " << n << " f " << f << " step " << step;

        const CompressedPush got = encode_bank.encode(0, g, r_enc);
        const CompressedPush want = encode_ref.encode(g, r_enc_ref);
        ASSERT_EQ(got.format, want.format) << where;
        ASSERT_EQ(got.wire_size, want.wire_size) << where;
        ASSERT_EQ(got.indices, want.indices) << where;
        ASSERT_TRUE(same_bits(got.values, want.values)) << where;
        ASSERT_TRUE(same_bits(encode_bank.residual(0), encode_ref.residual)) << where;

        std::vector<float> got_g = g;
        std::vector<float> want_g = g;
        ASSERT_EQ(transform_bank.transform(0, got_g, r_tr),
                  transform_ref.transform(want_g, r_tr_ref))
            << where;
        ASSERT_TRUE(same_bits(got_g, want_g)) << where;
        ASSERT_TRUE(same_bits(transform_bank.residual(0), transform_ref.residual)) << where;
      }
    }
  }
}

TEST(Bank, RejectsAResidualOfTheWrongLength) {
  // A residual restored from a mismatched checkpoint used to be zero-filled
  // at the next encode, silently dropping the carried mass.
  for (const bool topk : {true, false}) {
    std::shared_ptr<const GradientCodec> codec;
    if (topk) {
      codec = std::make_shared<TopKCodec>(0.1);
    } else {
      codec = std::make_shared<QsgdCodec>(15);
    }
    CompressorBank bank(codec, 1, /*error_feedback=*/true);
    Rng rng(1);
    std::vector<float> g = ramp(16, 0.1f);
    bank.restore_residual(0, std::vector<float>(15, 1.0f));
    EXPECT_THROW(static_cast<void>(bank.encode(0, g, rng)), ConfigError);
    EXPECT_THROW(bank.transform(0, g, rng), ConfigError);
    EXPECT_DOUBLE_EQ(bank.residual_l1(0), 15.0);  // kept, not zero-filled

    std::vector<float> short_residual(15, 0.0f);
    EXPECT_THROW(static_cast<void>(codec->encode_with_feedback(g, short_residual, rng)),
                 ConfigError);

    // An empty slot still sizes itself on first use.
    bank.reset();
    EXPECT_NO_THROW(bank.transform(0, g, rng));
    EXPECT_EQ(bank.residual(0).size(), g.size());
  }
}

// ------------------------------------------- Top-k threshold estimate

std::int64_t topk_retries() {
  return obs::metrics().counter("ss_compress_topk_retries_total").value();
}

// The retry counter records only while observability is on.
struct ArmedMetrics {
  ArmedMetrics() { obs::enable_metrics(); }
  ~ArmedMetrics() { obs::disable_all(); }
  ArmedMetrics(const ArmedMetrics&) = delete;
  ArmedMetrics& operator=(const ArmedMetrics&) = delete;
};

// Unit Gaussian, except that the positions the threshold estimate samples
// hold huge magnitudes graded by sample order.  The bound then lands among
// them and admits only the sampled positions above it (about 2k / n * 1024),
// far fewer than k.
std::vector<float> overshooting_gradient(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.gaussian());
  const std::vector<std::uint32_t> sample = TopKCodec::threshold_sample(n);
  for (std::size_t q = 0; q < sample.size(); ++q)
    g[sample[q]] = (rng.bernoulli(0.5) ? -1.0f : 1.0f) * (1e6f + static_cast<float>(q));
  return g;
}

TEST(TopKEstimate, AnOvershootingSampleRetriesAndStaysExact) {
  const ArmedMetrics armed;
  for (const std::size_t n : {4097u, 102500u}) {
    const auto codec = std::make_shared<TopKCodec>(0.01);
    const std::size_t k = codec->kept(n);
    const std::vector<float> g = overshooting_gradient(n, 3);
    const std::vector<std::uint32_t> want_idx = reference_topk(g, k);
    std::vector<float> want_dense(n, 0.0f);
    std::vector<float> want_values;
    for (const std::uint32_t i : want_idx) {
      want_dense[i] = g[i];
      want_values.push_back(g[i]);
    }
    const auto where = ::testing::Message() << "n " << n;

    Rng rng(1);
    std::int64_t retries = topk_retries();
    std::vector<float> transformed = g;
    codec->transform(transformed, rng);
    ASSERT_TRUE(same_bits(transformed, want_dense)) << where;
    ASSERT_EQ(topk_retries(), ++retries) << where;

    const CompressedPush push = codec->encode(g, rng);
    ASSERT_EQ(push.indices, want_idx) << where;
    ASSERT_TRUE(same_bits(push.values, want_values)) << where;
    ASSERT_EQ(topk_retries(), ++retries) << where;

    // Under error feedback the retry reads the carried sum, not the gradient.
    CompressorBank bank(codec, 1, /*error_feedback=*/true);
    ReferenceFeedback ref{*codec, {}};
    Rng r_bank(2), r_ref(2);
    for (std::uint64_t step = 0; step < 3; ++step) {
      const std::vector<float> gs = overshooting_gradient(n, 10 + step);
      const CompressedPush got = bank.encode(0, gs, r_bank);
      ASSERT_EQ(topk_retries(), ++retries) << where << " step " << step;
      const CompressedPush want = ref.encode(gs, r_ref);
      retries = topk_retries();
      ASSERT_EQ(got.indices, want.indices) << where << " step " << step;
      ASSERT_TRUE(same_bits(got.values, want.values)) << where << " step " << step;
      ASSERT_TRUE(same_bits(bank.residual(0), ref.residual)) << where << " step " << step;
    }
  }
}

TEST(TopKEstimate, AllEqualMagnitudesMakeEveryCoordinateACandidate) {
  const ArmedMetrics armed;
  const std::size_t n = 102500;
  const TopKCodec codec(0.01);
  const std::size_t k = codec.kept(n);
  const std::vector<float> g = adversarial_gradient(n, 1);  // every |g| is 0.75
  ASSERT_TRUE(std::all_of(g.begin(), g.end(), [](float v) { return std::fabs(v) == 0.75f; }));
  std::vector<std::uint32_t> lowest(k);
  for (std::uint32_t i = 0; i < k; ++i) lowest[i] = i;

  const std::int64_t retries = topk_retries();
  Rng rng(1);
  const CompressedPush push = codec.encode(g, rng);
  EXPECT_EQ(push.indices, lowest);  // all tied: the lowest indices win
  for (std::size_t j = 0; j < k; ++j) ASSERT_EQ(push.values[j], g[j]) << j;

  std::vector<float> transformed = g;
  codec.transform(transformed, rng);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(transformed[i], i < k ? g[i] : 0.0f) << i;
  EXPECT_EQ(topk_retries(), retries);  // the bound admitted every coordinate
}

TEST(TopKEstimate, GaussianAndRank2StepsNeverRetry) {
  // The two gradient shapes the top-k path sees: plain Gaussian steps, and
  // what topk-wide pushes, a batch-2 linear-softmax gradient (two outer
  // products plus the bias) on 1024 features and 100 classes.  Both run
  // through error feedback, so the bound is estimated on the carried sum.
  const ArmedMetrics armed;
  SyntheticSpec spec = SyntheticSpec::cifar100_like();
  spec.feature_dim = 1024;
  spec.train_size = 256;
  spec.test_size = 64;
  const DataSplit split = make_synthetic(spec);
  Rng rng(21);
  Model model = make_model(ModelArch::kLinear, spec.feature_dim, spec.num_classes, rng);
  const std::vector<float> params = model.get_params();
  const std::size_t n = params.size();
  ASSERT_EQ(n, 102500u);

  const auto codec = std::make_shared<TopKCodec>(0.01);
  CompressorBank bank(codec, 2, /*error_feedback=*/true);
  const std::int64_t retries = topk_retries();
  std::vector<float> g(n);
  Tensor x({2, spec.feature_dim});
  std::vector<int> y;
  for (int worker = 0; worker < 2; ++worker) {
    for (int step = 0; step < 50; ++step) {
      if (worker == 0) {
        for (float& v : g) v = static_cast<float>(rng.gaussian());
      } else {
        const std::vector<std::uint32_t> batch = {
            static_cast<std::uint32_t>(rng.uniform_index(spec.train_size)),
            static_cast<std::uint32_t>(rng.uniform_index(spec.train_size))};
        split.train.gather(batch, x, y);
        model.gradient_at(params, x, y, g);
      }
      std::vector<float> carry(n);
      const std::span<const float> residual = bank.residual(worker);
      for (std::size_t i = 0; i < n; ++i) carry[i] = residual.empty() ? g[i] : g[i] + residual[i];
      const CompressedPush push = bank.encode(worker, g, rng);
      ASSERT_EQ(push.indices, reference_topk(carry, codec->kept(n)))
          << "worker " << worker << " step " << step;
    }
  }
  EXPECT_EQ(topk_retries(), retries);
}

TEST(Push, ValidateRejectsMalformedPushes) {
  CompressedPush push;
  push.format = CompressedPush::Format::kSparse;
  push.num_params = 10;
  push.indices = {3, 3};
  push.values = {1.0f, 2.0f};
  EXPECT_THROW(push.validate(10), ConfigError);  // duplicate index
  push.indices = {5, 3};
  EXPECT_THROW(push.validate(10), ConfigError);  // descending
  push.indices = {3, 10};
  EXPECT_THROW(push.validate(10), ConfigError);  // out of range
  push.indices = {3, 9};
  EXPECT_NO_THROW(push.validate(10));
  EXPECT_THROW(push.validate(11), ConfigError);  // wrong length
}

// ----------------------------------------------------- Sparse push (PS)

std::vector<float> init_params(std::size_t p) {
  std::vector<float> v(p);
  for (std::size_t i = 0; i < p; ++i) v[i] = 0.1f * static_cast<float>(i) - 1.0f;
  return v;
}

CompressedPush sparse_push(std::size_t p, std::vector<std::uint32_t> indices,
                           std::vector<float> values) {
  CompressedPush push;
  push.format = CompressedPush::Format::kSparse;
  push.num_params = p;
  push.indices = std::move(indices);
  push.values = std::move(values);
  push.wire_size = push.indices.size() * 8;
  return push;
}

std::vector<std::int64_t> versions_of(const SharedParameterServer& ps) {
  std::vector<float> params(ps.num_params());
  std::vector<std::int64_t> versions;
  ps.pull_with_versions(params, versions);
  return versions;
}

TEST(SharedPushCompressed, SparseIsBitIdenticalToDensePushOnOneAndEightShards) {
  const std::size_t p = 37;
  const std::vector<std::uint32_t> indices = {0, 6, 17, 35, 36};
  const std::vector<float> values = {0.5f, -1.25f, 2.0f, -0.125f, 3.5f};
  for (const std::size_t shards : {1u, 8u}) {
    SharedParameterServer dense(init_params(p), 0.9, shards);
    SharedParameterServer sparse(init_params(p), 0.9, shards);
    const std::vector<std::int64_t> pulled(dense.num_shards(), 0);

    std::vector<float> scattered(p, 0.0f);
    for (std::size_t i = 0; i < indices.size(); ++i) scattered[indices[i]] = values[i];
    dense.push(scattered, 0.05, pulled);
    sparse.push_compressed(sparse_push(p, indices, values), 0.05, pulled);

    // From zero velocity, one sparse push is bit-identical to the dense
    // push of the scattered vector: params AND velocity.
    const Checkpoint d = dense.snapshot_checkpoint(0);
    const Checkpoint s = sparse.snapshot_checkpoint(0);
    for (std::size_t i = 0; i < p; ++i)
      ASSERT_EQ(d.params[i], s.params[i]) << shards << " shards, param " << i;
    for (std::size_t i = 0; i < p; ++i)
      ASSERT_EQ(d.velocity[i], s.velocity[i]) << shards << " shards, velocity " << i;
  }
}

TEST(SharedPushCompressed, SparseSequenceMatchesDenseWithoutMomentum) {
  // With momentum 0 the sparse/dense parameter trajectories agree over any
  // push sequence (with momentum, velocity decay on untransmitted
  // coordinates is deliberately skipped — sparse momentum semantics).
  const std::size_t p = 29;
  for (const std::size_t shards : {1u, 8u}) {
    SharedParameterServer dense(init_params(p), 0.0, shards);
    SharedParameterServer sparse(init_params(p), 0.0, shards);
    Rng rng(13);
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint32_t> indices;
      std::vector<float> values;
      for (std::uint32_t i = 0; i < p; ++i) {
        if (rng.bernoulli(0.3)) {
          indices.push_back(i);
          values.push_back(static_cast<float>(rng.gaussian()));
        }
      }
      std::vector<float> scattered(p, 0.0f);
      for (std::size_t i = 0; i < indices.size(); ++i) scattered[indices[i]] = values[i];
      dense.push(scattered, 0.1, versions_of(dense));
      sparse.push_compressed(sparse_push(p, indices, values), 0.1, versions_of(sparse));
    }
    const std::vector<float> d = dense.snapshot();
    const std::vector<float> s = sparse.snapshot();
    for (std::size_t i = 0; i < p; ++i)
      ASSERT_EQ(d[i], s[i]) << shards << " shards, param " << i;
  }
}

TEST(SharedPushCompressed, SparsePushVersionsOnlyTheTouchedShards) {
  const std::size_t p = 64;  // 8 shards x 8 params
  SharedParameterServer ps(init_params(p), 0.9, 8);
  const std::vector<std::int64_t> pulled = versions_of(ps);

  // Indices in shards 1 (8..15) and 6 (48..55) only.
  const CompressedPush push = sparse_push(p, {9, 14, 50}, {1.0f, 2.0f, 3.0f});
  EXPECT_EQ(ps.push_compressed(push, 0.05, pulled), 0);
  const std::vector<std::int64_t> after = versions_of(ps);
  for (std::size_t s = 0; s < 8; ++s)
    EXPECT_EQ(after[s], (s == 1 || s == 6) ? 1 : 0) << "shard " << s;

  // Sparse staleness is measured over the touched shards only: a second
  // identical push against the stale pull observes the first one, a push
  // elsewhere does not.
  EXPECT_EQ(ps.push_compressed(push, 0.05, pulled), 1);
  EXPECT_EQ(ps.push_compressed(sparse_push(p, {0, 60}, {1.0f, 1.0f}), 0.05, pulled), 0);
}

TEST(SharedPushCompressed, DensePushMatchesPlainPush) {
  const std::size_t p = 37;
  SharedParameterServer a(init_params(p), 0.9, 8);
  SharedParameterServer b(init_params(p), 0.9, 8);
  const std::vector<float> grad = ramp(p, 0.01f);
  const std::vector<std::int64_t> pulled(8, 0);

  CompressedPush push;
  push.format = CompressedPush::Format::kDense;
  push.num_params = p;
  push.values = grad;
  push.wire_size = p * sizeof(float);

  EXPECT_EQ(a.push(grad, 0.05, pulled), b.push_compressed(push, 0.05, pulled));
  const auto pa = a.snapshot();
  const auto pb = b.snapshot();
  for (std::size_t i = 0; i < p; ++i) ASSERT_EQ(pa[i], pb[i]) << "param " << i;
}

TEST(SharedPushCompressed, RejectsMalformedPushes) {
  // Every malformed push is refused with ConfigError before any shard is
  // written or versioned.
  struct Case {
    const char* name;
    std::vector<std::uint32_t> indices;
    std::vector<float> values;
    std::size_t num_params;
  };
  const Case cases[] = {
      {"duplicate", {3, 3}, {1.0f, 2.0f}, 16},
      {"descending", {5, 3}, {1.0f, 2.0f}, 16},
      {"out_of_range", {3, 16}, {1.0f, 2.0f}, 16},
      {"index_value_length_mismatch", {3}, {1.0f, 2.0f}, 16},
      {"wrong_num_params", {3, 9}, {1.0f, 2.0f}, 15},
  };
  SharedParameterServer ps(init_params(16), 0.9, 4);
  const std::vector<std::int64_t> pulled(4, 0);
  for (const Case& c : cases) {
    EXPECT_THROW(ps.push_compressed(sparse_push(c.num_params, c.indices, c.values), 0.05, pulled),
                 ConfigError)
        << c.name;
    EXPECT_EQ(versions_of(ps), pulled) << c.name;
    EXPECT_EQ(ps.snapshot(), init_params(16)) << c.name;
  }
  EXPECT_THROW(ps.push_compressed(sparse_push(16, {3, 15}, {1.0f, 2.0f}), 0.05,
                                  std::vector<std::int64_t>(3, 0)),
               ConfigError);
  EXPECT_NO_THROW(ps.push_compressed(sparse_push(16, {3, 15}, {1.0f, 2.0f}), 0.05, pulled));
}

// A push is validated once, by building its ValidatedPush, which checks it
// against its own length; the PS then checks only that length against its
// own.  A view of a temporary would dangle, so none can be built.
static_assert(!std::is_constructible_v<ValidatedPush, CompressedPush&&>);

TEST(SharedPushCompressed, ValidatedPushIsCheckedOnceAndAppliesLikeAPlainPush) {
  const CompressedPush descending = sparse_push(16, {5, 3}, {1.0f, 2.0f});
  EXPECT_THROW((void)ValidatedPush(descending), ConfigError);

  SharedParameterServer ps(init_params(16), 0.9, 4);
  const std::vector<std::int64_t> pulled(4, 0);
  const CompressedPush other_length = sparse_push(15, {3, 9}, {1.0f, 2.0f});
  const ValidatedPush valid_elsewhere(other_length);  // well formed for 15
  EXPECT_THROW(ps.push_compressed(valid_elsewhere, 0.05, pulled), ConfigError);
  EXPECT_EQ(versions_of(ps), pulled);

  SharedParameterServer plain(init_params(16), 0.9, 4);
  const CompressedPush push = sparse_push(16, {3, 4, 15}, {1.0f, -2.0f, 0.5f});
  EXPECT_EQ(ps.push_compressed(ValidatedPush(push), 0.05, pulled),
            plain.push_compressed(push, 0.05, pulled));
  EXPECT_EQ(ps.snapshot(), plain.snapshot());
  EXPECT_EQ(versions_of(ps), versions_of(plain));
}

}  // namespace
}  // namespace ss
