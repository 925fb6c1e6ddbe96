#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/gemm.h"

namespace ss {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian(0.0, scale));
  return t;
}

// In-order scalar references: each output starts at +0 and adds its
// products in ascending k, one rounded multiply then one rounded add.  This
// is the summation contract tensor/ops.h promises, so the kernels must match
// these bit for bit, not merely within a tolerance.
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at2(i, kk) * b.at2(kk, j);
      c.at2(i, j) = acc;
    }
  return c;
}

Tensor reference_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at2(kk, i) * b.at2(kk, j);
      c.at2(i, j) = acc;
    }
  return c;
}

Tensor reference_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at2(i, kk) * b.at2(j, kk);
      c.at2(i, j) = acc;
    }
  return c;
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(1);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor b = random_tensor({7, 3}, rng);
  Tensor c({5, 3});
  ops::matmul(a, b, c);
  const Tensor ref = reference_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulTnIsTransposedA) {
  Rng rng(2);
  const Tensor at = random_tensor({7, 5}, rng);  // A^T stored (k, m)
  const Tensor b = random_tensor({7, 3}, rng);
  Tensor c({5, 3});
  ops::matmul_tn(at, b, c);
  // Build A = at^T and compare with naive.
  Tensor a({5, 7});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j) a.at2(i, j) = at.at2(j, i);
  const Tensor ref = reference_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulNtIsTransposedB) {
  Rng rng(3);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor bt = random_tensor({3, 7}, rng);  // B^T stored (n, k)
  Tensor c({5, 3});
  ops::matmul_nt(a, bt, c);
  Tensor b({7, 3});
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 3; ++j) b.at2(i, j) = bt.at2(j, i);
  const Tensor ref = reference_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

/// Gaussian operand; with `sparse`, about half the values, at random, are
/// zero, as after a ReLU.
Tensor operand(Shape shape, Rng& rng, bool sparse) {
  Tensor t = random_tensor(std::move(shape), rng);
  if (sparse)
    for (std::size_t i = 0; i < t.numel(); ++i)
      if (rng.uniform() < 0.5) t[i] = 0.0f;
  return t;
}

/// Runs `op` on a C buffer pre-filled with NaN (so an unwritten output
/// shows) and compares it byte for byte with `ref`.
template <typename Op>
void expect_bits(const char* what, Op op, const Tensor& a, const Tensor& b, const Tensor& ref) {
  Tensor c(ref.shape(), std::nanf(""));
  op(a, b, c);
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), ref.numel() * sizeof(float)), 0)
      << what << " differs from the in-order reference";
}

// The three products through one GEMM build, with the strides tensor/ops.cpp
// passes it.
using Gemm = decltype(&ops::detail::gemm_sse);
using Product = void (*)(const Tensor&, const Tensor&, Tensor&);

template <Gemm G>
void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c) {
  G(a.data(), a.dim(1), 1, b.data(), b.dim(1), 1, a.dim(0), a.dim(1), b.dim(1), c.data());
}

template <Gemm G>
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  G(a.data(), 1, a.dim(1), b.data(), b.dim(1), 1, a.dim(1), a.dim(0), b.dim(1), c.data());
}

template <Gemm G>
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  G(a.data(), a.dim(1), 1, b.data(), 1, b.dim(1), a.dim(0), a.dim(1), b.dim(0), c.data());
}

/// One way to run the three products: the public ops (whichever build this
/// CPU picks) or one GEMM build called directly.
struct Kernel {
  const char* name;
  Product matmul, matmul_tn, matmul_nt;
  bool needs_avx2;
};

void PrintTo(const Kernel& k, std::ostream* os) { *os << k.name; }

const Kernel kKernels[] = {
    {"ops", ops::matmul, ops::matmul_tn, ops::matmul_nt, false},
    {"sse", gemm_nn<ops::detail::gemm_sse>, gemm_tn<ops::detail::gemm_sse>,
     gemm_nt<ops::detail::gemm_sse>, false},
    {"avx2", gemm_nn<ops::detail::gemm_avx2>, gemm_tn<ops::detail::gemm_avx2>,
     gemm_nt<ops::detail::gemm_avx2>, true},
};

class OpsKernel : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !ops::detail::has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  }

  void expect_all_bit_exact(std::size_t m, std::size_t k, std::size_t n, Rng& rng,
                            bool sparse) const {
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n) + (sparse ? " sparse" : " dense"));
    const Kernel& kernel = GetParam();
    const Tensor a = operand({m, k}, rng, sparse);
    const Tensor b = operand({k, n}, rng, sparse);
    expect_bits("matmul", kernel.matmul, a, b, reference_matmul(a, b));
    const Tensor at = operand({k, m}, rng, sparse);
    expect_bits("matmul_tn", kernel.matmul_tn, at, b, reference_matmul_tn(at, b));
    const Tensor bt = operand({n, k}, rng, sparse);
    expect_bits("matmul_nt", kernel.matmul_nt, a, bt, reference_matmul_nt(a, bt));
  }
};

INSTANTIATE_TEST_SUITE_P(Gemm, OpsKernel, ::testing::ValuesIn(kKernels),
                         [](const auto& info) { return std::string(info.param.name); });

TEST_P(OpsKernel, MatmulsAreBitExactOverEveryTileRemainder) {
  // Row remainders of the 4-row tile, and column remainders of both the
  // 8-column (SSE) and 16-column (AVX2) panels.
  Rng rng(6);
  for (const std::size_t m : {1, 2, 3, 4, 5, 7, 32, 64})
    for (const std::size_t n : {1, 7, 8, 9, 15, 16, 17, 31, 33, 96, 100})
      for (const std::size_t k : {1, 2, 64, 1024})
        for (const bool sparse : {false, true}) expect_all_bit_exact(m, k, n, rng, sparse);
}

TEST_P(OpsKernel, MatmulsAreBitExactAtWorkloadShapes) {
  // (m, k, n) of the products the zoo models run: resnet32_lite's Dense
  // layers at batch 32 (switch-straggler) and 64 (policy-sweep), with its
  // 10-class head; resnet50_lite's 96 -> 96 layer; the linear 1024 -> 100
  // model at batch 2, forward (2,1024)(1024,100) and weight gradient
  // (1024,2)(2,100), which takes the small-k row stream; and convnet_tiny's
  // conv forward (8,27)(27,256), its weight gradient (nt) and its input
  // gradient (tn).
  Rng rng(7);
  const std::size_t shapes[][3] = {
      {32, 64, 96}, {32, 96, 64},   {32, 64, 10}, {64, 64, 96},  {64, 96, 64}, {64, 64, 10},
      {32, 96, 96}, {2, 1024, 100}, {1024, 2, 100}, {8, 27, 256}, {8, 256, 27}, {27, 8, 256}};
  for (const auto& s : shapes)
    for (const bool sparse : {false, true}) expect_all_bit_exact(s[0], s[1], s[2], rng, sparse);
}

TEST(Ops, MatmulsGiveTheAvx2BuildsBitsWhenTheCpuHasAvx2) {
  // On an AVX2 CPU the corpora and workloads only ever run the AVX2 build;
  // the public products must give its bits, and so must the SSE build that
  // a CPU without AVX2 runs, also on signed zeros, subnormals and
  // infinities (and the NaNs they make), which the Gaussian operands above
  // never hold.
  if (!ops::detail::has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const Kernel& sse = kKernels[1];
  const Kernel& avx2 = kKernels[2];
  const float special[] = {0.0f, -0.0f, 1e-40f, -1e-40f, INFINITY, -INFINITY};
  Rng rng(8);
  // The small-k shapes run the row stream, on its vector lanes and its
  // scalar tail (n = 19).
  for (const auto& [m, k, n] : {std::array<std::size_t, 3>{5, 33, 19}, {64, 64, 96}, {64, 2, 100},
                                {64, 4, 19}}) {
    Tensor a = operand({m, k}, rng, true), b = operand({k, n}, rng, true);
    Tensor at = operand({k, m}, rng, true), bt = operand({n, k}, rng, true);
    for (Tensor* t : {&a, &b, &at, &bt})
      for (std::size_t i = 0; i < t->numel(); i += 7) (*t)[i] = special[(i / 7) % 6];
    const auto expect_same = [&](const char* what, Product pub, Product p_sse, Product p_avx2,
                                 const Tensor& x, const Tensor& y) {
      SCOPED_TRACE("the reference here is the AVX2 build");
      Tensor want({m, n});
      p_avx2(x, y, want);
      expect_bits(what, pub, x, y, want);
      expect_bits(what, p_sse, x, y, want);
    };
    expect_same("matmul", ops::matmul, sse.matmul, avx2.matmul, a, b);
    expect_same("matmul_tn", ops::matmul_tn, sse.matmul_tn, avx2.matmul_tn, at, b);
    expect_same("matmul_nt", ops::matmul_nt, sse.matmul_nt, avx2.matmul_nt, a, bt);
  }
}

TEST_P(OpsKernel, RowStreamStartsAtPositiveZero) {
  // Every product here is -0.  The sum starts at +0, and +0 + -0 is +0, so
  // every output must be +0; starting at the first product would give -0.
  for (std::size_t k = 1; k <= 5; ++k)
    for (const std::size_t n : {3, 8, 19, 100}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      const std::size_t m = 6;
      const Tensor a({m, k}, 1.0f), at({k, m}, 1.0f);
      const Tensor b({k, n}, -0.0f), bt({n, k}, -0.0f);
      const Tensor want({m, n}, 0.0f);
      const Kernel& kernel = GetParam();
      expect_bits("matmul", kernel.matmul, a, b, want);
      expect_bits("matmul_tn", kernel.matmul_tn, at, b, want);
      expect_bits("matmul_nt", kernel.matmul_nt, a, bt, want);
    }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 2}), c({2, 2});
  EXPECT_THROW(ops::matmul(a, b, c), ShapeError);
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> y = {1, 2, 3};
  const std::vector<float> x = {10, 20, 30};
  ops::add_inplace(y, x);
  EXPECT_EQ(y[2], 33.0f);
  ops::axpy(0.5f, x, y);
  EXPECT_EQ(y[0], 16.0f);
  ops::scale_inplace(y, 2.0f);
  EXPECT_EQ(y[0], 32.0f);
}

TEST(Ops, BiasAndSumRows) {
  Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor bias({3}, std::vector<float>{10, 20, 30});
  ops::add_bias_rows(x, bias);
  EXPECT_EQ(x.at2(1, 2), 36.0f);
  Tensor grad_b({3});
  ops::sum_rows(x, grad_b);
  EXPECT_EQ(grad_b[0], 25.0f);  // 11 + 14
  EXPECT_EQ(grad_b[2], 69.0f);  // 33 + 36
}

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

TEST(Ops, ReluForwardBackward) {
  Tensor x({1, 4}, std::vector<float>{-1, 0, 2, -3});
  Tensor y({1, 4});
  ops::relu_forward(x, y);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({1, 4}, std::vector<float>{1, 1, 1, 1});
  Tensor dx({1, 4});
  ops::relu_backward(x, dy, dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);

  // Bit for bit against the scalar formulas, y = x > 0 ? x : +0 and
  // dx = x > 0 ? dy : +0, with the special values in both x and dy, at
  // lengths that leave vector tails.  Masking on the forward's output gives
  // the bits of masking on its input.
  using Lim = std::numeric_limits<float>;
  const std::array<float, 12> special = {
      0.0f, -0.0f, Lim::infinity(), -Lim::infinity(),
      Lim::quiet_NaN(), -Lim::quiet_NaN(), Lim::denorm_min(), -Lim::denorm_min(),
      Lim::min() / 4.0f, -Lim::min() / 4.0f, Lim::max(), -Lim::max()};
  Rng rng(29);
  auto draw = [&] {
    return rng.bernoulli(0.5) ? special[rng.uniform_index(special.size())]
                              : static_cast<float>(rng.gaussian());
  };
  for (std::size_t n : {1, 7, 37, 1027}) {
    Tensor xs({n}), dys({n}), ys({n}), dxs({n}), dx_via_y({n});
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = draw();
      dys[i] = draw();
    }
    ops::relu_forward(xs, ys);
    ops::relu_backward(xs, dys, dxs);
    ops::relu_backward(ys, dys, dx_via_y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits_of(ys[i]), bits_of(xs[i] > 0.0f ? xs[i] : 0.0f)) << n << " at " << i;
      EXPECT_EQ(bits_of(dxs[i]), bits_of(xs[i] > 0.0f ? dys[i] : 0.0f)) << n << " at " << i;
      EXPECT_EQ(bits_of(dx_via_y[i]), bits_of(dxs[i])) << n << " at " << i;
    }
  }
}

TEST(Ops, SoftmaxRowsSumToOneAndStable) {
  Tensor logits({2, 3}, std::vector<float>{1000.0f, 1000.0f, 1000.0f, 1.0f, 2.0f, 3.0f});
  Tensor probs({2, 3});
  ops::softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += probs.at2(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_NEAR(probs.at2(0, 0), 1.0f / 3.0f, 1e-5);
  EXPECT_GT(probs.at2(1, 2), probs.at2(1, 0));

  // A row of zero classes has no maximum to subtract.
  Tensor empty({2, 0}), empty_probs({2, 0});
  EXPECT_THROW(ops::softmax_rows(empty, empty_probs), ShapeError);
}

TEST(Ops, CrossEntropyGradientMatchesNumeric) {
  // Numeric check of d(mean CE o softmax)/d logits.
  Rng rng(4);
  Tensor logits = random_tensor({3, 4}, rng);
  const std::vector<int> labels = {1, 3, 0};
  Tensor probs(logits.shape());
  ops::softmax_rows(logits, probs);
  Tensor grad(logits.shape());
  ops::softmax_xent_backward(probs, labels, grad);

  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    Tensor pp(logits.shape()), pm(logits.shape());
    ops::softmax_rows(lp, pp);
    ops::softmax_rows(lm, pm);
    const double num =
        (ops::cross_entropy_mean(pp, labels) - ops::cross_entropy_mean(pm, labels)) / (2 * eps);
    EXPECT_NEAR(grad[i], num, 5e-3);
  }

  // A label outside [0, n) would index past its row, as cross_entropy_mean
  // already refuses.
  const Tensor p23({2, 3}, 1.0f / 3.0f);
  Tensor g23({2, 3});
  for (const std::vector<int>& bad : {std::vector<int>{0, 7}, std::vector<int>{-1, 0},
                                      std::vector<int>{0, 3}})
    EXPECT_THROW(ops::softmax_xent_backward(p23, bad, g23), ShapeError);
}

TEST(Ops, ArgmaxRows) {
  Tensor logits({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  std::vector<int> out(2);
  ops::argmax_rows(logits, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
}

TEST(Ops, DotAndNorm) {
  const std::vector<float> a = {3, 4};
  EXPECT_DOUBLE_EQ(ops::dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(ops::l2_norm(a), 5.0);
}

TEST(Ops, Im2ColCol2ImAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the two ops must be exact adjoints
  // for conv backward to be correct.
  Rng rng(5);
  const std::size_t c = 2, h = 5, w = 4, kh = 3, kw = 3, pad = 1;
  const std::size_t oh = h + 2 * pad - kh + 1, ow = w + 2 * pad - kw + 1;
  std::vector<float> x(c * h * w);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  Tensor cols({c * kh * kw, oh * ow});
  ops::im2col(x, c, h, w, kh, kw, pad, cols);

  Tensor y({c * kh * kw, oh * ow});
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = static_cast<float>(rng.gaussian());
  std::vector<float> xt(c * h * w);
  ops::col2im(y, c, h, w, kh, kw, pad, xt);

  const double lhs = ops::dot(cols.span(), y.span());
  const double rhs = ops::dot(std::span<const float>(x), std::span<const float>(xt));
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

}  // namespace
}  // namespace ss
