#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/error.h"
#include "common/rng.h"

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

void expect_all_bit_exact(std::size_t m, std::size_t k, std::size_t n, Rng& rng, bool sparse) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) + " n=" + std::to_string(n) +
               (sparse ? " sparse" : " dense"));
  const Tensor a = operand({m, k}, rng, sparse);
  const Tensor b = operand({k, n}, rng, sparse);
  expect_bits("matmul", ops::matmul, a, b, reference_matmul(a, b));
  const Tensor at = operand({k, m}, rng, sparse);
  expect_bits("matmul_tn", ops::matmul_tn, at, b, reference_matmul_tn(at, b));
  const Tensor bt = operand({n, k}, rng, sparse);
  expect_bits("matmul_nt", ops::matmul_nt, a, bt, reference_matmul_nt(a, bt));
}

TEST(Ops, MatmulsAreBitExactOverEveryTileRemainder) {
  Rng rng(6);
  for (const std::size_t m : {1, 2, 3, 4, 5, 7, 32})
    for (const std::size_t n : {1, 7, 8, 9, 17, 96, 100})
      for (const std::size_t k : {1, 2, 64, 1024})
        for (const bool sparse : {false, true}) expect_all_bit_exact(m, k, n, rng, sparse);
}

TEST(Ops, MatmulsAreBitExactAtWorkloadShapes) {
  // (m, k, n) of the Dense layers the end-to-end workloads train:
  // resnet32_lite at batch 32 and the 1024 -> 100 linear model at batch 2.
  Rng rng(7);
  const std::size_t shapes[][3] = {{32, 64, 96}, {32, 96, 64}, {2, 1024, 100}};
  for (const auto& s : shapes)
    for (const bool sparse : {false, true}) expect_all_bit_exact(s[0], s[1], s[2], rng, sparse);
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
