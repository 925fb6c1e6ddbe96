#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "tensor/gemm.h"

// Every header is included above, before the AVX2 region below.  An inline
// library function first compiled inside that region would be built for
// AVX2, and the linker may keep that copy for callers on any CPU.

namespace ss::ops::detail {

namespace sse {
namespace {
constexpr std::size_t kLanes = 4;
#include "tensor/gemm_kernel.inc"
}  // namespace
}  // namespace sse

void gemm_sse(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
              std::size_t b_k, std::size_t b_j, std::size_t m, std::size_t k, std::size_t n,
              float* c) {
  sse::gemm(a, a_row, a_k, b, b_k, b_j, m, k, n, c);
}

// AVX2 only, never FMA: with FMA available GCC contracts a * b + c into one
// rounding (-ffp-contract=fast), which changes the bits.  avx512f brings FMA
// instructions of its own and GCC contracts into them too, so it is no wider
// safe target.  Off x86 this build is generic vector code that has_avx2()
// never picks.
#if defined(__x86_64__) || defined(__i386__)
#pragma GCC push_options
#pragma GCC target("avx2")
#endif
namespace avx2 {
namespace {
constexpr std::size_t kLanes = 8;
#include "tensor/gemm_kernel.inc"
}  // namespace
}  // namespace avx2

void gemm_avx2(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
               std::size_t b_k, std::size_t b_j, std::size_t m, std::size_t k, std::size_t n,
               float* c) {
  avx2::gemm(a, a_row, a_k, b, b_k, b_j, m, k, n, c);
}
#if defined(__x86_64__) || defined(__i386__)
#pragma GCC pop_options

bool has_avx2() {
  // A function-local static: a namespace-scope initializer could run before
  // libgcc's own CPU probe and read no features.
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return yes;
}
#else
bool has_avx2() { return false; }
#endif

}  // namespace ss::ops::detail

namespace ss::ops {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw ShapeError(msg);
}

// Both builds give the same bits; the wider one runs wherever it can.
void gemm(const float* a, std::size_t a_row, std::size_t a_k, const float* b, std::size_t b_k,
          std::size_t b_j, std::size_t m, std::size_t k, std::size_t n, float* c) {
  (detail::has_avx2() ? detail::gemm_avx2 : detail::gemm_sse)(a, a_row, a_k, b, b_k, b_j, m, k,
                                                              n, c);
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul: rank-2 tensors required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n, "matmul: shape mismatch");
  gemm(a.data(), k, 1, b.data(), n, 1, m, k, n, c.data());
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul_tn: rank-2 tensors required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n, "matmul_tn: shape mismatch");
  gemm(a.data(), 1, m, b.data(), n, 1, m, k, n, c.data());
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul_nt: rank-2 tensors required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k && c.dim(0) == m && c.dim(1) == n, "matmul_nt: shape mismatch");
  gemm(a.data(), k, 1, b.data(), 1, k, m, k, n, c.data());
}

void add_inplace(std::span<float> y, std::span<const float> x) {
  require(y.size() == x.size(), "add_inplace: size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  require(y.size() == x.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void scale_inplace(std::span<float> y, float alpha) {
  for (auto& v : y) v *= alpha;
}

void add_bias_rows(Tensor& x, const Tensor& bias) {
  require(x.rank() == 2 && bias.rank() == 1 && bias.dim(0) == x.dim(1),
          "add_bias_rows: shape mismatch");
  const std::size_t m = x.dim(0), n = x.dim(1);
  float* px = x.data();
  const float* pb = bias.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
}

void sum_rows(const Tensor& grad, Tensor& bias_grad) {
  require(grad.rank() == 2 && bias_grad.rank() == 1 && bias_grad.dim(0) == grad.dim(1),
          "sum_rows: shape mismatch");
  const std::size_t m = grad.dim(0), n = grad.dim(1);
  bias_grad.fill(0.0f);
  const float* pg = grad.data();
  float* pb = bias_grad.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) pb[j] += pg[i * n + j];
}

void relu_forward(const Tensor& x, Tensor& out) {
  require(x.numel() == out.numel(), "relu_forward: size mismatch");
  const float* px = x.data();
  float* po = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  require(x.numel() == dy.numel() && x.numel() == dx.numel(), "relu_backward: size mismatch");
  const float* px = x.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  // dy is read whatever the mask, so the select vectorises: no branch on
  // the sign of each element.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float d = pdy[i];
    pdx[i] = px[i] > 0.0f ? d : 0.0f;
  }
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2 && probs.rank() == 2 && logits.dim(0) == probs.dim(0) &&
              logits.dim(1) == probs.dim(1),
          "softmax_rows: shape mismatch");
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  require(n > 0, "softmax_rows: zero columns");
  const float* pl = logits.data();
  float* pp = probs.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = pl + i * n;
    float* out = pp + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = std::exp(row[j] - mx);
      sum += out[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
  }
}

double cross_entropy_mean(const Tensor& probs, std::span<const int> labels) {
  require(probs.rank() == 2 && probs.dim(0) == labels.size(), "cross_entropy_mean: shape");
  const std::size_t m = probs.dim(0), n = probs.dim(1);
  const float* pp = probs.data();
  double loss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const int y = labels[i];
    require(y >= 0 && static_cast<std::size_t>(y) < n, "cross_entropy_mean: label range");
    const double p = std::max(static_cast<double>(pp[i * n + static_cast<std::size_t>(y)]),
                              1e-12);
    loss -= std::log(p);
  }
  return loss / static_cast<double>(m);
}

void softmax_xent_backward(const Tensor& probs, std::span<const int> labels, Tensor& dlogits) {
  require(probs.rank() == 2 && dlogits.rank() == 2 && probs.dim(0) == labels.size() &&
              probs.dim(0) == dlogits.dim(0) && probs.dim(1) == dlogits.dim(1),
          "softmax_xent_backward: shape");
  const std::size_t m = probs.dim(0), n = probs.dim(1);
  for (const int y : labels)
    require(y >= 0 && static_cast<std::size_t>(y) < n, "softmax_xent_backward: label range");
  const float* pp = probs.data();
  float* pd = dlogits.data();
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) pd[i * n + j] = pp[i * n + j] * inv_m;
    pd[i * n + static_cast<std::size_t>(labels[i])] -= inv_m;
  }
}

void argmax_rows(const Tensor& logits, std::span<int> out) {
  require(logits.rank() == 2 && logits.dim(0) == out.size(), "argmax_rows: shape");
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  const float* pl = logits.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = pl + i * n;
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j)
      if (row[j] > row[best]) best = j;
    out[i] = static_cast<int>(best);
  }
}

double dot(std::span<const float> a, std::span<const float> b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

double l2_norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

void im2col(std::span<const float> image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t pad,
            Tensor& columns) {
  const std::size_t oh = height + 2 * pad - kh + 1;
  const std::size_t ow = width + 2 * pad - kw + 1;
  require(columns.rank() == 2 && columns.dim(0) == channels * kh * kw &&
              columns.dim(1) == oh * ow,
          "im2col: columns shape mismatch");
  require(image.size() == channels * height * width, "im2col: image size mismatch");
  float* pc = columns.data();
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj) {
        const std::size_t row = (c * kh + ki) * kw + kj;
        float* out = pc + row * (oh * ow);
        for (std::size_t oi = 0; oi < oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi + ki) - static_cast<std::ptrdiff_t>(pad);
          for (std::size_t oj = 0; oj < ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj + kj) - static_cast<std::ptrdiff_t>(pad);
            float v = 0.0f;
            if (ii >= 0 && ii < static_cast<std::ptrdiff_t>(height) && jj >= 0 &&
                jj < static_cast<std::ptrdiff_t>(width)) {
              v = image[(c * height + static_cast<std::size_t>(ii)) * width +
                        static_cast<std::size_t>(jj)];
            }
            out[oi * ow + oj] = v;
          }
        }
      }
    }
  }
}

void col2im(const Tensor& columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t pad, std::span<float> image) {
  const std::size_t oh = height + 2 * pad - kh + 1;
  const std::size_t ow = width + 2 * pad - kw + 1;
  require(columns.rank() == 2 && columns.dim(0) == channels * kh * kw &&
              columns.dim(1) == oh * ow,
          "col2im: columns shape mismatch");
  require(image.size() == channels * height * width, "col2im: image size mismatch");
  std::fill(image.begin(), image.end(), 0.0f);
  const float* pc = columns.data();
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj) {
        const std::size_t row = (c * kh + ki) * kw + kj;
        const float* in = pc + row * (oh * ow);
        for (std::size_t oi = 0; oi < oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi + ki) - static_cast<std::ptrdiff_t>(pad);
          if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(height)) continue;
          for (std::size_t oj = 0; oj < ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj + kj) - static_cast<std::ptrdiff_t>(pad);
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(width)) continue;
            image[(c * height + static_cast<std::size_t>(ii)) * width +
                  static_cast<std::size_t>(jj)] += in[oi * ow + oj];
          }
        }
      }
    }
  }
}

}  // namespace ss::ops
