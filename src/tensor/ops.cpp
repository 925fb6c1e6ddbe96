#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/error.h"

namespace ss::ops {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw ShapeError(msg);
}

// Four floats in one SSE register (GCC/Clang vector extension).  Loads and
// stores go through memcpy, so no alignment or aliasing is assumed.
typedef float v4 __attribute__((vector_size(16)));

v4 load4(const float* p) {
  v4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, v4 v) { std::memcpy(p, &v, sizeof v); }

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

// acc_lo/acc_hi += s * (b_lo, b_hi): one rounded multiply, then one rounded
// add, per lane.
void madd(v4& acc_lo, v4& acc_hi, float s, v4 b_lo, v4 b_hi) {
  const v4 sv = {s, s, s, s};
  acc_lo += sv * b_lo;
  acc_hi += sv * b_hi;
}

void store_row(float* c, std::size_t cols, v4 lo, v4 hi) {
  if (cols == kTileCols) {
    store4(c, lo);
    store4(c + 4, hi);
    return;
  }
  float row[kTileCols];
  store4(row, lo);
  store4(row + 4, hi);
  std::memcpy(c, row, cols * sizeof(float));
}

// One ROWS x 8 tile of C (ROWS <= 4), held in registers for the whole k
// loop.  Row r's A operand at step kk is a[r * a_row + kk * a_k]; B's 8
// columns at step kk are b[kk * ldb .. kk * ldb + 7].  Every output starts
// at +0 and adds its products in ascending kk.  Only the first `cols`
// columns are stored.  The rows are spelled out, not an array, so the
// accumulators stay in registers.
template <std::size_t ROWS>
void tile(const float* a, std::size_t a_row, std::size_t a_k, const float* b, std::size_t ldb,
          std::size_t k, float* c, std::size_t ldc, std::size_t cols) {
  v4 lo0 = {}, hi0 = {}, lo1 = {}, hi1 = {}, lo2 = {}, hi2 = {}, lo3 = {}, hi3 = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const v4 b_lo = load4(b + kk * ldb);
    const v4 b_hi = load4(b + kk * ldb + 4);
    const float* ak = a + kk * a_k;
    madd(lo0, hi0, ak[0], b_lo, b_hi);
    if constexpr (ROWS > 1) madd(lo1, hi1, ak[a_row], b_lo, b_hi);
    if constexpr (ROWS > 2) madd(lo2, hi2, ak[2 * a_row], b_lo, b_hi);
    if constexpr (ROWS > 3) madd(lo3, hi3, ak[3 * a_row], b_lo, b_hi);
  }
  store_row(c, cols, lo0, hi0);
  if constexpr (ROWS > 1) store_row(c + ldc, cols, lo1, hi1);
  if constexpr (ROWS > 2) store_row(c + 2 * ldc, cols, lo2, hi2);
  if constexpr (ROWS > 3) store_row(c + 3 * ldc, cols, lo3, hi3);
}

// C(m,n) = A(m,k) B(k,n) with A(i,kk) = a[i * a_row + kk * a_k] and
// B(kk,j) = b[kk * b_k + j * b_j].  C is walked in 8-column panels.  B's
// k x 8 panel is read in place when B's rows are contiguous and the panel is
// whole; otherwise (B transposed, or the last n % 8 columns) it is first
// packed kk-major into a zero-padded buffer.
void gemm(const float* a, std::size_t a_row, std::size_t a_k, const float* b, std::size_t b_k,
          std::size_t b_j, std::size_t m, std::size_t k, std::size_t n, float* c) {
  thread_local std::vector<float> panel;
  for (std::size_t j0 = 0; j0 < n; j0 += kTileCols) {
    const std::size_t cols = std::min(kTileCols, n - j0);
    const float* bp = b + j0 * b_j;
    std::size_t ldb = b_k;
    if (b_j != 1 || cols < kTileCols) {
      panel.resize(k * kTileCols);
      for (std::size_t kk = 0; kk < k; ++kk) {
        float* dst = panel.data() + kk * kTileCols;
        for (std::size_t jj = 0; jj < cols; ++jj) dst[jj] = bp[kk * b_k + jj * b_j];
        std::fill(dst + cols, dst + kTileCols, 0.0f);
      }
      bp = panel.data();
      ldb = kTileCols;
    }
    for (std::size_t i0 = 0; i0 < m; i0 += kTileRows) {
      const float* ap = a + i0 * a_row;
      float* cp = c + i0 * n + j0;
      switch (std::min(kTileRows, m - i0)) {
        case 4: tile<4>(ap, a_row, a_k, bp, ldb, k, cp, n, cols); break;
        case 3: tile<3>(ap, a_row, a_k, bp, ldb, k, cp, n, cols); break;
        case 2: tile<2>(ap, a_row, a_k, bp, ldb, k, cp, n, cols); break;
        default: tile<1>(ap, a_row, a_k, bp, ldb, k, cp, n, cols); break;
      }
    }
  }
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
  for (std::size_t i = 0; i < x.numel(); ++i) pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2 && probs.rank() == 2 && logits.dim(0) == probs.dim(0) &&
              logits.dim(1) == probs.dim(1),
          "softmax_rows: shape mismatch");
  const std::size_t m = logits.dim(0), n = logits.dim(1);
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
