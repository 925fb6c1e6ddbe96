// Tensor math kernels used by the NN layers.
//
// Everything is a free function on Tensor / span<float>, single-threaded and
// deterministic.
//
// The three dense products (matmul, matmul_tn, matmul_nt) share one
// register-blocked microkernel: a 4 x 8 tile of C stays in SSE registers for
// the whole k loop, A is read in place (row-major, or through a stride for
// matmul_tn), and B is read in place or packed one k x 8 panel at a time
// (always for matmul_nt; for the others only the last n % 8 columns).
//
// Summation contract, which the pinned determinism corpus relies on: every
// C(i,j) starts at +0 and adds A(i,kk) * B(kk,j) for kk = 0, 1, ..., k-1 in
// that order, each product rounded to float before it is added.  That is the
// order of the plain in-order triple loop, so the results are bit-identical
// to it on finite inputs.  Compiling with FMA contraction available
// (-march=native, -mfma and the like, with GCC's default -ffp-contract=fast)
// fuses the multiply and add and changes the bits; so does -ffast-math.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.h"

namespace ss::ops {

/// C(m,n) = A(m,k) * B(k,n).  C must be preallocated with the right shape.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C(m,n) = A(k,m)^T * B(k,n).
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// C(m,n) = A(m,k) * B(n,k)^T.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// y += x (same numel).
void add_inplace(std::span<float> y, std::span<const float> x);

/// y = alpha * x + y.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y *= alpha.
void scale_inplace(std::span<float> y, float alpha);

/// Add row-vector bias(n) to every row of x(m,n).
void add_bias_rows(Tensor& x, const Tensor& bias);

/// bias_grad(n) = sum over rows of grad(m,n).
void sum_rows(const Tensor& grad, Tensor& bias_grad);

/// Elementwise ReLU forward: out = max(x, 0).
void relu_forward(const Tensor& x, Tensor& out);

/// ReLU backward: dx = dy where x > 0 else 0.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// Row-wise softmax of logits(m,n) into probs(m,n); numerically stable.
void softmax_rows(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy loss over a batch given row-wise probabilities and
/// integer labels.  Returns the scalar loss.
double cross_entropy_mean(const Tensor& probs, std::span<const int> labels);

/// Gradient of (mean CE o softmax) w.r.t. logits: (probs - onehot)/m.
void softmax_xent_backward(const Tensor& probs, std::span<const int> labels, Tensor& dlogits);

/// Row-wise argmax of logits(m,n) into out(m).
void argmax_rows(const Tensor& logits, std::span<int> out);

/// Dot product.
double dot(std::span<const float> a, std::span<const float> b);

/// L2 norm.
double l2_norm(std::span<const float> a);

/// im2col for NCHW conv: input (C,H,W) patch matrix (C*kh*kw, oh*ow).
/// Stride 1, symmetric zero padding `pad`.
void im2col(std::span<const float> image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t pad,
            Tensor& columns);

/// col2im: scatter-add the inverse of im2col (for conv backward w.r.t input).
void col2im(const Tensor& columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t pad, std::span<float> image);

}  // namespace ss::ops
