// The two builds of the dense-product microkernel behind ops::matmul,
// matmul_tn and matmul_nt (see tensor/ops.h for the summation contract).
//
// Callers use tensor/ops.h, which picks one build per process.  This header
// names both, so tests can check each against the in-order references bit
// for bit whichever one the CPU would pick.
#pragma once

#include <cstddef>

namespace ss::ops::detail {

/// C(m,n) = A(m,k) B(k,n) on the 4 x 8 SSE tile, where
/// A(i,kk) = a[i * a_row + kk * a_k], B(kk,j) = b[kk * b_k + j * b_j], and C
/// is row-major with no padding.  Runs on every x86-64 CPU.
void gemm_sse(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
              std::size_t b_k, std::size_t b_j, std::size_t m, std::size_t k, std::size_t n,
              float* c);

/// The same product, with the same bits, on the 4 x 16 AVX2 tile.  Call it
/// only when has_avx2().
void gemm_avx2(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
               std::size_t b_k, std::size_t b_j, std::size_t m, std::size_t k, std::size_t n,
               float* c);

/// Whether this CPU runs AVX2; probed once per process.
bool has_avx2();

}  // namespace ss::ops::detail
