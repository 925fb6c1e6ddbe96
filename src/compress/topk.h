// Top-k gradient sparsification (Aji & Heafield, "Sparse Communication for
// Distributed Gradient Descent", 2017 — paper reference [34]).
//
// Only the k largest-magnitude gradient coordinates are transmitted; the
// rest are dropped.  The wire form is k (index, value) pairs.  Dropping
// coordinates is *biased*, so this codec should be used through a
// `CompressorBank` with error feedback enabled: dropped mass accumulates in
// a per-worker residual and is re-added to the next gradient, which is what
// makes sparsified SGD converge (and what Aji & Heafield do implicitly by
// accumulating in the sender's buffer).
//
// Selection is exact, over the magnitude bit patterns (non-negative IEEE
// floats order like their bits), and on the fast path reads the vector once:
//   1. read |x| at 1,024 fixed pseudo-random positions and take as the bound
//      `lo` the sample rank expected to admit about 2k coordinates;
//   2. one pass over x appends (index, |x|) for every |x| >= lo.  Under error
//      feedback x = g + residual is formed and stored in the same pass;
//   3. a radix select over the candidates only: a 4,096-bucket histogram of
//      their magnitude bits (from `lo` up to the largest candidate) finds the
//      bucket holding the k-th largest, and `nth_element` over that bucket
//      gives tau and how many of the k slots go to ties at tau;
//   4. one ascending scan of the candidates emits every index with |x| > tau
//      plus the lowest-index ties at tau.
// If fewer than k coordinates reach `lo` (the sample overshot the k-th
// largest magnitude tau), or 2k is about n and leaves nothing to bound,
// steps 3-4 run over every coordinate of x instead; a retry counts in
// `ss_compress_topk_retries_total` while metrics are armed.
// When at least k coordinates reach `lo`, every coordinate at or above tau is
// a candidate, so the kept set never depends on the sample: it is exactly
// "the k largest magnitudes, lower index first on equal magnitude", and it
// comes out in ascending index order, which is the sparse wire order.  Only
// the speed depends on the sample.  Scratch is proportional to the candidate
// count (about 2k on the fast path).
#pragma once

#include "compress/codec.h"

namespace ss {

class TopKCodec final : public GradientCodec {
 public:
  /// Fixed per-push framing cost: one uint32 announcing the kept-coordinate
  /// count (or the dense-fallback marker).
  static constexpr std::size_t kHeaderBytes = sizeof(std::uint32_t);

  /// `keep_fraction` in (0, 1]: the fraction of coordinates transmitted.
  /// At least one coordinate is always kept (for non-empty gradients).
  explicit TopKCodec(double keep_fraction);

  [[nodiscard]] std::string name() const override;

  std::size_t transform(std::span<float> grad, Rng& rng) const override;

  /// Sparse wire form: the kept (index, value) pairs in ascending index
  /// order.  When the index overhead would exceed a plain dense payload
  /// (keep fractions above 50%), the encoder falls back to a dense push and
  /// `wire_bytes` prices the dense size — sending indices for coordinates
  /// the receiver could enumerate is pure waste.
  [[nodiscard]] CompressedPush encode(std::span<const float> grad, Rng& rng) const override;

  /// Error feedback in one selection pass: x = grad + residual is stored into
  /// `residual` while the candidates are collected, and each kept slot then
  /// becomes x - x.  Bit-identical to the default carry, encode, subtract.
  [[nodiscard]] CompressedPush encode_with_feedback(std::span<const float> grad,
                                                    std::span<float> residual,
                                                    Rng& rng) const override;

  /// min(kept * 8, num_params * 4) + kHeaderBytes: (uint32, fp32) pairs,
  /// capped at the dense fp32 payload the sparse form must never exceed.
  [[nodiscard]] std::size_t wire_bytes(std::size_t num_params) const override;

  [[nodiscard]] bool unbiased() const override { return false; }

  [[nodiscard]] double keep_fraction() const noexcept { return keep_fraction_; }

  /// Number of coordinates kept for a gradient of `num_params` elements
  /// (0 for an empty gradient).
  [[nodiscard]] std::size_t kept(std::size_t num_params) const noexcept;

  /// The positions the threshold estimate reads for a gradient of
  /// `num_params` elements (empty for an empty gradient).  Exposed so tests
  /// and benchmarks can build inputs on which the estimate overshoots.
  [[nodiscard]] static std::vector<std::uint32_t> threshold_sample(std::size_t num_params);

 private:
  /// The push of x = grad + residual, leaving x - decode(push) in `residual`
  /// (error feedback), or of x = grad when `residual` is empty.
  [[nodiscard]] CompressedPush encode_from(std::span<const float> grad,
                                           std::span<float> residual) const;

  double keep_fraction_;
};

}  // namespace ss
