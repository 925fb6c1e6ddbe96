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
// Selection is an exact radix select over the magnitude bit patterns
// (non-negative IEEE floats order like their bits):
//   1. one histogram pass over the top 12 bits of each |g| finds the bucket
//      holding the k-th largest magnitude;
//   2. `nth_element` over that bucket's magnitudes only (usually a few
//      hundred entries) gives the exact threshold tau and how many of the k
//      slots go to ties at tau;
//   3. one ascending scan emits every index with |g| > tau plus the
//      lowest-index ties at tau.
// Cost: three linear passes plus a selection over one bucket, with no
// allocation proportional to n beyond that bucket.  The kept set is exactly
// "the k largest magnitudes, lower index first on equal magnitude", and it
// comes out in ascending index order, which is the sparse wire order.
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

  /// min(kept * 8, num_params * 4) + kHeaderBytes: (uint32, fp32) pairs,
  /// capped at the dense fp32 payload the sparse form must never exceed.
  [[nodiscard]] std::size_t wire_bytes(std::size_t num_params) const override;

  [[nodiscard]] bool unbiased() const override { return false; }

  [[nodiscard]] double keep_fraction() const noexcept { return keep_fraction_; }

  /// Number of coordinates kept for a gradient of `num_params` elements
  /// (0 for an empty gradient).
  [[nodiscard]] std::size_t kept(std::size_t num_params) const noexcept;

 private:
  /// Top-k index set for a non-empty `grad`, in ascending index order
  /// (radix select, see the file comment).  The selection and its tie-break
  /// (lower index wins on equal magnitude) are shared by `transform` and
  /// `encode` so the two forms agree bit for bit.
  [[nodiscard]] std::vector<std::uint32_t> select(std::span<const float> grad) const;

  double keep_fraction_;
};

}  // namespace ss
