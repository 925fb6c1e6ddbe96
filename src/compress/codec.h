// Gradient compression codecs (paper Section VII, "Network Optimization for
// Distributed Training").
//
// The paper cites gradient sparsification (Aji & Heafield, 2017), TernGrad
// (Wen et al., NeurIPS'17) and QSGD (Alistarh et al., NeurIPS'17) as
// orthogonal techniques that "might be combined with Sync-Switch to achieve
// further training speedup".  This module implements those three codecs plus
// an identity codec, so the combination can actually be measured (see
// bench/ablation_compression and examples/compressed_training).
//
// A codec offers two equivalent views of the same lossy round-trip:
// `transform` rewrites the gradient in place with exactly the values the
// decoder would reconstruct and reports the wire byte count, and `encode`
// produces the explicit `CompressedPush` wire form (dense for quantizers,
// sparse index/value pairs for top-k) whose decode reconstructs the same
// values bit for bit.  The simulator charges the push transfer for the
// *wire* bytes while the gradient mathematics sees the *reconstructed*
// values — both the speedup and the accuracy cost of compression are
// therefore real, not modelled.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/rng.h"
#include "compress/compressed_push.h"

namespace ss {

/// Lossy gradient encode+decode round-trip.
///
/// Implementations must be stateless across calls (per-worker state such as
/// error-feedback residuals is owned by `CompressorBank` and passed in), so a
/// single codec instance can be shared by every worker.
class GradientCodec {
 public:
  virtual ~GradientCodec() = default;

  /// Human-readable codec name for tables and logs, e.g. "topk(1%)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Apply the encode+decode round-trip to `grad` in place and return the
  /// encoded size in bytes.  `rng` drives stochastic quantization; codecs
  /// that are deterministic simply ignore it.
  virtual std::size_t transform(std::span<float> grad, Rng& rng) const = 0;

  /// Encode `grad` into its wire form.  Must consume `rng` identically to
  /// `transform` and decode to the same values bit for bit (the conformance
  /// suite checks this).  The default implementation copies the gradient and
  /// runs `transform` on the copy, producing a dense push; codecs with a
  /// genuinely sparse wire form (top-k) override it.
  [[nodiscard]] virtual CompressedPush encode(std::span<const float> grad, Rng& rng) const;

  /// Encode with error feedback: carry `residual` into `grad`, encode the
  /// sum, and leave in `residual` what the push failed to transmit:
  ///
  ///   residual = (grad + residual) - decode(push)
  ///
  /// Every float in that formula is one IEEE add or subtract, so the result
  /// is the same bit for bit however a codec fuses the passes.  The default
  /// carries in place (`residual` becomes grad + residual), encodes from the
  /// residual buffer, then subtracts the push's values.  Top-k overrides it
  /// with one pass that carries and collects selection candidates together.
  /// `residual` must have `grad`'s length (ConfigError otherwise).
  [[nodiscard]] virtual CompressedPush encode_with_feedback(std::span<const float> grad,
                                                            std::span<float> residual,
                                                            Rng& rng) const;

  /// Deterministic wire-size estimate for a gradient of `num_params`
  /// elements.  The simulator uses this to price the push transfer *before*
  /// the gradient is computed (the size of every codec here is independent
  /// of the gradient values).
  [[nodiscard]] virtual std::size_t wire_bytes(std::size_t num_params) const = 0;

  /// True if E[transform(g)] == g (unbiased stochastic quantizers).  Biased
  /// codecs (top-k sparsification) need error feedback to converge well.
  [[nodiscard]] virtual bool unbiased() const = 0;
};

/// Identity codec: full fp32 gradient on the wire.  The baseline every
/// compression ablation compares against.
class IdentityCodec final : public GradientCodec {
 public:
  [[nodiscard]] std::string name() const override { return "fp32"; }

  std::size_t transform(std::span<float> grad, Rng& rng) const override;

  [[nodiscard]] std::size_t wire_bytes(std::size_t num_params) const override {
    return num_params * sizeof(float);
  }

  [[nodiscard]] bool unbiased() const override { return true; }
};

}  // namespace ss
