// Per-worker compression pipeline with optional error feedback.
//
// Error feedback (a.k.a. memory / residual accumulation) keeps the mass a
// lossy codec dropped and re-adds it to the worker's next gradient:
//
//   g' = g + residual          (carry in)
//   q  = codec(g')             (lossy round-trip, q is what the PS sees)
//   residual = g' - q          (carry out)
//
// For biased codecs like top-k this is what restores convergence — every
// coordinate is eventually transmitted once its accumulated magnitude grows
// into the top-k set.  For unbiased quantizers it is optional but typically
// reduces the noise floor.  The residual is transport state, so it lives
// here, per worker slot, not in the stateless codec.
//
// The carry is done in place: the slot's residual buffer first becomes
// g + residual, the codec encodes straight from it, and what was sent is
// subtracted back out (only the kept coordinates for a sparse push).  That is
// the same IEEE arithmetic as computing g' - q into a fresh buffer, bit for
// bit, but needs no scratch: a slot holds nothing but its residual.
//
// Thread safety: all mutable state (the residual) is per worker slot,
// so concurrent `transform`/`encode` calls are safe as long as no two
// threads share a worker index — exactly the discipline of the threaded
// runtime, where worker w is one OS thread.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compress/codec.h"
#include "compress/compressed_push.h"

namespace ss {

class CompressorBank {
 public:
  /// `codec` must outlive the bank.  `num_workers` fixes the worker-slot
  /// count; `error_feedback` enables residual accumulation.
  CompressorBank(std::shared_ptr<const GradientCodec> codec, std::size_t num_workers,
                 bool error_feedback);

  /// Convenience: error feedback on exactly when the codec is biased.
  static CompressorBank with_default_feedback(std::shared_ptr<const GradientCodec> codec,
                                              std::size_t num_workers);

  /// Apply the codec (and error feedback) to worker `w`'s gradient in place.
  /// Returns the wire bytes of the encoded push.
  std::size_t transform(int worker, std::span<float> grad, Rng& rng);

  /// Encode worker `w`'s gradient into its wire form, carrying the error
  /// feedback residual exactly like `transform` (the carry out subtracts the
  /// push's values: at its indices for a sparse push, everywhere for dense).
  /// Given equal inputs and RNG state, `encode(...).decode_into(g)` and
  /// `transform(...)` produce bit-identical gradients and residuals.
  [[nodiscard]] CompressedPush encode(int worker, std::span<const float> grad, Rng& rng);

  /// Deterministic wire-size estimate (delegates to the codec).
  [[nodiscard]] std::size_t wire_bytes(std::size_t num_params) const {
    return codec_->wire_bytes(num_params);
  }

  [[nodiscard]] const GradientCodec& codec() const noexcept { return *codec_; }
  [[nodiscard]] bool error_feedback() const noexcept { return error_feedback_; }
  [[nodiscard]] std::size_t num_workers() const noexcept { return residuals_.size(); }

  /// Total mass currently carried in worker `w`'s residual (L1 norm).
  /// Exposed for tests and diagnostics.
  [[nodiscard]] double residual_l1(int worker) const;

  /// Worker `w`'s current residual (empty until the slot's first
  /// transform/encode).  Save it alongside a PS checkpoint to make the
  /// whole training state — parameters, velocity, AND per-worker transport
  /// state — restorable bit for bit.
  [[nodiscard]] std::span<const float> residual(int worker) const;

  /// Restore worker `w`'s residual from a saved copy; after restoring the
  /// matching checkpoint into the PS, error feedback resumes exactly where
  /// it left off (see the checkpoint round-trip test in test_elastic.cpp).
  void restore_residual(int worker, std::span<const float> residual);

  /// Drop all residual state (e.g. across a protocol switch that restarts
  /// from a checkpoint, where stale residuals no longer match the model).
  void reset();

 private:
  /// Index of worker `w`'s slot; throws ConfigError when out of range.
  [[nodiscard]] std::size_t slot_index(int worker) const;
  /// Slot `slot`'s residual, (re)sized to zeros when its length differs.
  std::vector<float>& residual_for(std::size_t slot, std::size_t num_params);

  std::shared_ptr<const GradientCodec> codec_;
  bool error_feedback_;
  /// One residual per worker slot, lazily sized: the slot's only state, so
  /// distinct workers never share memory.
  std::vector<std::vector<float>> residuals_;
};

}  // namespace ss
