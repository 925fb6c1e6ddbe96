// SGD with momentum over flat parameter vectors.
//
// Semantics follow TensorFlow's MomentumOptimizer (the framework the paper
// builds on): accum = momentum * accum + grad; param -= lr * accum.
// The optimizer state lives at the parameter server, so it is part of the
// checkpoint taken when Sync-Switch switches protocols.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ss {

class SgdMomentum {
 public:
  SgdMomentum(std::size_t num_params, double momentum);

  /// Apply one update in place.  `lr` is passed per call because the
  /// learning-rate schedule (and the configuration policy) changes it over
  /// the course of training.
  void apply(std::span<float> params, std::span<const float> grad, double lr);

  /// Apply an update to the contiguous slice of velocity state starting at
  /// `offset`: `params` and `grad` are the slice views, `offset` addresses
  /// the matching velocity range.  This is the sharded parameter server's
  /// primitive — each shard updates a disjoint slice, so concurrent calls on
  /// non-overlapping ranges are race-free and the result is bit-identical to
  /// one full-vector `apply`.
  void apply_range(std::span<float> params, std::span<const float> grad, double lr,
                   std::size_t offset);

  /// Sparse update: advance only the listed coordinates.  `params` is the
  /// full parameter vector; `indices[i]` addresses both `params` and the
  /// velocity state, receiving gradient `values[i]`.  The indices must be
  /// strictly ascending (a ValidatedPush's are): only the last is checked
  /// against the length, so no per-index test runs in the apply loop.
  /// Untouched coordinates keep their parameter *and* velocity bits — sparse
  /// momentum SGD only decays a coordinate's velocity when that coordinate
  /// is transmitted.
  /// For a single step from equal state, the arithmetic on a listed
  /// coordinate is bit-identical to a dense `apply` of the scattered vector.
  void apply_sparse(std::span<float> params, std::span<const std::uint32_t> indices,
                    std::span<const float> values, double lr);

  [[nodiscard]] double momentum() const noexcept { return momentum_; }

  /// Configuration policy hook: momentum may be rescaled when the protocol
  /// switches (Figure 8(b) ablations).
  void set_momentum(double momentum) noexcept { momentum_ = momentum; }

  [[nodiscard]] std::span<const float> velocity() const noexcept { return accum_; }
  [[nodiscard]] std::span<float> mutable_velocity() noexcept { return accum_; }

  /// Reset accumulated momentum (used by the "Zero" momentum ablation).
  void reset_velocity() noexcept;

 private:
  double momentum_;
  std::vector<float> accum_;
};

}  // namespace ss
