// CompressedPush: the wire representation of one compressed gradient push.
//
// Codecs used to be modelled purely as an in-place lossy round-trip, which
// meant the parameter server always received a *dense* full-length vector —
// even for top-k sparsification, whose whole point is that only k
// coordinates travel.  `CompressedPush` makes the encoded form first-class:
//
//  * kDense — `values` holds the full decoded (lossy) gradient.  Used by the
//    quantizers (QSGD, TernGrad, identity), whose wire form covers every
//    coordinate.  `wire_size` is the priced byte count (the quantized bits),
//    while `values` stores the reconstructed floats the gradient math sees —
//    the same "virtual wire, real math" split the simulator has always used.
//  * kSparse — `indices`/`values` hold the kept coordinates in strictly
//    ascending index order.  Used by top-k.  Ascending order is part of the
//    contract: the sharded parameter server walks the index list shard by
//    shard and takes per-shard locks in ascending order, which is what rules
//    out deadlock against the whole-vector helpers.
//
// Both runtimes move pushes through this type: workers encode through their
// `CompressorBank` slot, the PS applies dense pushes with `apply` and sparse
// pushes with `apply_sparse` (touching only the shards that own kept
// coordinates).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ss {

struct CompressedPush {
  enum class Format : std::uint8_t { kDense, kSparse };

  Format format = Format::kDense;
  std::size_t num_params = 0;  ///< decoded gradient length
  std::size_t wire_size = 0;   ///< priced bytes on the wire (codec estimate)

  /// kDense: `num_params` decoded values.  kSparse: `values[i]` is the
  /// coordinate at `indices[i]`.
  std::vector<float> values;
  /// kSparse only: kept coordinate indices, strictly ascending.
  std::vector<std::uint32_t> indices;

  [[nodiscard]] bool sparse() const noexcept { return format == Format::kSparse; }

  /// Number of transmitted coordinates.
  [[nodiscard]] std::size_t nnz() const noexcept {
    return sparse() ? indices.size() : num_params;
  }

  /// Throws ConfigError unless the push is internally consistent and decodes
  /// to exactly `expected_params` coordinates (sizes match, sparse indices
  /// strictly ascending and in range).
  void validate(std::size_t expected_params) const;

  /// Overwrite `out` with the decoded gradient (sparse pushes zero-fill the
  /// untransmitted coordinates).
  void decode_into(std::span<float> out) const;

  /// Accumulate the decoded gradient into `out` (`out += decode()`).  This
  /// is the aggregation primitive for the synchronous protocols: BSP sums
  /// every worker's decoded push without materializing n dense vectors.
  void add_into(std::span<float> out) const;
};

/// A view of a CompressedPush that has passed `validate` against its own
/// `num_params`: sizes agree, and sparse indices are strictly ascending and
/// below `num_params`.  Only the constructor makes one, so holding one means
/// the check ran.  The push must outlive the view and stay unchanged.
class ValidatedPush {
 public:
  /// Validate `push` (ConfigError if malformed).
  explicit ValidatedPush(const CompressedPush& push);
  /// A temporary would leave the view dangling.
  explicit ValidatedPush(CompressedPush&&) = delete;

  [[nodiscard]] const CompressedPush& operator*() const noexcept { return *push_; }
  [[nodiscard]] const CompressedPush* operator->() const noexcept { return push_; }

 private:
  const CompressedPush* push_;
};

}  // namespace ss
