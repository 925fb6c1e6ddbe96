// In-memory labelled dataset with train/test splits, plus worker shards.
//
// Everything trains from RAM: features are one row-major (N, feature_dim)
// tensor, labels a parallel int vector. Worker-level partitioning lives in
// data/batcher.h (make_shards + MinibatchSampler); this file supplies the
// storage those shards index into. `gather` materializes a minibatch from
// sampled row indices, and `head` gives the profiler a cheap fixed
// subsample for the periodic accuracy probes the paper's timing policy
// keys off.
//
// A Dataset may hold only a contiguous range of its rows: a socket worker
// builds just its own train shard (data/synthetic.h).  `size()` stays the
// logical row count, so sharding is unchanged; `gather` and `head` throw
// ShapeError for a row that was not built.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace ss {

/// A labelled dataset: features are (num_examples, feature_dim) row-major,
/// labels are ints in [0, num_classes).
class Dataset {
 public:
  Dataset() = default;
  Dataset(Tensor features, std::vector<int> labels, int num_classes);
  /// Rows [first_row, first_row + labels.size()) of a dataset of `size`
  /// logical rows.
  Dataset(Tensor features, std::vector<int> labels, int num_classes, std::size_t first_row,
          std::size_t size);

  /// Logical row count, built or not.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// First built row; the built rows are [first_row(), first_row() +
  /// labels().size()).
  [[nodiscard]] std::size_t first_row() const noexcept { return first_row_; }
  [[nodiscard]] std::size_t feature_dim() const noexcept {
    return features_.rank() == 2 ? features_.dim(1) : 0;
  }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }

  /// The built rows' features and labels.
  [[nodiscard]] const Tensor& features() const noexcept { return features_; }
  [[nodiscard]] std::span<const int> labels() const noexcept { return labels_; }

  /// Copy rows `indices` into a (indices.size(), feature_dim) batch tensor
  /// and label vector.  Throws ShapeError for a row that was not built.
  void gather(std::span<const std::uint32_t> indices, Tensor& batch_x,
              std::vector<int>& batch_y) const;

  /// First `n` examples as a contiguous view-copy (used for fast periodic
  /// test evaluation on a subsample).
  [[nodiscard]] Dataset head(std::size_t n) const;

 private:
  void check() const;

  Tensor features_;
  std::vector<int> labels_;
  int num_classes_ = 0;
  std::size_t first_row_ = 0;
  std::size_t size_ = 0;
};

/// Train/test pair.
struct DataSplit {
  Dataset train;
  Dataset test;
};

}  // namespace ss
