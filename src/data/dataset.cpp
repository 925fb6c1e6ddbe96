#include "data/dataset.h"

#include <cstring>

#include "common/error.h"

namespace ss {

Dataset::Dataset(Tensor features, std::vector<int> labels, int num_classes)
    : features_(std::move(features)), labels_(std::move(labels)), num_classes_(num_classes) {
  size_ = labels_.size();
  check();
}

Dataset::Dataset(Tensor features, std::vector<int> labels, int num_classes,
                 std::size_t first_row, std::size_t size)
    : features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes),
      first_row_(first_row),
      size_(size) {
  check();
}

void Dataset::check() const {
  if (features_.rank() != 2)
    throw ShapeError("Dataset: features must be rank-2 (N, D)");
  if (features_.dim(0) != labels_.size())
    throw ShapeError("Dataset: features rows != labels size");
  if (first_row_ > size_ || labels_.size() > size_ - first_row_)
    throw ShapeError("Dataset: built rows exceed the logical size");
  if (num_classes_ <= 0) throw ConfigError("Dataset: num_classes must be positive");
  for (int y : labels_)
    if (y < 0 || y >= num_classes_) throw ConfigError("Dataset: label out of range");
}

void Dataset::gather(std::span<const std::uint32_t> indices, Tensor& batch_x,
                     std::vector<int>& batch_y) const {
  const std::size_t d = feature_dim();
  if (batch_x.rank() != 2 || batch_x.dim(0) != indices.size() || batch_x.dim(1) != d)
    throw ShapeError("Dataset::gather: batch tensor shape mismatch");
  batch_y.resize(indices.size());
  const float* src = features_.data();
  float* dst = batch_x.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t row = indices[i] - first_row_;  // wraps for rows before the range
    if (row >= labels_.size())
      throw ShapeError(indices[i] < size_ ? "Dataset::gather: row was not built"
                                          : "Dataset::gather: index out of range");
    std::memcpy(dst + i * d, src + row * d, d * sizeof(float));
    batch_y[i] = labels_[row];
  }
}

Dataset Dataset::head(std::size_t n) const {
  n = std::min(n, size());
  if (n > 0 && (first_row_ != 0 || n > labels_.size()))
    throw ShapeError("Dataset::head: row was not built");
  const std::size_t d = feature_dim();
  Tensor f({n, d});
  std::memcpy(f.data(), features_.data(), n * d * sizeof(float));
  std::vector<int> y(labels_.begin(), labels_.begin() + static_cast<std::ptrdiff_t>(n));
  return Dataset(std::move(f), std::move(y), num_classes_);
}

}  // namespace ss
