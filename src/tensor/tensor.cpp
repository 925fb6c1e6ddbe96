#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace ss {

std::size_t shape_numel(const Shape& shape) noexcept {
  std::size_t n = 1;
  for (auto d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : Tensor(std::move(shape), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      owned_(shape_numel(shape_), fill),
      data_(owned_.data()),
      numel_(owned_.size()) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), owned_(std::move(data)), data_(owned_.data()), numel_(owned_.size()) {
  if (numel_ != shape_numel(shape_))
    throw ShapeError("Tensor: data size " + std::to_string(numel_) + " does not match shape " +
                     shape_str(shape_));
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      owned_(other.data_, other.data_ + other.numel_),
      data_(owned_.data()),
      numel_(other.numel_) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  owned_.assign(other.data_, other.data_ + other.numel_);
  shape_ = other.shape_;
  data_ = owned_.data();
  numel_ = other.numel_;
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      owned_(std::move(other.owned_)),
      data_(std::exchange(other.data_, nullptr)),
      numel_(std::exchange(other.numel_, 0)) {
  other.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = std::move(other.shape_);
  owned_ = std::move(other.owned_);
  data_ = std::exchange(other.data_, nullptr);
  numel_ = std::exchange(other.numel_, 0);
  other.shape_.clear();
  other.owned_.clear();
  return *this;
}

void Tensor::move_to(float* storage) {
  std::copy(data_, data_ + numel_, storage);
  data_ = storage;
  std::vector<float>().swap(owned_);
}

std::size_t Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) throw ShapeError("Tensor::dim index out of range");
  return shape_[i];
}

void Tensor::fill(float v) noexcept { std::fill(data_, data_ + numel_, v); }

Tensor Tensor::reshaped(Shape new_shape) const {
  if (shape_numel(new_shape) != numel_)
    throw ShapeError("Tensor::reshaped: numel mismatch " + shape_str(shape_) + " -> " +
                     shape_str(new_shape));
  return {std::move(new_shape), std::vector<float>(data_, data_ + numel_)};
}

bool Tensor::all_finite() const noexcept {
  return std::all_of(data_, data_ + numel_, [](float x) { return std::isfinite(x); });
}

}  // namespace ss
