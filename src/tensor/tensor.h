// Dense float32 tensor.
//
// Deliberately simple: contiguous row-major storage, explicit shapes, no
// broadcasting magic.  All the math the NN layers need lives in ops.h as
// free functions taking spans/tensors.
//
// A tensor either owns its elements or, after move_to(), is a view of
// elements someone else owns: a Model keeps every layer's parameters and
// gradients in two flat vectors, and the layers' tensors view them (see
// nn/model.h).  Copies always own, so a copied tensor, and a cloned layer,
// never shares storage; a move hands the storage over, view or not.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace ss {

/// Shape of a tensor: up to 4 dimensions in practice (N,C,H,W or N,D).
using Shape = std::vector<std::size_t>;

/// Number of elements a shape describes.
std::size_t shape_numel(const Shape& shape) noexcept;

/// Human-readable "[a, b, c]".
std::string shape_str(const Shape& shape);

/// Contiguous row-major float tensor.  Copies own their elements; see the
/// file comment for views.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> data);

  /// A deep copy that owns its elements, also when `other` is a view.
  Tensor(const Tensor& other);
  /// Becomes an owning deep copy of `other`; a view stops viewing.
  Tensor& operator=(const Tensor& other);
  /// Takes over `other`'s storage (a view stays a view); `other` is left
  /// empty.
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  /// Copies the elements to `storage`, which must hold numel() floats, and
  /// from then on reads and writes them there: the tensor becomes a view
  /// and frees what it owned.  `storage` must outlive the view's use.
  void move_to(float* storage);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t numel() const noexcept { return numel_; }
  [[nodiscard]] std::size_t dim(std::size_t i) const;
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }

  [[nodiscard]] float* data() noexcept { return data_; }
  [[nodiscard]] const float* data() const noexcept { return data_; }
  [[nodiscard]] std::span<float> span() noexcept { return {data_, numel_}; }
  [[nodiscard]] std::span<const float> span() const noexcept { return {data_, numel_}; }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }

  /// 2-D accessors (row-major); bounds unchecked in release builds.
  float& at2(std::size_t r, std::size_t c) noexcept { return data_[r * shape_[1] + c]; }
  float at2(std::size_t r, std::size_t c) const noexcept { return data_[r * shape_[1] + c]; }

  /// Set every element to v.
  void fill(float v) noexcept;

  /// An owning copy with a new shape (numel must match).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  /// True if every element is finite.
  [[nodiscard]] bool all_finite() const noexcept;

 private:
  Shape shape_;
  std::vector<float> owned_;  ///< the elements, unless this is a view
  float* data_ = nullptr;     ///< owned_.data(), or the viewed storage
  std::size_t numel_ = 0;
};

}  // namespace ss
