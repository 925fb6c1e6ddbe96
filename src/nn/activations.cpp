#include "nn/activations.h"

#include <cmath>

#include "tensor/ops.h"

namespace ss {

const Tensor& ReLU::forward(const Tensor& x) {
  if (y_.numel() != x.numel()) y_ = Tensor(x.shape());
  ops::relu_forward(x, y_);
  return y_;
}

const Tensor& ReLU::backward(const Tensor& dy) {
  if (dx_.numel() != dy.numel()) dx_ = Tensor(dy.shape());
  ops::relu_backward(y_, dy, dx_);
  return dx_;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

const Tensor& Tanh::forward(const Tensor& x) {
  if (y_.numel() != x.numel()) y_ = Tensor(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) y_[i] = std::tanh(x[i]);
  return y_;
}

const Tensor& Tanh::backward(const Tensor& dy) {
  if (dx_.numel() != dy.numel()) dx_ = Tensor(dy.shape());
  for (std::size_t i = 0; i < dy.numel(); ++i) dx_[i] = dy[i] * (1.0f - y_[i] * y_[i]);
  return dx_;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace ss
