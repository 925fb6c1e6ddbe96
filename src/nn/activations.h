// Stateless activation layers.
//
// No parameters, so params()/grads() stay empty and the parameter server
// never sees them.  Each instance masks or scales its backward pass by its
// own cached output, so it keeps no copy of its input.
#pragma once

#include "nn/layer.h"

namespace ss {

class ReLU final : public Layer {
 public:
  ReLU() = default;
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override { return "ReLU"; }

 private:
  Tensor y_;   // ReLU output cached (y > 0 exactly where x > 0)
  Tensor dx_;
};

class Tanh final : public Layer {
 public:
  Tanh() = default;
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override { return "Tanh"; }

 private:
  Tensor y_;   // tanh output cached (backward uses 1 - y^2)
  Tensor dx_;
};

}  // namespace ss
