// Fully-connected layer: y = x W + b.
//
// Weights are He-initialized at construction and exposed through the Layer
// params()/grads() protocol so the parameter server can pull/push them as
// flat tensors. `clone` produces an independent replica with identical
// weights — this is how each simulated worker gets its own model copy when
// a phase launches (see core/session.h).
#pragma once

#include "nn/layer.h"

#include "common/rng.h"

namespace ss {

class Dense final : public Layer {
 public:
  /// Creates a (in_dim x out_dim) weight matrix, He-initialized from `rng`.
  Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::size_t in_dim() const noexcept { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_dim_; }

 private:
  Dense(const Dense& other, int);  // clone helper

  std::size_t in_dim_;
  std::size_t out_dim_;
  Tensor w_;   // (in, out)
  Tensor b_;   // (out)
  Tensor dw_;
  Tensor db_;
  Tensor x_cache_;  // input from the last forward
  Tensor y_;        // output buffer
  Tensor dx_;       // input-gradient buffer
};

}  // namespace ss
