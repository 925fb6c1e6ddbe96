// Residual block (He et al., 2016 — the paper's workload family):
//
//   y = ReLU( x + BN(W2 * ReLU(BN(W1 * x))) )
//
// A width-preserving MLP residual block: two Dense layers with batch
// normalization and an identity skip connection.  The skip path is what
// gives the "resnet*_bn" zoo models the smoother optimization landscape of
// the paper's real ResNets.
#pragma once

#include "common/rng.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/layer.h"

namespace ss {

class ResidualBlock final : public Layer {
 public:
  /// Width-preserving block: both Dense layers are (dim x dim).
  ResidualBlock(std::size_t dim, Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

 private:
  ResidualBlock(const ResidualBlock& other, int);  // clone helper

  std::size_t dim_;
  std::unique_ptr<Dense> fc1_;
  std::unique_ptr<BatchNorm> bn1_;
  std::unique_ptr<Dense> fc2_;
  std::unique_ptr<BatchNorm> bn2_;

  Tensor relu1_;      // inner ReLU output, the mask for its backward
  Tensor y_;          // final output, the mask for the final ReLU's backward
  Tensor dsum_;       // gradient at the addition
  Tensor dbranch_;    // gradient into the residual branch
  Tensor dx_;         // gradient to the input
};

}  // namespace ss
