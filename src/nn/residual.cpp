#include "nn/residual.h"

#include "tensor/ops.h"

namespace ss {

ResidualBlock::ResidualBlock(std::size_t dim, Rng& rng)
    : dim_(dim),
      fc1_(std::make_unique<Dense>(dim, dim, rng)),
      bn1_(std::make_unique<BatchNorm>(dim)),
      fc2_(std::make_unique<Dense>(dim, dim, rng)),
      bn2_(std::make_unique<BatchNorm>(dim)) {}

ResidualBlock::ResidualBlock(const ResidualBlock& other, int)
    : dim_(other.dim_),
      fc1_(std::unique_ptr<Dense>(static_cast<Dense*>(other.fc1_->clone().release()))),
      bn1_(std::unique_ptr<BatchNorm>(
          static_cast<BatchNorm*>(other.bn1_->clone().release()))),
      fc2_(std::unique_ptr<Dense>(static_cast<Dense*>(other.fc2_->clone().release()))),
      bn2_(std::unique_ptr<BatchNorm>(
          static_cast<BatchNorm*>(other.bn2_->clone().release()))) {}

const Tensor& ResidualBlock::forward(const Tensor& x) {
  const Tensor& a1 = bn1_->forward(fc1_->forward(x));
  if (relu1_.numel() != a1.numel()) relu1_ = Tensor(a1.shape());
  ops::relu_forward(a1, relu1_);
  const Tensor& branch = bn2_->forward(fc2_->forward(relu1_));

  if (y_.numel() != x.numel()) y_ = Tensor(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) y_[i] = x[i] + branch[i];
  ops::relu_forward(y_, y_);
  return y_;
}

const Tensor& ResidualBlock::backward(const Tensor& dy) {
  if (dsum_.numel() != dy.numel()) {
    dsum_ = Tensor(dy.shape());
    dx_ = Tensor(dy.shape());
  }
  // Both ReLUs mask on their own outputs.
  ops::relu_backward(y_, dy, dsum_);

  // Branch: BN2 -> FC2 -> inner ReLU -> BN1 -> FC1.
  const Tensor& d_fc2_out = bn2_->backward(dsum_);
  const Tensor& d_relu1 = fc2_->backward(d_fc2_out);
  if (dbranch_.numel() != d_relu1.numel()) dbranch_ = Tensor(d_relu1.shape());
  ops::relu_backward(relu1_, d_relu1, dbranch_);
  const Tensor& d_bn1_in = bn1_->backward(dbranch_);
  const Tensor& d_branch_x = fc1_->backward(d_bn1_in);

  // Skip path adds the pass-through gradient.
  for (std::size_t i = 0; i < dy.numel(); ++i) dx_[i] = dsum_[i] + d_branch_x[i];
  return dx_;
}

std::vector<Tensor*> ResidualBlock::params() {
  std::vector<Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(fc1_.get()), static_cast<Layer*>(bn1_.get()),
                   static_cast<Layer*>(fc2_.get()), static_cast<Layer*>(bn2_.get())})
    for (Tensor* t : l->params()) out.push_back(t);
  return out;
}

std::vector<Tensor*> ResidualBlock::grads() {
  std::vector<Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(fc1_.get()), static_cast<Layer*>(bn1_.get()),
                   static_cast<Layer*>(fc2_.get()), static_cast<Layer*>(bn2_.get())})
    for (Tensor* t : l->grads()) out.push_back(t);
  return out;
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  return std::unique_ptr<Layer>(new ResidualBlock(*this, 0));
}

std::string ResidualBlock::describe() const {
  return "ResidualBlock(" + std::to_string(dim_) + ")";
}

}  // namespace ss
