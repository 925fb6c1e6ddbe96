#include "nn/dense.h"

#include <sstream>

#include "nn/init.h"
#include "tensor/ops.h"

namespace ss {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_({in_dim, out_dim}),
      b_({out_dim}, 0.0f),
      dw_({in_dim, out_dim}),
      db_({out_dim}) {
  he_init(w_, in_dim, rng);
}

Dense::Dense(const Dense& other, int)
    : in_dim_(other.in_dim_),
      out_dim_(other.out_dim_),
      w_(other.w_),
      b_(other.b_),
      dw_(other.dw_),
      db_(other.db_) {}

const Tensor& Dense::forward(const Tensor& x) {
  x_ = &x;
  const std::size_t m = x.dim(0);
  if (y_.rank() != 2 || y_.dim(0) != m || y_.dim(1) != out_dim_) y_ = Tensor({m, out_dim_});
  ops::matmul(x, w_, y_);
  ops::add_bias_rows(y_, b_);
  return y_;
}

void Dense::backward_params(const Tensor& dy) {
  ops::matmul_tn(*x_, dy, dw_);  // dW = X^T dY
  ops::sum_rows(dy, db_);        // db = sum rows of dY
}

const Tensor& Dense::backward(const Tensor& dy) {
  const std::size_t m = dy.dim(0);
  backward_params(dy);
  if (dx_.rank() != 2 || dx_.dim(0) != m || dx_.dim(1) != in_dim_) dx_ = Tensor({m, in_dim_});
  ops::matmul_nt(dy, w_, dx_);        // dX = dY W^T
  return dx_;
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::unique_ptr<Layer>(new Dense(*this, 0));
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "Dense(" << in_dim_ << " -> " << out_dim_ << ")";
  return os.str();
}

}  // namespace ss
