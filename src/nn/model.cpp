#include "nn/model.h"

#include <sstream>

#include "common/error.h"

namespace ss {

Model& Model::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

std::size_t Model::num_params() const {
  std::size_t n = 0;
  for (const auto& l : layers_)
    for (const Tensor* t : const_cast<Layer&>(*l).params()) n += t->numel();
  return n;
}

void Model::get_params(std::span<float> out) const {
  std::size_t off = 0;
  for (const auto& l : layers_) {
    for (const Tensor* t : const_cast<Layer&>(*l).params()) {
      if (off + t->numel() > out.size()) throw ShapeError("get_params: buffer too small");
      std::copy(t->data(), t->data() + t->numel(), out.data() + off);
      off += t->numel();
    }
  }
  if (off != out.size()) throw ShapeError("get_params: buffer size mismatch");
}

std::vector<float> Model::get_params() const {
  std::vector<float> out(num_params());
  get_params(std::span<float>{out});
  return out;
}

void Model::set_params(std::span<const float> in) {
  std::size_t off = 0;
  for (auto& l : layers_) {
    for (Tensor* t : l->params()) {
      if (off + t->numel() > in.size()) throw ShapeError("set_params: buffer too small");
      std::copy(in.data() + off, in.data() + off + t->numel(), t->data());
      off += t->numel();
    }
  }
  if (off != in.size()) throw ShapeError("set_params: buffer size mismatch");
}

const Tensor& Model::forward(const Tensor& x) {
  if (layers_.empty()) throw ConfigError("Model::forward: empty model");
  const Tensor* cur = &x;
  for (auto& l : layers_) cur = &l->forward(*cur);
  return *cur;
}

double Model::compute_gradients(const Tensor& x, std::span<const int> labels) {
  const Tensor& logits = forward(x);
  const double loss = loss_.forward(logits, labels);
  const Tensor* grad = &loss_.backward();
  // The first layer's input gradient would be dL/dx, which nobody reads.
  for (auto it = layers_.rbegin(); it + 1 != layers_.rend(); ++it) grad = &(*it)->backward(*grad);
  layers_.front()->backward_params(*grad);
  return loss;
}

void Model::get_gradients(std::span<float> out) const {
  std::size_t off = 0;
  for (const auto& l : layers_) {
    for (const Tensor* t : const_cast<Layer&>(*l).grads()) {
      if (off + t->numel() > out.size()) throw ShapeError("get_gradients: buffer too small");
      std::copy(t->data(), t->data() + t->numel(), out.data() + off);
      off += t->numel();
    }
  }
  if (off != out.size()) throw ShapeError("get_gradients: buffer size mismatch");
}

double Model::gradient_at(std::span<const float> params, const Tensor& x,
                          std::span<const int> labels, std::span<float> grad_out) {
  set_params(params);
  const double loss = compute_gradients(x, labels);
  get_gradients(grad_out);
  return loss;
}

double Model::evaluate_accuracy(const Dataset& data, std::size_t batch) {
  const std::size_t n = data.size();
  const std::size_t d = data.feature_dim();
  std::size_t correct_total = 0;
  std::vector<std::uint32_t> idx;
  Tensor bx;
  std::vector<int> by;
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t len = std::min(batch, n - start);
    idx.resize(len);
    for (std::size_t i = 0; i < len; ++i) idx[i] = static_cast<std::uint32_t>(start + i);
    if (bx.rank() != 2 || bx.dim(0) != len) bx = Tensor({len, d});
    data.gather(idx, bx, by);
    const Tensor& logits = forward(bx);
    correct_total += static_cast<std::size_t>(
        top1_accuracy(logits, by) * static_cast<double>(len) + 0.5);
  }
  return n ? static_cast<double>(correct_total) / static_cast<double>(n) : 0.0;
}

double Model::evaluate_loss(const Dataset& data, std::size_t batch) {
  const std::size_t n = data.size();
  const std::size_t d = data.feature_dim();
  double loss_sum = 0.0;
  std::vector<std::uint32_t> idx;
  Tensor bx;
  std::vector<int> by;
  SoftmaxCrossEntropy head;
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t len = std::min(batch, n - start);
    idx.resize(len);
    for (std::size_t i = 0; i < len; ++i) idx[i] = static_cast<std::uint32_t>(start + i);
    if (bx.rank() != 2 || bx.dim(0) != len) bx = Tensor({len, d});
    data.gather(idx, bx, by);
    const Tensor& logits = forward(bx);
    loss_sum += head.forward(logits, by) * static_cast<double>(len);
  }
  return n ? loss_sum / static_cast<double>(n) : 0.0;
}

Model Model::clone() const {
  Model copy;
  for (const auto& l : layers_) copy.layers_.push_back(l->clone());
  return copy;
}

std::string Model::summary() const {
  std::ostringstream os;
  for (const auto& l : layers_) os << l->describe() << "\n";
  os << "parameters: " << num_params() << "\n";
  return os.str();
}

}  // namespace ss
