#include "nn/model.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/error.h"

namespace ss {

namespace {

void copy_checked(std::span<const float> from, std::span<float> to, const char* what) {
  if (from.size() != to.size())
    throw ShapeError(std::string(what) + ": buffer size mismatch (" + std::to_string(to.size()) +
                     " for " + std::to_string(from.size()) + ")");
  if (from.data() != to.data()) std::copy(from.begin(), from.end(), to.begin());
}

/// Moves `layer`'s parameters and gradients to `params + off` and `grads +
/// off` and makes its tensors views there; returns the offset past them.
std::size_t seat(Layer& layer, float* params, float* grads, std::size_t off) {
  const std::vector<Tensor*> ps = layer.params(), gs = layer.grads();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ps[i]->move_to(params + off);
    gs[i]->move_to(grads + off);
    off += ps[i]->numel();
  }
  return off;
}

}  // namespace

Model& Model::add(std::unique_ptr<Layer> layer) {
  // Each gradient is seated in its parameter's slot, so the two must pair up.
  const std::vector<Tensor*> ps = layer->params(), gs = layer->grads();
  if (gs.size() != ps.size()) throw ShapeError("Model: grads() not parallel to params()");
  std::size_t n = num_params();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (gs[i]->numel() != ps[i]->numel())
      throw ShapeError("Model: gradient " + shape_str(gs[i]->shape()) +
                       " does not match parameter " + shape_str(ps[i]->shape()));
    n += ps[i]->numel();
  }
  std::vector<float> params(n), grads(n);
  layers_.push_back(std::move(layer));
  std::size_t off = 0;
  for (auto& l : layers_) off = seat(*l, params.data(), grads.data(), off);
  params_ = std::move(params);
  grads_ = std::move(grads);
  return *this;
}

void Model::get_params(std::span<float> out) const { copy_checked(params_, out, "get_params"); }

std::vector<float> Model::get_params() const { return params_; }

void Model::set_params(std::span<const float> in) { copy_checked(in, params_, "set_params"); }

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
  copy_checked(grads_, out, "get_gradients");
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
  // The copy's vectors are made first and each cloned layer moves into them
  // at once.  Had the layers' own copies come first, freeing them would
  // leave holes below the vectors, which raised the benchmark's peak RSS.
  Model copy;
  copy.params_ = params_;
  copy.grads_ = grads_;
  std::size_t off = 0;
  for (const auto& l : layers_) {
    copy.layers_.push_back(l->clone());
    off = seat(*copy.layers_.back(), copy.params_.data(), copy.grads_.data(), off);
  }
  return copy;
}

std::string Model::summary() const {
  std::ostringstream os;
  for (const auto& l : layers_) os << l->describe() << "\n";
  os << "parameters: " << num_params() << "\n";
  return os.str();
}

}  // namespace ss
