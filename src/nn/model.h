// Sequential model container with flat-parameter transport.
//
// The parameter-server runtimes move parameters and gradients as flat float
// vectors ("what goes over the wire").  A Model keeps its parameters in one
// such vector and their gradients in another: every layer's params() and
// grads() tensors are views into them, in layer order, so a worker can pull
// straight into params() and push straight from grads() (ps/worker_slot.h).
// get_params/set_params/get_gradients copy out of and into those vectors
// for callers that keep their own buffers.  Model also has the batched
// loss/gradient and evaluation entry points.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/layer.h"
#include "nn/loss.h"

namespace ss {

class Model {
 public:
  Model() = default;

  /// Append a layer (builder style).  Its parameters and gradients move
  /// into the model's vectors, which grow, and every layer's tensors are
  /// re-seated onto them.
  Model& add(std::unique_ptr<Layer> layer);

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t num_params() const noexcept { return params_.size(); }

  /// Every parameter, flat, in layer order: the storage the layers'
  /// params() tensors view.  Writing here sets the model's parameters.
  [[nodiscard]] std::span<float> params() noexcept { return params_; }
  [[nodiscard]] std::span<const float> params() const noexcept { return params_; }

  /// The gradients of the last compute_gradients, parallel to params(): the
  /// storage the layers' grads() tensors view.
  [[nodiscard]] std::span<float> grads() noexcept { return grads_; }
  [[nodiscard]] std::span<const float> grads() const noexcept { return grads_; }

  /// Copy all parameters into a flat vector (PS "pull" payload).
  void get_params(std::span<float> out) const;
  [[nodiscard]] std::vector<float> get_params() const;

  /// Load parameters from a flat vector (PS "push" of new weights).
  void set_params(std::span<const float> in);

  /// Forward to logits.
  const Tensor& forward(const Tensor& x);

  /// Forward + loss + backward; leaves the gradients in grads().  Returns
  /// mean cross-entropy over the batch.
  double compute_gradients(const Tensor& x, std::span<const int> labels);

  /// Copy grads() into a flat vector, parallel to get_params() ordering.
  void get_gradients(std::span<float> out) const;

  /// Convenience: set_params + compute_gradients + get_gradients.  This is
  /// exactly one worker "task" in the paper's Figure 3.
  double gradient_at(std::span<const float> params, const Tensor& x,
                     std::span<const int> labels, std::span<float> grad_out);

  /// Top-1 accuracy over a dataset, evaluated in chunks of `batch` rows.
  double evaluate_accuracy(const Dataset& data, std::size_t batch = 512);

  /// Mean loss over a dataset (test loss; not used in the training loop).
  double evaluate_loss(const Dataset& data, std::size_t batch = 512);

  /// Deep copy (cloned layers viewing the copy's own vectors); used for
  /// per-thread replicas.  A moved Model keeps its vectors' storage, so its
  /// layers' views stay valid.
  [[nodiscard]] Model clone() const;

  /// One line per layer.
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }

  /// The i-th layer, in forward order.
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<float> params_;  ///< every layer's parameters, in layer order
  std::vector<float> grads_;   ///< their gradients, parallel to params_
  SoftmaxCrossEntropy loss_;
};

}  // namespace ss
