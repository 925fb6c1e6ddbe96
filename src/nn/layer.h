// Layer abstraction for the sequential NN models trained by the PS runtimes.
//
// Layers hold their parameters and gradients as Tensors and cache whatever
// they need between forward and backward.  A layer may keep a pointer to its
// forward's input instead of a copy (Dense and Conv2D do), so that input must
// stay alive and unchanged until the matching backward returns.  A layer
// owns its parameters and gradients until it is added to a Model; from then
// on its params() and grads() tensors are views into the model's flat
// parameter and gradient vectors (nn/model.h), which the parameter-server
// runtimes pull into and push from.  A clone() owns copies again.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ss {

/// Base class for all layers.  Not copyable through the base (clone() gives
/// deep copies for per-thread model replicas).
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Forward pass on a batch; caches activations for backward.  `x` must
  /// outlive the next backward()/backward_params() call, unchanged.
  virtual const Tensor& forward(const Tensor& x) = 0;

  /// Backward pass: receives dL/d(output), returns dL/d(input) and
  /// accumulates parameter gradients (overwrite semantics per step).
  virtual const Tensor& backward(const Tensor& dy) = 0;

  /// Backward pass for the first layer of a model, whose input gradient
  /// nobody reads: leaves the same parameter gradients as backward(dy).  The
  /// default is backward(dy); layers with a costly input gradient skip it.
  virtual void backward_params(const Tensor& dy) { backward(dy); }

  /// Mutable parameter tensors (may be empty for stateless layers).  A
  /// Model re-seats them onto its own vector, so a layer must never replace
  /// one (copy-assigning a view makes it own a copy, which the model would
  /// no longer see); it writes through data() instead.
  virtual std::vector<Tensor*> params() { return {}; }

  /// Gradient tensors, parallel to params(), each the same size as its
  /// parameter.
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Deep copy (fresh caches, copied parameters).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Human-readable layer description for model summaries.
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  Layer() = default;
};

}  // namespace ss
