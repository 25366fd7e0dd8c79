// Layer abstraction for the from-scratch neural-network substrate.
//
// Every layer maps a Tensor3 [batch, time, features] to another Tensor3 and
// supports a single cached backward pass (forward must precede backward on
// the same batch).  Parameters are exposed as (value, grad) matrix pairs so
// optimizers and the federated weight plumbing stay layer-agnostic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::nn {

using tensor::Matrix;
using tensor::Rng;
using tensor::Tensor3;

/// Non-owning reference to one trainable parameter and its gradient buffer.
struct ParamRef {
  std::string name;
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass.  `training` enables stochastic behaviour (dropout).
  virtual Tensor3 forward(const Tensor3& input, bool training) = 0;

  /// Backward pass for the most recent forward batch.  Accumulates parameter
  /// gradients into the layer's grad buffers.  Returns dLoss/dInput when
  /// `input_grad` is set; otherwise the layer skips computing it and
  /// returns an empty tensor (a model's first layer during training, whose
  /// input gradient nothing reads).  Parameter gradients are the same bits
  /// either way.
  virtual Tensor3 backward(const Tensor3& grad_output, bool input_grad) = 0;

  /// Trainable parameters; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Deep copy of the layer: parameters, lazily-built shapes and caches.
  /// Clones share the parent's Rng handle, so concurrent *inference* on
  /// clones is safe (inference never draws), while concurrent training on
  /// clones would race the generator and is not supported.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Zero all parameter gradient buffers.
  /// Zero all gradient buffers.  Layers with parameters override this to
  /// hit their members directly — the default builds a params() vector,
  /// which is allocation churn in the training hot loop.
  virtual void zero_grads() {
    for (ParamRef& p : params()) p.grad->set_zero();
  }

  /// Output feature count for a given input feature count (shape inference).
  virtual std::size_t output_features(std::size_t input_features) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace evfl::nn
