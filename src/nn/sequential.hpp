// Sequential model container: owns an ordered list of layers, runs
// forward/backward through them, and exposes the flat weight vector the
// federated-averaging plumbing exchanges between clients.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace evfl::nn {

class Sequential {
 public:
  Sequential() = default;

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Deep copy via per-layer clone() — replicates a model so independent
  /// threads can run inference concurrently (each replica owns its caches).
  Sequential clone() const;

  /// Append a layer; returns *this for fluent building.
  Sequential& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  Tensor3 forward(const Tensor3& input, bool training);
  /// Convenience for inference.
  Tensor3 predict(const Tensor3& input) { return forward(input, false); }

  /// Backward through all layers, accumulating every parameter gradient.
  /// Returns dLoss/dInput when `input_grad` is set; otherwise the first
  /// layer skips computing it and the result is an empty tensor.
  Tensor3 backward(const Tensor3& grad_output, bool input_grad);

  std::vector<ParamRef> params();
  void zero_grads();

  /// Total trainable scalar count.  Layers build lazily, so this (and the
  /// weight accessors) require a forward pass or explicit input sizes first.
  std::size_t weight_count();

  /// Flatten all parameters into one contiguous vector (layer order, then
  /// param order within layer, row-major within matrix).
  std::vector<float> get_weights();

  /// Inverse of get_weights; sizes must match exactly.
  void set_weights(const std::vector<float>& flat);

  /// Gradients in the same flat layout (for tests / analysis).
  std::vector<float> get_grads();

  /// Persist / restore the flat weight vector (binary, CRC-checked).  The
  /// architecture itself is code, not data: loading into a model of a
  /// different shape throws.
  void save_weights(const std::string& path);
  void load_weights(const std::string& path);

  std::string summary();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace evfl::nn
