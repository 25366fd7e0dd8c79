// Time-distributed fully connected layer: y[n,t,:] = act(x[n,t,:] · W + b).
// With time == 1 this is an ordinary Dense layer, so the same class serves
// both the forecaster head and the autoencoder's TimeDistributed(Dense(1)).
#pragma once

#include "nn/activation.hpp"
#include "nn/layer.hpp"

namespace evfl::nn {

class Dense : public Layer {
 public:
  /// Weights are created lazily on the first forward (input width inferred)
  /// unless `input_features` is given here.
  Dense(std::size_t units, Activation activation, Rng& rng,
        std::size_t input_features = 0);

  Tensor3 forward(const Tensor3& input, bool training) override;
  Tensor3 backward(const Tensor3& grad_output, bool input_grad) override;
  std::vector<ParamRef> params() override;
  void zero_grads() override {
    if (gw_.empty()) return;
    gw_.set_zero();
    gb_.set_zero();
  }
  std::size_t output_features(std::size_t input_features) const override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }

  std::size_t units() const { return units_; }
  const Matrix& weights() const { return w_; }
  const Matrix& bias() const { return b_; }

 private:
  void ensure_built(std::size_t input_features);

  std::size_t units_;
  Activation activation_;
  Rng* rng_;

  Matrix w_;   // [in, units]
  Matrix b_;   // [1, units]
  Matrix gw_;
  Matrix gb_;

  // Forward caches for backward.
  Matrix cached_input_;    // [(n*t), in]
  Matrix cached_output_;   // [(n*t), units] post-activation
  std::size_t cached_n_ = 0;
  std::size_t cached_t_ = 0;
};

}  // namespace evfl::nn
