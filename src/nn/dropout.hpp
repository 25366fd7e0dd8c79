// Inverted dropout: activations are zeroed with probability `rate` during
// training and the survivors scaled by 1/(1-rate), so inference needs no
// rescaling.  The paper's autoencoder uses rate 0.2.
#pragma once

#include "nn/layer.hpp"

namespace evfl::nn {

class Dropout : public Layer {
 public:
  Dropout(float rate, Rng& rng);

  Tensor3 forward(const Tensor3& input, bool training) override;
  Tensor3 backward(const Tensor3& grad_output, bool input_grad) override;
  std::size_t output_features(std::size_t input_features) const override {
    return input_features;
  }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dropout>(*this);
  }

  float rate() const { return rate_; }

 private:
  float rate_;
  Rng* rng_;
  Tensor3 mask_;        // scaled keep mask from last training forward;
                        // its storage stays across batch sizes
  bool mask_valid_ = false;
};

}  // namespace evfl::nn
