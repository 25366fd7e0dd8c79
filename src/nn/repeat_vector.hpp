// RepeatVector(T): tile a [N, 1, F] encoding across T timesteps so a decoder
// LSTM can unroll it back into a sequence (Keras RepeatVector equivalent).
#pragma once

#include "nn/layer.hpp"

namespace evfl::nn {

class RepeatVector : public Layer {
 public:
  explicit RepeatVector(std::size_t repeats);

  Tensor3 forward(const Tensor3& input, bool training) override;
  Tensor3 backward(const Tensor3& grad_output, bool input_grad) override;
  std::size_t output_features(std::size_t input_features) const override {
    return input_features;
  }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<RepeatVector>(*this);
  }

 private:
  std::size_t repeats_;
};

}  // namespace evfl::nn
