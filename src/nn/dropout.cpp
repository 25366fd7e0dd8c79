#include "nn/dropout.hpp"

namespace evfl::nn {

Dropout::Dropout(float rate, Rng& rng) : rate_(rate), rng_(&rng) {
  EVFL_REQUIRE(rate >= 0.0f && rate < 1.0f, "Dropout rate must be in [0,1)");
}

Tensor3 Dropout::forward(const Tensor3& input, bool training) {
  if (!training || rate_ == 0.0f) {
    mask_valid_ = false;
    return input;
  }
  const float scale = 1.0f / (1.0f - rate_);
  mask_.reshape(input.batch(), input.time(), input.features());
  // One keep decision per element, in element order: each is what
  // rng_->bernoulli(1 - rate) would have returned there.
  rng_->bernoulli_select(1.0 - rate_, scale, 0.0f, mask_.data(),
                         mask_.size());
  Tensor3 out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= mask_.data()[i];
  }
  mask_valid_ = true;
  return out;
}

Tensor3 Dropout::backward(const Tensor3& grad_output, bool input_grad) {
  EVFL_REQUIRE(!mask_valid_ || grad_output.same_shape(mask_),
               "Dropout backward shape mismatch");
  if (!input_grad) return {};
  if (!mask_valid_) return grad_output;  // eval-mode forward was identity
  Tensor3 dx = grad_output;
  for (std::size_t i = 0; i < dx.size(); ++i) dx.data()[i] *= mask_.data()[i];
  return dx;
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

}  // namespace evfl::nn
