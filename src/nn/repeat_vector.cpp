#include "nn/repeat_vector.hpp"

namespace evfl::nn {

RepeatVector::RepeatVector(std::size_t repeats) : repeats_(repeats) {
  EVFL_REQUIRE(repeats > 0, "RepeatVector needs repeats > 0");
}

Tensor3 RepeatVector::forward(const Tensor3& input, bool /*training*/) {
  EVFL_REQUIRE(input.time() == 1,
               "RepeatVector expects a [N,1,F] input, got " + input.shape_str());
  Tensor3 out(input.batch(), repeats_, input.features());
  const Matrix step = input.timestep(0);
  for (std::size_t t = 0; t < repeats_; ++t) out.set_timestep(t, step);
  return out;
}

Tensor3 RepeatVector::backward(const Tensor3& grad_output, bool input_grad) {
  EVFL_REQUIRE(grad_output.time() == repeats_,
               "RepeatVector backward time mismatch");
  if (!input_grad) return {};
  Tensor3 dx(grad_output.batch(), 1, grad_output.features());
  for (std::size_t t = 0; t < repeats_; ++t) {
    dx.add_timestep(0, grad_output.timestep(t));
  }
  return dx;
}

std::string RepeatVector::name() const {
  return "RepeatVector(" + std::to_string(repeats_) + ")";
}

}  // namespace evfl::nn
