#include "nn/dense.hpp"

#include <cstring>

#include "runtime/workspace.hpp"
#include "tensor/init.hpp"

namespace evfl::nn {

Dense::Dense(std::size_t units, Activation activation, Rng& rng,
             std::size_t input_features)
    : units_(units), activation_(activation), rng_(&rng) {
  EVFL_REQUIRE(units > 0, "Dense needs units > 0");
  if (input_features > 0) ensure_built(input_features);
}

void Dense::ensure_built(std::size_t input_features) {
  if (!w_.empty()) {
    if (w_.rows() != input_features) {
      throw ShapeError("Dense built for " + std::to_string(w_.rows()) +
                       " inputs, got " + std::to_string(input_features));
    }
    return;
  }
  w_ = tensor::glorot_uniform(input_features, units_, *rng_);
  b_ = Matrix(1, units_);
  gw_ = Matrix(input_features, units_);
  gb_ = Matrix(1, units_);
}

Tensor3 Dense::forward(const Tensor3& input, bool /*training*/) {
  ensure_built(input.features());
  cached_n_ = input.batch();
  cached_t_ = input.time();
  input.flatten_rows_into(cached_input_);

  // Compute straight into the cached output, whose storage (like the
  // cached input's) stays across batch sizes.
  cached_output_.reshape(cached_input_.rows(), units_);
  cached_output_.set_zero();
  matmul_acc(cached_input_, w_, cached_output_);
  cached_output_.add_row_broadcast(b_);
  apply_activation(activation_, cached_output_);
  return Tensor3::from_flat_rows(cached_output_, cached_n_, cached_t_);
}

Tensor3 Dense::backward(const Tensor3& grad_output, bool input_grad) {
  EVFL_ASSERT(!cached_input_.empty(), "Dense::backward before forward");
  const std::size_t rows = cached_output_.rows();
  const std::size_t cols = cached_output_.cols();
  if (grad_output.batch() * grad_output.time() != rows ||
      grad_output.features() != cols) {
    throw ShapeError("Dense::backward grad " + grad_output.shape_str() +
                     " vs output " + cached_output_.shape_str());
  }

  // dy and dx are step-local: borrow both from the thread's scratch lane
  // and run the view kernels over them directly.
  runtime::ScratchScope scratch(runtime::thread_workspace());
  tensor::MatView dy{scratch.borrow(rows * cols), rows, cols, cols};
  std::memcpy(dy.data, grad_output.data(), rows * cols * sizeof(float));

  // Chain through the activation using the cached outputs.
  if (activation_ != Activation::kLinear) {
    float* g = dy.data;
    const float* y = cached_output_.data();
    for (std::size_t i = 0; i < rows * cols; ++i) {
      g[i] *= activation_grad_from_output(activation_, y[i]);
    }
  }

  matmul_tn_acc(cached_input_.view(), dy, gw_.view());  // gw += xᵀ · dy
  {
    // gb += column sums of dy, accumulated in the usual row-major order.
    tensor::MatView sums{scratch.borrow_zeroed(cols), 1, cols, cols};
    for (std::size_t r = 0; r < rows; ++r) {
      const float* src = dy.row(r);
      for (std::size_t c = 0; c < cols; ++c) sums.data[c] += src[c];
    }
    float* gb = gb_.data();
    for (std::size_t c = 0; c < cols; ++c) gb[c] += sums.data[c];
  }

  if (!input_grad) return {};
  const std::size_t in = w_.rows();
  tensor::MatView dx{scratch.borrow(rows * in), rows, in, in};
  dx.set_zero();
  matmul_nt_acc(dy, w_.view(), dx);  // dx = dy · wᵀ
  return Tensor3::from_flat_rows(tensor::ConstMatView(dx), cached_n_, cached_t_);
}

std::vector<ParamRef> Dense::params() {
  EVFL_ASSERT(!w_.empty(), "Dense::params before build");
  return {{"dense.w", &w_, &gw_}, {"dense.b", &b_, &gb_}};
}

std::size_t Dense::output_features(std::size_t /*input_features*/) const {
  return units_;
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(units_) + ", " + to_string(activation_) + ")";
}

}  // namespace evfl::nn
