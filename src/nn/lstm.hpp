// LSTM layer with full backpropagation through time.
//
// Gate layout follows the common [i | f | g | o] convention with a fused
// pre-activation Z = x·Wx + h·Wh + b of width 4*hidden.  The forget-gate
// bias initializes to 1 (standard remedy for early vanishing memory), the
// input kernel is Glorot uniform, and the recurrent kernel is per-gate
// orthogonal — the same recipe Keras uses for the paper's models.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace evfl::nn {

class Lstm : public Layer {
 public:
  /// `return_sequences` true yields [N, T, H]; false yields the final hidden
  /// state as [N, 1, H] (Keras LSTM(units) default).
  Lstm(std::size_t units, bool return_sequences, Rng& rng,
       std::size_t input_features = 0);

  Tensor3 forward(const Tensor3& input, bool training) override;
  Tensor3 backward(const Tensor3& grad_output, bool input_grad) override;
  std::vector<ParamRef> params() override;
  void zero_grads() override {
    if (gwx_.empty()) return;
    gwx_.set_zero();
    gwh_.set_zero();
    gb_.set_zero();
  }
  std::size_t output_features(std::size_t input_features) const override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Lstm>(*this);
  }

  std::size_t units() const { return units_; }
  bool return_sequences() const { return return_sequences_; }

  /// The storage behind the step caches of the last forward, step by step
  /// (x, h, c, z and tanh(c) of each).  A batch no larger than the largest
  /// one seen runs in these same blocks.
  std::vector<const float*> cache_storage() const;

 private:
  void ensure_built(std::size_t input_features);

  std::size_t units_;
  bool return_sequences_;
  Rng* rng_;

  Matrix wx_;  // [in, 4H]
  Matrix wh_;  // [H, 4H]
  Matrix b_;   // [1, 4H]
  Matrix gwx_, gwh_, gb_;

  // Per-timestep caches from the last forward pass.  Step t's cache is the
  // state itself: it holds h_t and c_t, which step t + 1 reads as its
  // h_prev and c_prev (step 0 reads zero_state_), and BPTT reads them
  // back the same way.  Gate activations live fused in `z` ([i | f | g | o]
  // blocks of the pre-activation, activated in place).  Every buffer
  // here keeps its storage across batch sizes (Matrix::reshape), so a
  // ragged last batch or a one-window predict runs in the blocks of the
  // largest batch seen.
  struct StepCache {
    Matrix x;       // [N, in]
    Matrix h;       // h_t, [N, H]
    Matrix c;       // c_t, [N, H]
    Matrix z;       // [N, 4H] activated gates, fused
    Matrix c_tanh;  // tanh(c_t), [N, H]
  };
  std::vector<StepCache> cache_;
  Matrix zero_state_;  // [N, H] zeros: h and c before step 0
  std::size_t cached_n_ = 0;
  std::size_t cached_t_ = 0;
  std::size_t cached_in_ = 0;

  // Backward scratch, reused across calls so the steady state allocates
  // nothing.
  Matrix bwd_dh_, bwd_dc_next_;           // [N, H]
  Matrix bwd_dz_;                         // [N, 4H]
  Matrix bwd_dx_step_;                    // [N, in]
  Matrix bwd_col_sums_;                   // [1, 4H]
  Matrix bwd_wxt_, bwd_wht_;              // Wxᵀ [4H, in], Whᵀ [4H, H]
};

}  // namespace evfl::nn
