#include "stream/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::stream {

std::vector<float> batch_scores(forecast::Engine& engine,
                                const std::vector<float>& series,
                                const runtime::RunContext* ctx) {
  const forecast::ForecasterConfig& mc = engine.model_config();
  EVFL_REQUIRE(mc.input_features == 1, "batch_scores: univariate series only");
  const std::size_t lookback = mc.sequence_length;
  EVFL_REQUIRE(series.size() > lookback,
               "batch_scores: series no longer than the lookback");
  const std::size_t max_batch = engine.config().max_batch;

  const std::size_t n = series.size() - lookback;
  tensor::Tensor3 x(std::min(n, max_batch), lookback, 1);
  std::vector<float> forecasts(x.batch(), 0.0f);
  std::vector<float> out(n, 0.0f);

  std::size_t done = 0;
  while (done < n) {
    const std::size_t rows = std::min(n - done, max_batch);
    for (std::size_t r = 0; r < rows; ++r) {
      float* dst = x.data() + r * lookback;
      const float* src = series.data() + done + r;
      std::copy(src, src + lookback, dst);
    }
    engine.score_prefix(x, rows, forecasts.data(), ctx);
    for (std::size_t r = 0; r < rows; ++r) {
      const float err = forecasts[r] - series[done + r + lookback];
      out[done + r] = err * err;
    }
    done += rows;
  }
  return out;
}

}  // namespace evfl::stream
