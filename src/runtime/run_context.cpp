#include "runtime/run_context.hpp"

#include <algorithm>

namespace evfl::runtime {

void RunContext::parallel_for(
    std::size_t total, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (total == 0) return;
  if (pool != nullptr && pool->concurrency() > 1) {
    pool->parallel_for(total, grain, body);
  } else {
    body(0, total);
  }
}

std::size_t RunContext::grain_for(std::size_t total) const {
  const std::size_t lanes = std::max<std::size_t>(1, concurrency()) * 4;
  return std::max<std::size_t>(1, (total + lanes - 1) / lanes);
}

std::vector<tensor::Rng> split_rngs(tensor::Rng& root, std::size_t n) {
  std::vector<tensor::Rng> children;
  children.reserve(n);
  for (std::size_t i = 0; i < n; ++i) children.push_back(root.split());
  return children;
}

}  // namespace evfl::runtime
