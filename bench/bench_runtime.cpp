// Parallel-vs-serial check of the runtime layer: a 256³ matmul through the
// context-aware overload (tensor/linalg.hpp) and core::prepare_clients,
// each timed serial and on a hardware_concurrency pool.  Prints both
// speedups and writes them to BENCH_runtime.json in the working directory.
// Kernel and per-layer timings live in bench_lstm_kernels and perfbench.
//
//   bench_runtime
#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/pipeline.hpp"
#include "metrics/timer.hpp"
#include "runtime/run_context.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/linalg.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

using namespace evfl;

namespace {

tensor::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::Rng rng(seed);
  tensor::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// Median wall time of fn() in seconds over `trials` measured runs, after
/// `warmup` unmeasured runs.  The warmup runs absorb one-time costs (page
/// faults, cache/TLB fill, thread-pool spin-up); the median is robust to the
/// occasional scheduler hiccup that min/mean are not.
template <typename Fn>
double time_median_of(std::size_t trials, std::size_t warmup, Fn&& fn) {
  for (std::size_t r = 0; r < warmup; ++r) fn();
  std::vector<double> samples(trials);
  for (std::size_t r = 0; r < trials; ++r) {
    const metrics::WallTimer timer;
    fn();
    samples[r] = timer.seconds();
  }
  std::sort(samples.begin(), samples.end());
  return samples[trials / 2];
}

struct Comparison {
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

Comparison compare_matmul(const runtime::RunContext& ctx) {
  const std::size_t n = 256;
  const tensor::Matrix a = random_matrix(n, n, 21);
  const tensor::Matrix b = random_matrix(n, n, 22);
  tensor::Matrix c(n, n);
  Comparison cmp;
  cmp.serial_seconds = time_median_of(5, 2, [&] {
    c.set_zero();
    tensor::matmul_acc(a, b, c);
  });
  cmp.parallel_seconds = time_median_of(5, 2, [&] {
    c.set_zero();
    tensor::matmul_acc(a, b, c, ctx);
  });
  return cmp;
}

Comparison compare_prepare_clients(const runtime::RunContext& ctx) {
  core::ExperimentConfig cfg;
  cfg.generator.hours = 600;
  cfg.ddos.bursts = 8;
  cfg.filter.autoencoder.window = 12;
  cfg.filter.autoencoder.encoder_units = 10;
  cfg.filter.autoencoder.latent_units = 5;
  cfg.filter.autoencoder.max_epochs = 4;
  cfg.cache_dir.clear();  // measure the real fit, not a cache hit
  Comparison cmp;
  // prepare_clients fits an autoencoder per zone: median-of-3 with one
  // warmup keeps the comparison honest without blowing up the runtime.
  cmp.serial_seconds =
      time_median_of(3, 1, [&] { (void)core::prepare_clients(cfg); });
  cmp.parallel_seconds =
      time_median_of(3, 1, [&] { (void)core::prepare_clients(cfg, &ctx); });
  return cmp;
}

void write_json(std::ostream& out, std::size_t threads,
                const Comparison& matmul, const Comparison& prep) {
  auto entry = [&](const char* name, const Comparison& c, const char* tail) {
    out << "  \"" << name << "\": {\"serial_seconds\": " << c.serial_seconds
        << ", \"parallel_seconds\": " << c.parallel_seconds
        << ", \"speedup\": " << c.speedup() << "}" << tail << "\n";
  };
  out << "{\n  \"threads\": " << threads << ",\n";
  entry("matmul_256", matmul, ",");
  entry("prepare_clients", prep, "");
  out << "}\n";
}

}  // namespace

int main() {
  runtime::ThreadPool pool(0);  // hardware_concurrency
  runtime::RunContext ctx{&pool, nullptr};
  std::cout << "=== runtime layer: parallel vs serial (threads="
            << pool.concurrency() << ") ===\n";

  const Comparison matmul = compare_matmul(ctx);
  std::cout << "matmul 256x256x256:  serial " << matmul.serial_seconds
            << "s, parallel " << matmul.parallel_seconds << "s, speedup "
            << matmul.speedup() << "x\n";

  const Comparison prep = compare_prepare_clients(ctx);
  std::cout << "prepare_clients:     serial " << prep.serial_seconds
            << "s, parallel " << prep.parallel_seconds << "s, speedup "
            << prep.speedup() << "x\n";

  std::ofstream json("BENCH_runtime.json");
  write_json(json, pool.concurrency(), matmul, prep);
  std::cout << "wrote BENCH_runtime.json\n";
  return 0;
}
