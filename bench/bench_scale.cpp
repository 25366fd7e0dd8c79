// Fleet-scale bench for the hierarchical aggregation path:
//
//   1. sweep generated fleet sizes through the FleetDriver (edge tier +
//      per-round client sampling + lazy client materialization) and record
//      wall-clock per round, wire bytes per round, heap-allocation counters
//      and process RSS per fleet size;
//   2. check that per-round memory tracks the *sampled cohort*, not the
//      fleet: with a fixed cohort, quadrupling the population must not
//      materially change per-round allocation volume (the sub-linear memory
//      acceptance gate — shared broadcast buffers plus clients that exist
//      only while they train);
//   3. `--check-allocs` is the CI perf-smoke variant: a small fleet, serial
//      threads, exit 1 when steady rounds or a 4x larger population inflate
//      the per-round allocation byte volume beyond tolerance.
//
// Writes BENCH_scale.json.
//
//   bench_scale                  # full sweep (default 256/1024/4096)
//   bench_scale --clients N      # single fleet size
//   bench_scale --check-allocs   # CI gate, small fleets, no JSON
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/error.hpp"
#include "core/config.hpp"
#include "datagen/fleet.hpp"
#include "fl/fleet.hpp"
#include "fl/server.hpp"
#include "forecast/model.hpp"
#include "runtime/run_context.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace evfl;

/// "VmRSS:   123456 kB" reader; 0 when /proc is unavailable.
std::uint64_t proc_status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t pos = line.find_first_of("0123456789");
    if (pos == std::string::npos) return 0;
    return std::strtoull(line.c_str() + pos, nullptr, 10);
  }
  return 0;
}

struct ScalePoint {
  std::size_t clients = 0;
  std::size_t edges = 0;
  std::size_t sampled_per_round = 0;
  std::size_t rounds = 0;
  double wall_seconds_per_round = 0.0;
  double wire_bytes_per_round = 0.0;
  /// Steady-state per-round heap traffic, measured over the rounds after
  /// the first (the first round absorbs pool/buffer growth).
  double allocs_per_round = 0.0;
  double alloc_bytes_per_round = 0.0;
  std::uint64_t vm_rss_kib = 0;
  std::uint64_t vm_hwm_kib = 0;
  std::size_t timed_out = 0;
  bool quorum_ok = true;
};

/// Tiny-but-real fleet round: generated population, 2-tier aggregation,
/// every exchange through the wire.  `measure_rounds` rounds are timed after
/// one warmup round.
ScalePoint run_point(std::size_t clients, std::size_t edges,
                     std::size_t cohort, std::size_t threads,
                     std::size_t measure_rounds,
                     const core::ExperimentConfig& cfg) {
  datagen::FleetConfig fleet_cfg;
  fleet_cfg.clients = clients;
  fleet_cfg.hours = 96;  // short series: the bench measures orchestration
  fleet_cfg.seed = cfg.seed + 101;
  std::vector<datagen::ClientSpec> fleet = datagen::make_fleet(fleet_cfg);

  forecast::ForecasterConfig small;
  small.sequence_length = 12;
  small.lstm_units = 8;
  small.dense_units = 4;
  small.batch_size = 32;
  tensor::Rng model_rng(cfg.seed);
  fl::Server root(forecast::make_forecaster(small, model_rng).get_weights());

  fl::FleetDriverConfig drv;
  drv.edges = edges;
  drv.lookback = small.sequence_length;
  drv.client.epochs_per_round = 1;
  drv.client.batch_size = small.batch_size;
  const fl::ModelFactory factory = [small](tensor::Rng& rng) {
    return forecast::make_forecaster(small, rng);
  };
  if (cfg.sample_frac < 1.0) {
    drv.sampling.mode = fl::SamplingMode::kBernoulli;
    drv.sampling.fraction = cfg.sample_frac;
  } else if (cohort < clients) {
    drv.sampling.mode = fl::SamplingMode::kFixedSize;
    drv.sampling.count = cohort;
  }

  runtime::ThreadPool pool(threads);
  runtime::RunContext ctx;
  if (threads != 1) ctx.pool = &pool;

  fl::FleetDriver driver(root, std::move(fleet), factory, drv, &ctx);

  // Warmup round: first-use growth (thread pool lanes, wire buffers) is not
  // the steady state the sweep compares across fleet sizes.
  driver.run(1);

  const bench::AllocCount a0 = bench::alloc_now();
  const fl::FederatedRunResult res = driver.run(measure_rounds);
  const bench::AllocCount a1 = bench::alloc_now();

  ScalePoint p;
  p.clients = clients;
  p.edges = edges;
  p.rounds = measure_rounds;
  p.sampled_per_round = res.rounds.empty() ? 0 : res.rounds[0].sampled_clients;
  p.wall_seconds_per_round =
      res.total_seconds / static_cast<double>(measure_rounds);
  p.wire_bytes_per_round = static_cast<double>(res.network.bytes_sent) /
                           static_cast<double>(measure_rounds);
  p.allocs_per_round = static_cast<double>(a1.count - a0.count) /
                       static_cast<double>(measure_rounds);
  p.alloc_bytes_per_round = static_cast<double>(a1.bytes - a0.bytes) /
                            static_cast<double>(measure_rounds);
  p.vm_rss_kib = proc_status_kib("VmRSS:");
  p.vm_hwm_kib = proc_status_kib("VmHWM:");
  for (const fl::RoundMetrics& rm : res.rounds) {
    p.timed_out += rm.timed_out_clients;
    if (rm.updates_received == 0) p.quorum_ok = false;
  }
  return p;
}

void print_point(const ScalePoint& p) {
  std::printf("%7zu clients %4zu edges %6zu/round  %8.3f s/round  "
              "%10.0f B/round  %10.0f allocs/round  %8.1f MiB alloc/round  "
              "RSS %6.1f MiB\n",
              p.clients, p.edges, p.sampled_per_round,
              p.wall_seconds_per_round, p.wire_bytes_per_round,
              p.allocs_per_round, p.alloc_bytes_per_round / (1024.0 * 1024.0),
              static_cast<double>(p.vm_rss_kib) / 1024.0);
}

void write_json(const std::vector<ScalePoint>& sweep, std::size_t threads) {
  std::size_t max_cohort = 0;
  for (const ScalePoint& p : sweep) {
    max_cohort = std::max(max_cohort, p.sampled_per_round);
  }
  // Memory acceptance: between the two largest fleet sizes sharing a cohort
  // bound, alloc volume per round must grow far slower than the population.
  double alloc_growth = 1.0, client_growth = 1.0;
  if (sweep.size() >= 2) {
    const ScalePoint& a = sweep[sweep.size() - 2];
    const ScalePoint& b = sweep.back();
    if (a.alloc_bytes_per_round > 0.0 && a.clients > 0) {
      alloc_growth = b.alloc_bytes_per_round / a.alloc_bytes_per_round;
      client_growth =
          static_cast<double>(b.clients) / static_cast<double>(a.clients);
    }
  }
  const bool sublinear =
      sweep.size() < 2 || alloc_growth < 0.5 * client_growth ||
      client_growth <= 1.0;

  std::ofstream out("BENCH_scale.json");
  out << "{\n  \"config\": {\"threads\": " << threads << "},\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ScalePoint& p = sweep[i];
    out << "    {\"clients\": " << p.clients << ", \"edges\": " << p.edges
        << ", \"sampled_per_round\": " << p.sampled_per_round
        << ", \"rounds\": " << p.rounds
        << ", \"wall_seconds_per_round\": " << p.wall_seconds_per_round
        << ", \"wire_bytes_per_round\": " << p.wire_bytes_per_round
        << ", \"allocs_per_round\": " << p.allocs_per_round
        << ", \"alloc_bytes_per_round\": " << p.alloc_bytes_per_round
        << ", \"vm_rss_kib\": " << p.vm_rss_kib
        << ", \"vm_hwm_kib\": " << p.vm_hwm_kib
        << ", \"timed_out\": " << p.timed_out << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"summary\": {\"max_clients_per_round\": " << max_cohort
      << ", \"alloc_bytes_growth\": " << alloc_growth
      << ", \"population_growth\": " << client_growth
      << ", \"sublinear_memory\": " << (sublinear ? "true" : "false")
      << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << std::unitbuf;
  bool check_allocs = false;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-allocs") == 0) {
      check_allocs = true;
    } else {
      filtered.push_back(argv[i]);
    }
  }

  core::ExperimentConfig cfg;
  cfg.threads = 0;  // pool sized to the machine; override with --threads N
  try {
    core::apply_cli_overrides(cfg, static_cast<int>(filtered.size()),
                              filtered.data());
  } catch (const Error& e) {
    std::cerr << "argument error: " << e.what() << "\n";
    return 2;
  }

  if (check_allocs) {
    // CI gate, serial for determinism: with the sampled cohort held at 32,
    // a 4x population must not inflate per-round heap traffic — the fleet
    // exists as specs, clients are materialized per round and released.
    std::printf("=== scale bench: --check-allocs (cohort 32) ===\n");
    const ScalePoint small = run_point(64, 2, 32, 1, 2, cfg);
    const ScalePoint large = run_point(256, 8, 32, 1, 2, cfg);
    print_point(small);
    print_point(large);
    bool ok = true;
    if (small.alloc_bytes_per_round <= 0.0) {
      std::printf("FAIL: allocation counter saw nothing\n");
      ok = false;
    } else {
      const double growth =
          large.alloc_bytes_per_round / small.alloc_bytes_per_round;
      // 4x fleet, same cohort: tolerate bookkeeping (specs, shard tables),
      // reject anything resembling per-population round cost.
      if (growth > 1.5) {
        std::printf("FAIL: per-round alloc bytes grew %.2fx for a 4x "
                    "population (limit 1.5x)\n", growth);
        ok = false;
      } else {
        std::printf("OK: per-round alloc bytes grew %.2fx for a 4x "
                    "population (limit 1.5x)\n", growth);
      }
    }
    if (small.timed_out + large.timed_out != 0 || !small.quorum_ok ||
        !large.quorum_ok) {
      std::printf("FAIL: fault-free fleet rounds lost updates\n");
      ok = false;
    }
    return ok ? 0 : 1;
  }

  // ---- full sweep ----------------------------------------------------------
  std::vector<std::size_t> sizes = {256, 1024, 4096};
  if (cfg.fleet_clients > 0) sizes = {cfg.fleet_clients};
  const std::size_t cohort_cap = 1024;  // acceptance: >= 1k clients/round

  std::printf("=== scale bench: hierarchical fleet sweep ===\n");
  std::printf("config: %s\n", core::describe(cfg).c_str());
  std::vector<ScalePoint> sweep;
  for (const std::size_t n : sizes) {
    const std::size_t cohort = std::min(n, cohort_cap);
    const std::size_t edges = std::min(cfg.fleet_edges, n);
    sweep.push_back(run_point(n, edges, cohort, cfg.threads, 2, cfg));
    print_point(sweep.back());
  }
  write_json(sweep, cfg.threads);
  std::printf("wrote BENCH_scale.json\n");
  return 0;
}
