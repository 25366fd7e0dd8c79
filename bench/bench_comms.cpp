// Microbench + scenario parity check for the wire v2 comms path:
//
//   1. serialize/deserialize throughput per codec at the paper's forecaster
//      dimension and at a large synthetic dimension, plus *heap allocations
//      per message* — the steady-state serialize path must not allocate
//      (the property `--check-allocs` pins for the perf-smoke CI job, like
//      bench_lstm_kernels does for the training step);
//   2. wire bytes per message per codec against the dense-equivalent size;
//   3. the Table-III federated scenario run twice on identical pipeline
//      output (shared cache_dir) — dense vs top-k+int8 — reporting the
//      bytes/round reduction and the R² cost of compression.
//
// Writes BENCH_comms.json.
//
//   bench_comms                 # full run, prints + writes JSON
//   bench_comms --check-allocs  # microbench only; exit 1 if the steady
//                               # state serialize/decode paths allocate
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/error.hpp"
#include "core/scenario_runner.hpp"
#include "fl/codec.hpp"
#include "fl/serialize.hpp"
#include "forecast/model.hpp"
#include "metrics/timer.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace evfl;

constexpr std::size_t kLargeDim = 1u << 20;  // 1M params, 4 MiB dense

struct OpStats {
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
};

/// Time `op` over `iters` iterations after `warmup` unmeasured ones (the
/// warmup absorbs first-use buffer growth — steady state is what's pinned).
template <typename Fn>
OpStats measure(std::size_t warmup, std::size_t iters, Fn&& op) {
  for (std::size_t i = 0; i < warmup; ++i) op();
  const std::uint64_t a0 = bench::alloc_now().count;
  const metrics::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) op();
  const double secs = timer.seconds();
  const std::uint64_t a1 = bench::alloc_now().count;
  OpStats s;
  s.ops_per_sec = secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
  s.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(iters);
  return s;
}

struct CodecBench {
  std::string name;
  fl::CodecConfig cfg;
  std::size_t wire_bytes = 0;
  std::size_t dense_bytes = 0;
  OpStats serialize;
  OpStats deserialize;
};

/// Serialize + decode one update message under `cfg` at dimension `dim`,
/// reusing every buffer — what one client-round of uplink traffic costs.
CodecBench bench_codec(const std::string& name, const fl::CodecConfig& cfg,
                       std::size_t dim, std::size_t warmup,
                       std::size_t iters) {
  tensor::Rng rng(7);
  fl::WeightUpdate update;
  update.client_id = 1;
  update.round = 3;
  update.sample_count = 1000;
  update.train_loss = 0.5f;
  update.weights.resize(dim);
  std::vector<float> reference(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    reference[i] = rng.normal(0.0f, 1.0f);
    update.weights[i] = reference[i] + rng.normal(0.0f, 0.01f);
  }

  fl::UpdateEncoder encoder(cfg);
  std::vector<std::uint8_t> wire;
  CodecBench b;
  b.name = name;
  b.cfg = cfg;
  b.serialize = measure(warmup, iters,
                        [&] { encoder.encode(update, reference, wire); });
  b.wire_bytes = wire.size();
  b.dense_bytes = fl::kWireHeaderBytesV1 + dim * sizeof(float);

  fl::WeightUpdate decoded;
  b.deserialize = measure(warmup, iters, [&] {
    fl::deserialize_update_into(wire, decoded);
  });
  return b;
}

/// The broadcast leg under kTopKQuant (the only codec that compresses it).
CodecBench bench_broadcast(std::size_t dim, std::size_t warmup,
                           std::size_t iters) {
  tensor::Rng rng(9);
  std::vector<float> weights(dim);
  for (float& w : weights) w = rng.normal(0.0f, 1.0f);

  fl::CodecConfig cfg;
  cfg.kind = fl::CodecKind::kTopKQuant;
  std::vector<std::uint8_t> wire;
  CodecBench b;
  b.name = "broadcast_q8";
  b.cfg = cfg;
  b.serialize = measure(warmup, iters, [&] {
    fl::encode_global(/*round=*/3, weights, cfg, wire);
  });
  b.wire_bytes = wire.size();
  b.dense_bytes = fl::kWireHeaderBytesV1 + dim * sizeof(float);

  fl::GlobalModel decoded;
  b.deserialize = measure(warmup, iters, [&] {
    fl::deserialize_global_into(wire, decoded);
  });
  return b;
}

double ratio(const CodecBench& b) {
  return b.wire_bytes > 0
             ? static_cast<double>(b.dense_bytes) / b.wire_bytes
             : 0.0;
}

void print_codec(const CodecBench& b) {
  std::printf("%-13s %9zu B  (%5.2fx)  ser %10.0f msg/s %6.1f allocs"
              "   de %10.0f msg/s %6.1f allocs\n",
              b.name.c_str(), b.wire_bytes, ratio(b), b.serialize.ops_per_sec,
              b.serialize.allocs_per_op, b.deserialize.ops_per_sec,
              b.deserialize.allocs_per_op);
}

std::vector<CodecBench> run_microbench(std::size_t dim, std::size_t warmup,
                                       std::size_t iters) {
  fl::CodecConfig dense, delta, topk, topk_q8, topk_q4;
  delta.kind = fl::CodecKind::kDelta;
  topk.kind = fl::CodecKind::kTopK;
  topk_q8.kind = fl::CodecKind::kTopKQuant;
  topk_q4.kind = fl::CodecKind::kTopKQuant;
  topk_q4.quant_bits = 4;

  std::vector<CodecBench> out;
  out.push_back(bench_codec("dense", dense, dim, warmup, iters));
  out.push_back(bench_codec("delta", delta, dim, warmup, iters));
  out.push_back(bench_codec("topk", topk, dim, warmup, iters));
  out.push_back(bench_codec("topk_q8", topk_q8, dim, warmup, iters));
  out.push_back(bench_codec("topk_q4", topk_q4, dim, warmup, iters));
  out.push_back(bench_broadcast(dim, warmup, iters));
  return out;
}

struct ScenarioArm {
  std::string name;
  double mean_r2 = 0.0;
  double bytes_per_round = 0.0;
  std::uint64_t bytes_total = 0;
  double compression_ratio = 1.0;
};

/// One federated Table-III run (filtered scenario) under `codec`; both arms
/// share cfg.cache_dir so they train on identical pipeline output.
ScenarioArm run_arm(const std::string& name, core::ExperimentConfig cfg,
                    const fl::CodecConfig& codec) {
  cfg.codec = codec;
  core::ScenarioRunner runner(cfg);
  const core::ScenarioResult res =
      runner.run_federated(core::DataScenario::kFiltered);

  ScenarioArm arm;
  arm.name = name;
  arm.bytes_total = res.network.bytes_sent;
  arm.bytes_per_round =
      cfg.federated_rounds > 0
          ? static_cast<double>(res.network.bytes_sent) / cfg.federated_rounds
          : 0.0;
  double r2_sum = 0.0;
  for (const core::ClientEvaluation& ev : res.per_client) {
    r2_sum += ev.regression.r2;
  }
  arm.mean_r2 = res.per_client.empty()
                    ? 0.0
                    : r2_sum / static_cast<double>(res.per_client.size());
  std::uint64_t wire = 0, logical = 0;
  for (const obs::RoundTelemetry& rt : runner.round_telemetry().rounds()) {
    wire += rt.bytes_down + rt.bytes_up;
    logical += rt.logical_bytes_down + rt.logical_bytes_up;
  }
  if (wire > 0 && logical > 0) {
    arm.compression_ratio =
        static_cast<double>(logical) / static_cast<double>(wire);
  }
  return arm;
}

void write_json(std::size_t forecaster_dim,
                const std::vector<CodecBench>& small,
                const std::vector<CodecBench>& large,
                const ScenarioArm* dense_arm, const ScenarioArm* topk_arm,
                std::size_t rounds) {
  std::ofstream out("BENCH_comms.json");
  const auto codec_block = [&](const std::vector<CodecBench>& benches) {
    for (std::size_t i = 0; i < benches.size(); ++i) {
      const CodecBench& b = benches[i];
      out << "      \"" << b.name << "\": {\"wire_bytes\": " << b.wire_bytes
          << ", \"dense_bytes\": " << b.dense_bytes
          << ", \"ratio\": " << ratio(b)
          << ", \"serialize_msgs_per_sec\": " << b.serialize.ops_per_sec
          << ", \"serialize_allocs_per_msg\": " << b.serialize.allocs_per_op
          << ", \"deserialize_msgs_per_sec\": " << b.deserialize.ops_per_sec
          << ", \"deserialize_allocs_per_msg\": "
          << b.deserialize.allocs_per_op << "}"
          << (i + 1 < benches.size() ? "," : "") << "\n";
    }
  };
  out << "{\n  \"config\": {\"forecaster_dim\": " << forecaster_dim
      << ", \"large_dim\": " << kLargeDim << "},\n";
  out << "  \"microbench\": {\n    \"forecaster_dim\": {\n";
  codec_block(small);
  out << "    },\n    \"large_dim\": {\n";
  codec_block(large);
  out << "    }\n  }";
  if (dense_arm != nullptr && topk_arm != nullptr) {
    const double reduction =
        topk_arm->bytes_per_round > 0.0
            ? dense_arm->bytes_per_round / topk_arm->bytes_per_round
            : 0.0;
    const double degradation = dense_arm->mean_r2 - topk_arm->mean_r2;
    const auto arm_block = [&](const ScenarioArm& a) {
      out << "{\"bytes_total\": " << a.bytes_total
          << ", \"bytes_per_round\": " << a.bytes_per_round
          << ", \"compression_ratio\": " << a.compression_ratio
          << ", \"mean_r2\": " << a.mean_r2 << "}";
    };
    out << ",\n  \"scenario\": {\n    \"rounds\": " << rounds
        << ",\n    \"dense\": ";
    arm_block(*dense_arm);
    out << ",\n    \"topk_q\": ";
    arm_block(*topk_arm);
    out << ",\n    \"bytes_reduction\": " << reduction
        << ",\n    \"r2_degradation\": " << degradation << "\n  }";
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << std::unitbuf;
  bool check_allocs = false;
  // Strip the bench's own bare flags before the shared override parser sees
  // the argv (it rejects unknown keys by design).
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
  cfg.cache_dir = "bench_cache";  // both arms share one pipeline pass
  try {
    core::apply_cli_overrides(cfg, static_cast<int>(filtered.size()),
                              filtered.data());
  } catch (const Error& e) {
    std::cerr << "argument error: " << e.what() << "\n";
    return 2;
  }

  // The real model dimension the federated path ships every round.
  tensor::Rng model_rng(1);
  const std::size_t forecaster_dim =
      forecast::make_forecaster(cfg.forecaster, model_rng)
          .get_weights()
          .size();

  const std::size_t warmup = check_allocs ? 3 : 10;
  const std::size_t iters = check_allocs ? 5 : 200;

  std::printf("=== comms bench: wire v2 codecs ===\n");
  std::printf("-- update messages, forecaster dim (%zu params) --\n",
              forecaster_dim);
  const std::vector<CodecBench> small =
      run_microbench(forecaster_dim, warmup, iters);
  for (const CodecBench& b : small) print_codec(b);
  std::printf("-- update messages, large dim (%zu params) --\n",
              static_cast<std::size_t>(kLargeDim));
  const std::vector<CodecBench> large =
      run_microbench(kLargeDim, warmup, check_allocs ? iters : 20);
  for (const CodecBench& b : large) print_codec(b);

  if (check_allocs) {
    // The deterministic regression gate: steady-state serialize and decode
    // must not touch the heap for any codec, at either dimension.
    bool ok = true;
    for (const std::vector<CodecBench>* set : {&small, &large}) {
      for (const CodecBench& b : *set) {
        if (b.serialize.allocs_per_op > 0.0 ||
            b.deserialize.allocs_per_op > 0.0) {
          std::printf("FAIL: %s allocates in steady state "
                      "(ser %.1f/msg, de %.1f/msg)\n",
                      b.name.c_str(), b.serialize.allocs_per_op,
                      b.deserialize.allocs_per_op);
          ok = false;
        }
      }
    }
    if (!ok) return 1;
    std::printf("OK: steady-state serialize/decode paths are "
                "allocation-free\n");
    return 0;
  }

  // ---- scenario parity: Table-III federated, dense vs topk+int8 ----------
  std::printf("\n=== Table III federated scenario: dense vs topk_q ===\n");
  std::printf("config: %s\n", core::describe(cfg).c_str());

  fl::CodecConfig dense_codec;  // lossless v1 default
  fl::CodecConfig topk_codec = cfg.codec;
  topk_codec.kind = fl::CodecKind::kTopKQuant;

  std::printf("[1/2] federated run, codec=dense...\n");
  const ScenarioArm dense_arm = run_arm("dense", cfg, dense_codec);
  std::printf("[2/2] federated run, codec=topk_q (frac=%.3f, bits=%d)...\n",
              topk_codec.topk_frac, topk_codec.quant_bits);
  const ScenarioArm topk_arm = run_arm("topk_q", cfg, topk_codec);

  const double reduction = topk_arm.bytes_per_round > 0.0
                               ? dense_arm.bytes_per_round /
                                     topk_arm.bytes_per_round
                               : 0.0;
  const double degradation = dense_arm.mean_r2 - topk_arm.mean_r2;
  for (const ScenarioArm* arm : {&dense_arm, &topk_arm}) {
    std::printf("%-7s %12.0f B/round  (telemetry ratio %5.2fx)  "
                "mean R2 %.4f\n",
                arm->name.c_str(), arm->bytes_per_round,
                arm->compression_ratio, arm->mean_r2);
  }
  std::printf("bytes/round reduction: %.2fx (target >= 4x): %s\n", reduction,
              reduction >= 4.0 ? "PASS" : "FAIL");
  std::printf("R2 degradation: %+.4f (target <= 0.01): %s\n", degradation,
              degradation <= 0.01 ? "PASS" : "FAIL");

  write_json(forecaster_dim, small, large, &dense_arm, &topk_arm,
             cfg.federated_rounds);
  std::printf("wrote BENCH_comms.json\n");
  return 0;
}
