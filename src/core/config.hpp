// Experiment configuration: one struct holding every knob of the paper's
// pipeline, defaulted to the published hyperparameters, plus a tiny CLI
// override parser shared by all bench binaries and examples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anomaly/filter.hpp"
#include "attack/ddos_injector.hpp"
#include "datagen/shenzhen.hpp"
#include "fl/adversary.hpp"
#include "fl/codec.hpp"
#include "fl/fedavg.hpp"
#include "forecast/model.hpp"

namespace evfl::core {

struct ExperimentConfig {
  datagen::GeneratorConfig generator;      // 4,344 hourly points, 3 zones
  attack::DdosConfig ddos;
  anomaly::FilterConfig filter;            // AE 50->25->25->50, 98th pct
  forecast::ForecasterConfig forecaster;   // LSTM 50, Dense 10 relu, Dense 1
  fl::FedAvgConfig fedavg;
  /// Adaptive adversary simulated inside the protocol (default: none).
  /// `fedavg.rule` picks the aggregation defense.
  fl::AdversaryConfig attack;
  /// Wire codec for the federated comms path (default kDense: lossless v1
  /// bytes, bit-identical results to the uncompressed path).
  fl::CodecConfig codec;

  std::size_t federated_rounds = 5;        // FEDERATED_ROUNDS
  std::size_t epochs_per_round = 10;       // EPOCHS_PER_ROUND
  double train_fraction = 0.8;             // 80/20 temporal split
  std::uint64_t seed = 42;

  /// Fleet-scale topology: 0 keeps the paper's flat 3-zone federation;
  /// N > 0 runs a generated population of N clients behind `fleet_edges`
  /// edge aggregators (see fl/fleet.hpp).
  std::size_t fleet_clients = 0;
  std::size_t fleet_edges = 8;
  /// Per-round client sampling fraction in (0, 1]; 1.0 = every client
  /// participates every round.
  double sample_frac = 1.0;

  /// Serving-engine knob (forecast::Engine, bench_serving): series scored
  /// per engine batch.
  std::size_t serve_batch = 32;

  /// Streaming online detection (stream::ShardedPipeline, bench_stream):
  /// queue-max bounds the event queue (drop-oldest past the max) and each
  /// shard's ingest ring; flush sizes each zone's pending-sample reserve
  /// (the samples it takes between flushes without allocating);
  /// `stream_shards` hash-partitions the zones across that many shards;
  /// `stream_drift_z` > 0 arms per-zone drift-triggered threshold
  /// re-seeding at that z-bound (0 = probe off).
  std::size_t stream_queue_max = 4096;
  std::size_t stream_flush = 256;
  std::size_t stream_shards = 1;
  double stream_drift_z = 0.0;

  /// Worker-thread budget for the runtime execution context: 1 = serial
  /// (the default — bit-reproducible and what the tests assume), 0 = size
  /// to hardware_concurrency(), N = exactly N threads.  Parallel paths are
  /// bit-identical to serial, so this only trades wall-clock time.
  std::size_t threads = 1;

  /// The paper's centralized baseline pools "combined sequences from all
  /// clients ... without [per-client] preprocessing" (§II-C-1): one global
  /// scaling.  Set false to give the centralized model per-client scaling
  /// instead (ablation).
  bool centralized_shared_scaler = true;

  /// When non-empty, prepare_clients() caches its output (generated,
  /// attacked and filtered series plus detection flags) in this directory,
  /// keyed by a config fingerprint.  Lets the per-table bench binaries
  /// share one expensive autoencoder-fitting pass.
  std::string cache_dir;

  /// When non-empty, the run writes Chrome-trace_event-compatible JSONL
  /// spans (rounds, per-client training, pipeline stages) to this file.
  std::string trace_out;
  /// When non-empty, the run writes its metrics JSON (per-round telemetry
  /// records, round-latency histograms with p50/p95/p99, runtime counters)
  /// to this file.
  std::string metrics_json;
};

/// Apply "--key value" overrides.  Known keys:
///   --seed N  --rounds N  --epochs N  --hours N  --lstm-units N
///   --seq-len N  --bursts N  --threshold-pct X  --gap-tolerance N
///   --train-fraction X  --ae-epochs N  --damping X
///   --threads N (0 = hardware_concurrency)
///   --cache-dir PATH  --trace-out FILE  --metrics-json FILE
///   --codec dense|delta|topk|topk_q  --topk-frac X  --quant-bits 4|8
///   --clients N  --edges N  --sample-frac X
///   --serve-batch N (1..4096)
///   --stream-queue-max N (1..1048576)  --stream-flush N (>=1)
///   --stream-shards N (1..256)  --stream-drift-z X (>= 0, 0 = probe off)
///   --agg-rule mean|trimmed_mean|median|norm_bounded|multi_krum
///   --attack-kind none|sign_flip|alie|label_flip|backdoor
///   --attack-frac X (fraction of clients compromised, [0, 1])
/// Unknown keys throw evfl::Error (typos must not silently run the
/// default), and numeric values must consume the whole token: "8x" or
/// "1.5abc" is an error, never a silent prefix parse.
void apply_cli_overrides(ExperimentConfig& cfg, int argc, char** argv);

/// One-line render of the headline parameters (for bench banners).
std::string describe(const ExperimentConfig& cfg);

}  // namespace evfl::core
