#include "core/config.hpp"

#include <sstream>

#include "common/error.hpp"

namespace evfl::core {

namespace {

/// Strict non-negative integer parse: the whole token must be numeric.
/// std::stoul alone silently accepts trailing garbage ("--threads 8x" ->
/// 8) and wraps negatives; every failure mode becomes an evfl::Error here
/// so callers never leak std::invalid_argument to the user.
std::uint64_t parse_unsigned(const std::string& key, const std::string& value) {
  std::uint64_t parsed = 0;
  std::size_t consumed = 0;
  try {
    parsed = std::stoull(value, &consumed);
  } catch (const std::exception&) {
    throw Error("bad value for " + key + ": '" + value +
                "' (expected a non-negative integer)");
  }
  if (consumed != value.size() || value.find('-') != std::string::npos) {
    throw Error("bad value for " + key + ": '" + value +
                "' (expected a non-negative integer)");
  }
  return parsed;
}

/// Strict floating-point parse with full-token consumption ("0.9.1" and
/// "1.5abc" are errors, not prefix parses).
double parse_double(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  std::size_t consumed = 0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw Error("bad value for " + key + ": '" + value +
                "' (expected a number)");
  }
  if (consumed != value.size()) {
    throw Error("bad value for " + key + ": '" + value +
                "' (expected a number)");
  }
  return parsed;
}

}  // namespace

void apply_cli_overrides(ExperimentConfig& cfg, int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--seed") {
      cfg.seed = parse_unsigned(key, value);
      cfg.generator.seed = cfg.seed + 1;
    } else if (key == "--rounds") {
      cfg.federated_rounds = parse_unsigned(key, value);
    } else if (key == "--epochs") {
      cfg.epochs_per_round = parse_unsigned(key, value);
    } else if (key == "--hours") {
      cfg.generator.hours = parse_unsigned(key, value);
    } else if (key == "--lstm-units") {
      cfg.forecaster.lstm_units = parse_unsigned(key, value);
    } else if (key == "--seq-len") {
      cfg.forecaster.sequence_length = parse_unsigned(key, value);
      cfg.filter.autoencoder.window = cfg.forecaster.sequence_length;
    } else if (key == "--bursts") {
      cfg.ddos.bursts = parse_unsigned(key, value);
    } else if (key == "--threshold-pct") {
      cfg.filter.threshold.kind = anomaly::ThresholdKind::kPercentile;
      cfg.filter.threshold.param = parse_double(key, value);
    } else if (key == "--gap-tolerance") {
      cfg.filter.gap_tolerance = parse_unsigned(key, value);
    } else if (key == "--train-fraction") {
      cfg.train_fraction = parse_double(key, value);
    } else if (key == "--ae-epochs") {
      cfg.filter.autoencoder.max_epochs = parse_unsigned(key, value);
    } else if (key == "--damping") {
      cfg.ddos.damping = static_cast<float>(parse_double(key, value));
    } else if (key == "--threads") {
      cfg.threads = parse_unsigned(key, value);
      // Cap before it sizes a worker pool.
      if (cfg.threads > 1024) {
        throw Error("bad value for --threads: '" + value + "' (max 1024)");
      }
    } else if (key == "--codec") {
      cfg.codec.kind = fl::parse_codec_kind(value);
    } else if (key == "--topk-frac") {
      cfg.codec.topk_frac = parse_double(key, value);
      if (!(cfg.codec.topk_frac > 0.0) || cfg.codec.topk_frac > 1.0) {
        throw Error("bad value for --topk-frac: '" + value +
                    "' (expected a fraction in (0, 1])");
      }
    } else if (key == "--quant-bits") {
      const std::uint64_t bits = parse_unsigned(key, value);
      if (bits != 4 && bits != 8) {
        throw Error("bad value for --quant-bits: '" + value +
                    "' (expected 4 or 8)");
      }
      cfg.codec.quant_bits = static_cast<int>(bits);
    } else if (key == "--clients") {
      const std::uint64_t clients = parse_unsigned(key, value);
      if (clients > 1'000'000) {
        throw Error("bad value for --clients: '" + value + "' (max 1000000)");
      }
      cfg.fleet_clients = clients;
    } else if (key == "--edges") {
      const std::uint64_t edges = parse_unsigned(key, value);
      if (edges < 1 || edges > 4096) {
        throw Error("bad value for --edges: '" + value +
                    "' (expected 1..4096)");
      }
      cfg.fleet_edges = edges;
    } else if (key == "--sample-frac") {
      const double frac = parse_double(key, value);
      if (!(frac > 0.0) || frac > 1.0) {
        throw Error("bad value for --sample-frac: '" + value +
                    "' (expected a fraction in (0, 1])");
      }
      cfg.sample_frac = frac;
    } else if (key == "--serve-batch") {
      const std::uint64_t batch = parse_unsigned(key, value);
      if (batch < 1 || batch > 4096) {
        throw Error("bad value for --serve-batch: '" + value +
                    "' (expected 1..4096)");
      }
      cfg.serve_batch = batch;
    } else if (key == "--stream-queue-max") {
      const std::uint64_t n = parse_unsigned(key, value);
      if (n < 1 || n > 1'048'576) {
        throw Error("bad value for --stream-queue-max: '" + value +
                    "' (expected 1..1048576)");
      }
      cfg.stream_queue_max = n;
    } else if (key == "--stream-flush") {
      const std::uint64_t n = parse_unsigned(key, value);
      if (n < 1) {
        throw Error("bad value for --stream-flush: '" + value +
                    "' (expected >= 1)");
      }
      cfg.stream_flush = n;
    } else if (key == "--stream-shards") {
      const std::uint64_t n = parse_unsigned(key, value);
      if (n < 1 || n > 256) {
        throw Error("bad value for --stream-shards: '" + value +
                    "' (expected 1..256)");
      }
      cfg.stream_shards = n;
    } else if (key == "--stream-drift-z") {
      const double z = parse_double(key, value);
      if (!(z >= 0.0)) {
        throw Error("bad value for --stream-drift-z: '" + value +
                    "' (expected >= 0; 0 disables the drift probe)");
      }
      cfg.stream_drift_z = z;
    } else if (key == "--agg-rule") {
      cfg.fedavg.rule = fl::parse_aggregation_rule(value);
    } else if (key == "--attack-kind") {
      cfg.attack.kind = fl::parse_attack_kind(value);
    } else if (key == "--attack-frac") {
      const double frac = parse_double(key, value);
      if (frac < 0.0 || frac > 1.0) {
        throw Error("bad value for --attack-frac: '" + value +
                    "' (expected a fraction in [0, 1])");
      }
      cfg.attack.fraction = frac;
    } else if (key == "--cache-dir") {
      cfg.cache_dir = value;
    } else if (key == "--trace-out") {
      cfg.trace_out = value;
    } else if (key == "--metrics-json") {
      cfg.metrics_json = value;
    } else {
      throw Error("unknown option: " + key);
    }
  }
  if (argc >= 2 && (argc - 1) % 2 != 0) {
    throw Error("options must come in --key value pairs");
  }
}

std::string describe(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << "seq=" << cfg.forecaster.sequence_length
     << " lstm=" << cfg.forecaster.lstm_units
     << " rounds=" << cfg.federated_rounds
     << " epochs/round=" << cfg.epochs_per_round
     << " lr=" << cfg.forecaster.learning_rate
     << " batch=" << cfg.forecaster.batch_size
     << " hours=" << cfg.generator.hours
     << " bursts=" << cfg.ddos.bursts
     << " threshold=" << anomaly::to_string(cfg.filter.threshold.kind) << "("
     << cfg.filter.threshold.param << ")"
     << " seed=" << cfg.seed << " threads=" << cfg.threads
     << " codec=" << fl::to_string(cfg.codec.kind)
     << " agg-rule=" << fl::to_string(cfg.fedavg.rule);
  if (cfg.attack.kind != fl::AttackKind::kNone) {
    os << " attack=" << fl::to_string(cfg.attack.kind)
       << " attack-frac=" << cfg.attack.fraction;
  }
  if (cfg.fleet_clients > 0) {
    os << " clients=" << cfg.fleet_clients << " edges=" << cfg.fleet_edges
       << " sample-frac=" << cfg.sample_frac;
  }
  return os.str();
}

}  // namespace evfl::core
