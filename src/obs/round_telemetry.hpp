// Per-federated-round telemetry records.
//
// Each driver closes a round by filling one RoundTelemetry — wall time,
// per-client train seconds, serialized bytes in both directions, the
// round-protocol robustness counters, and the validator's rejection
// breakdown — and handing it to a RoundTelemetrySink.  The sink keeps the
// ordered record list plus latency/size histograms and renders everything
// as one metrics JSON document, which is what benches write next to their
// trace files and what later scaling PRs regress against.
//
// The structs are plain data in evfl::obs so the subsystem stays free of
// fl/ dependencies; the drivers copy their counters in.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace evfl::obs {

struct RoundTelemetry {
  std::uint32_t round = 0;
  double wall_seconds = 0.0;
  /// Slowest client's virtual round time (training seconds plus straggler
  /// delay).  The round lasts until this time or its deadline, whichever
  /// comes first.
  double max_client_seconds = 0.0;
  /// Local-training seconds per client slot (driver client order).
  std::vector<double> client_train_seconds;

  /// Serialized broadcast bytes that reached clients this round (wire size
  /// — what the configured codec actually put on the network).
  std::uint64_t bytes_down = 0;
  /// Serialized update bytes the server drained this round (wire size).
  std::uint64_t bytes_up = 0;
  /// Dense-equivalent bytes for the same messages (v1 header + fp32
  /// payload): what an uncompressed exchange would have cost.  The ratio
  /// logical/wire is the round's compression factor.
  std::uint64_t logical_bytes_down = 0;
  std::uint64_t logical_bytes_up = 0;

  /// logical / wire bytes over both legs; 1.0 when nothing crossed the
  /// network or no logical accounting was provided.
  double compression_ratio() const {
    const std::uint64_t wire = bytes_down + bytes_up;
    const std::uint64_t logical = logical_bytes_down + logical_bytes_up;
    if (wire == 0 || logical == 0) return 1.0;
    return static_cast<double>(logical) / static_cast<double>(wire);
  }

  // Round-protocol counters (mirrors fl::RoundMetrics).
  std::size_t updates_accepted = 0;
  std::size_t rejected_updates = 0;
  std::size_t late_updates = 0;
  std::size_t dropped_messages = 0;
  std::size_t timed_out_clients = 0;
  /// Fleet size the driver manages, and how many clients were sampled to
  /// participate this round (== population without client sampling).
  std::size_t population = 0;
  std::size_t sampled_clients = 0;

  // Validator rejection reasons (mirrors fl::RoundAudit).
  std::size_t rejected_nonfinite = 0;
  std::size_t rejected_stale = 0;
  std::size_t rejected_duplicate = 0;
  std::size_t rejected_dimension = 0;
  std::size_t clipped = 0;
  /// Clipped updates that were forwarded shard aggregates — each one cost a
  /// whole shard its exact int128 fold, not just one client's movement.
  std::size_t clipped_aggregates = 0;
  bool quorum_met = true;
};

/// Thread-safe accumulator of RoundTelemetry records across one or more
/// federated runs.
class RoundTelemetrySink {
 public:
  RoundTelemetrySink();

  void record(RoundTelemetry rt);

  std::size_t size() const;
  std::vector<RoundTelemetry> rounds() const;

  /// Interpolated quantile of per-round wall seconds, q in [0,1].
  double round_seconds_quantile(double q) const;

  /// Render the full document:
  /// {"rounds":[...], "histograms":{"round_wall_seconds":{...,"p50":...},
  ///  "client_train_seconds":{...}}, "totals":{...}, "counters":{...}}
  /// `extra_counters` lets the caller merge in ambient counters (e.g.
  /// obs::Registry::counter_values()).
  void write_json(std::ostream& os,
                  const std::map<std::string, double>& extra_counters = {}) const;

  /// write_json to `path`; throws evfl::Error when the file cannot be
  /// opened.
  void write_json_file(const std::string& path,
                       const std::map<std::string, double>& extra_counters =
                           {}) const;

 private:
  mutable std::mutex mutex_;
  std::vector<RoundTelemetry> rounds_;
  Histogram round_wall_seconds_;
  Histogram client_train_seconds_;
};

}  // namespace evfl::obs
