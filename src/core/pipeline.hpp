// The end-to-end data pipeline of Fig. 1(b): generate -> inject attacks ->
// detect & mitigate -> scale -> window.  Produces, per client, the three
// data scenarios of §II-B (Clean / Attacked / Filtered) and the supervised
// datasets the forecasting architectures train on.
#pragma once

#include <string>
#include <vector>

#include "anomaly/filter.hpp"
#include "core/config.hpp"
#include "data/scaler.hpp"
#include "data/window.hpp"
#include "metrics/classification.hpp"
#include "runtime/run_context.hpp"
#include "stream/sharded.hpp"

namespace evfl::core {

enum class DataScenario { kClean, kAttacked, kFiltered };

std::string to_string(DataScenario s);

/// Everything the pipeline derives for one client (traffic zone).
struct ClientData {
  std::string zone;                       // "102" / "105" / "108"
  data::TimeSeries clean;                 // generated ground truth
  data::TimeSeries attacked;              // DDoS-injected, labelled
  data::TimeSeries filtered;              // detected + interpolated
  anomaly::FilterResult filter_result;    // detection artefacts
  double filter_fit_seconds = 0.0;        // AE training time
  attack::InjectionSummary injection;
};

/// A scenario's supervised view of one client: scaler fitted on the train
/// region only (leak-free), windows over the full scaled series, split by
/// target index at the 80% boundary.
struct PreparedClient {
  std::string zone;
  data::MinMaxScaler scaler;
  data::SequenceDataset train;
  data::SequenceDataset test;
  std::vector<float> test_actual;         // test targets in original units
};

/// Run generation, attack injection and anomaly filtering for all clients.
/// The anomaly filter is fitted per client on its clean training region
/// (the paper trains the autoencoder "exclusively on normal data segments").
/// With a RunContext, clients are fitted concurrently; per-client RNGs are
/// pre-split in serial order so the output is bit-identical to the serial
/// path.
std::vector<ClientData> prepare_clients(const ExperimentConfig& cfg,
                                        const runtime::RunContext* ctx = nullptr);

/// Select a scenario's series for a client.
const data::TimeSeries& scenario_series(const ClientData& client,
                                        DataScenario scenario);

/// Scale + window one client for one scenario.  When `shared_scaler` is
/// given it is used instead of a per-client fit — this reproduces the
/// paper's centralized baseline, which pools "combined sequences from all
/// clients ... without [per-client] preprocessing" (§II-C-1): one global
/// scaling for the pooled model versus locality-aware scaling for the
/// federated clients.
PreparedClient window_scenario(const ClientData& client, DataScenario scenario,
                               const ExperimentConfig& cfg,
                               const data::MinMaxScaler* shared_scaler = nullptr);

/// Fit one scaler over the concatenated training regions of all clients for
/// a scenario (the centralized baseline's global scaling).
data::MinMaxScaler fit_shared_scaler(const std::vector<ClientData>& clients,
                                     DataScenario scenario,
                                     const ExperimentConfig& cfg);

/// Detection quality of the fitted filter on the attacked series.
metrics::DetectionMetrics detection_metrics(const ClientData& client);

/// Map the experiment's --stream-* knobs onto the streaming runtime for
/// `zones` ingestion zones: shard count from --stream-shards, the
/// detection threshold rule shared with the batch filter, the event-queue
/// bound from --stream-queue-max (shrink watermark at a quarter of it), the
/// per-zone queue reserve from --stream-flush, the drift bound from
/// --stream-drift-z, and a per-shard ingest-ring bound mirroring
/// --stream-queue-max (floor 8, watermark at a quarter).  Used by
/// bench_stream.
stream::ShardedConfig make_sharded_config(const ExperimentConfig& cfg,
                                          std::size_t zones);

}  // namespace evfl::core
