// ScenarioRunner — drives the paper's four experimental scenarios (§III-A):
//   1. Federated LSTM on Clean Data
//   2. Federated LSTM on Attacked Data
//   3. Federated LSTM on Filtered Data
//   4. Centralized LSTM on Filtered Data
// over the shared pipeline output, and reports regression metrics per
// client in original units plus detection metrics for Table II.
//
// Federated per-client metrics evaluate each client's local model after its
// final round of local training (the personalized model the paper's "local
// specialization" analysis describes); the aggregated global weights are
// also exposed for the FedAvg ablation.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "core/pipeline.hpp"
#include "fl/driver.hpp"
#include "metrics/regression.hpp"
#include "obs/round_telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"

namespace evfl::core {

struct ClientEvaluation {
  std::string zone;
  metrics::RegressionMetrics regression;
  std::vector<float> actual;     // original units
  std::vector<float> predicted;  // original units
};

struct ScenarioResult {
  DataScenario scenario = DataScenario::kClean;
  std::string architecture;      // "Federated" / "Centralized"
  std::vector<ClientEvaluation> per_client;

  /// Training time in the deployment's natural execution model:
  /// federated = simulated-parallel seconds (slowest client per round),
  /// centralized = single-node wall seconds.
  double train_seconds = 0.0;
  double wall_seconds = 0.0;

  // Federated-only diagnostics (empty/zero for centralized).
  std::vector<fl::RoundMetrics> rounds;
  fl::NetworkStats network;
  std::vector<float> global_weights;
};

struct DetectionReport {
  std::vector<std::pair<std::string, metrics::DetectionMetrics>> per_client;
  metrics::DetectionMetrics aggregate;
};

class ScenarioRunner {
 public:
  /// Builds a thread pool sized from cfg.threads (1 = serial, 0 = hardware
  /// concurrency) that every stage below — pipeline prep, windowing,
  /// evaluation, the federated driver — partitions work onto.  All parallel
  /// paths are bit-identical to serial execution.
  ///
  /// When cfg.trace_out is set, a TraceWriter is opened there and every
  /// stage records spans; when cfg.metrics_json is set, the destructor (or
  /// an explicit write_metrics_json() call) writes the accumulated round
  /// telemetry + runtime counters there.
  explicit ScenarioRunner(ExperimentConfig cfg);
  ~ScenarioRunner();

  const ExperimentConfig& config() const { return cfg_; }

  /// The execution context shared by every stage this runner drives; its
  /// registry holds the counters the runtime-aware stages accumulate.
  const runtime::RunContext& context() const { return ctx_; }

  /// Per-round telemetry accumulated by every federated run this runner
  /// drove (all scenarios append to the same sink).
  const obs::RoundTelemetrySink& round_telemetry() const { return rounds_; }

  /// Write the metrics JSON to cfg.metrics_json now; returns the path, or
  /// an empty string when the knob is unset.  Also called by the
  /// destructor, so benches that exit normally always leave the file.
  std::string write_metrics_json();

  /// Pipeline output (generated lazily, cached — all scenarios share it).
  const std::vector<ClientData>& clients();

  ScenarioResult run_federated(DataScenario scenario);
  ScenarioResult run_centralized(DataScenario scenario);

  /// Table II + the aggregate precision / FPR quoted in §III-C.
  DetectionReport detection_report();

  /// Evaluate an arbitrary model (e.g. the aggregated global weights) on
  /// one client's test set for a scenario.
  ClientEvaluation evaluate_weights(const std::vector<float>& weights,
                                    std::size_t client_index,
                                    DataScenario scenario);

 private:
  ClientEvaluation evaluate_model(nn::Sequential& model,
                                  const PreparedClient& prepared);
  std::vector<PreparedClient> window_all(
      DataScenario scenario, const data::MinMaxScaler* shared_scaler);

  ExperimentConfig cfg_;
  std::unique_ptr<runtime::ThreadPool> pool_;  // null when cfg.threads == 1
  obs::Registry registry_;
  std::unique_ptr<obs::TraceWriter> trace_;    // null when cfg.trace_out empty
  obs::RoundTelemetrySink rounds_;
  runtime::RunContext ctx_;
  std::optional<std::vector<ClientData>> clients_;
};

}  // namespace evfl::core
