#include "core/scenario_runner.hpp"

#include "forecast/centralized.hpp"
#include "metrics/timer.hpp"
#include "nn/trainer.hpp"

namespace evfl::core {

ScenarioRunner::ScenarioRunner(ExperimentConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.threads != 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(cfg_.threads);
  }
  if (!cfg_.trace_out.empty()) {
    trace_ = std::make_unique<obs::TraceWriter>(cfg_.trace_out);
  }
  ctx_.pool = pool_.get();
  ctx_.registry = &registry_;
  ctx_.trace = trace_.get();
}

ScenarioRunner::~ScenarioRunner() {
  try {
    write_metrics_json();
  } catch (...) {
    // Destructor must not throw; a failed telemetry flush is not worth
    // terminating an otherwise finished run.
  }
}

std::string ScenarioRunner::write_metrics_json() {
  if (cfg_.metrics_json.empty()) return {};
  rounds_.write_json_file(cfg_.metrics_json, registry_.counter_values());
  return cfg_.metrics_json;
}

const std::vector<ClientData>& ScenarioRunner::clients() {
  if (!clients_) {
    obs::TraceSpan span = ctx_.span("pipeline.prepare_clients", "pipeline");
    clients_ = prepare_clients(cfg_, &ctx_);
  }
  return *clients_;
}

std::vector<PreparedClient> ScenarioRunner::window_all(
    DataScenario scenario, const data::MinMaxScaler* shared_scaler) {
  const std::vector<ClientData>& data = clients();
  std::vector<PreparedClient> prepared(data.size());
  // window_scenario is deterministic and RNG-free, so concurrent windowing
  // is trivially bit-identical.
  ctx_.parallel_for(data.size(), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t c = begin; c < end; ++c) {
                        prepared[c] =
                            window_scenario(data[c], scenario, cfg_,
                                            shared_scaler);
                      }
                    });
  return prepared;
}

ClientEvaluation ScenarioRunner::evaluate_model(nn::Sequential& model,
                                                const PreparedClient& prepared) {
  ClientEvaluation ev;
  ev.zone = prepared.zone;
  ev.actual = prepared.test_actual;

  const tensor::Tensor3 pred =
      nn::predict_batched(model, prepared.test.x, 256, &ctx_);
  ev.predicted.reserve(pred.batch());
  for (std::size_t i = 0; i < pred.batch(); ++i) {
    ev.predicted.push_back(prepared.scaler.inverse_one(pred(i, 0, 0)));
  }
  ev.regression = metrics::evaluate_regression(ev.actual, ev.predicted);
  return ev;
}

ScenarioResult ScenarioRunner::run_federated(DataScenario scenario) {
  std::vector<PreparedClient> prepared = window_all(scenario, nullptr);

  tensor::Rng root(cfg_.seed ^ 0xFEDAu);
  const forecast::ForecasterConfig model_cfg = cfg_.forecaster;
  const fl::ModelFactory factory = [&model_cfg](tensor::Rng& r) {
    return forecast::make_forecaster(model_cfg, r);
  };

  fl::ClientConfig client_cfg;
  client_cfg.epochs_per_round = cfg_.epochs_per_round;
  client_cfg.batch_size = cfg_.forecaster.batch_size;
  client_cfg.learning_rate = cfg_.forecaster.learning_rate;
  client_cfg.codec = cfg_.codec;

  // --attack-kind/--attack-frac: hash-seeded attacker membership over the
  // scenario's clients.  Data-poisoning kinds relabel the training tensors
  // here, before the Client takes ownership; model-poisoning kinds hook the
  // drivers below.
  const fl::AdversarySuite adversary(cfg_.attack);
  const fl::AdversarySuite* adv =
      cfg_.attack.kind == fl::AttackKind::kNone ? nullptr : &adversary;

  std::vector<std::unique_ptr<fl::Client>> fl_clients;
  for (std::size_t c = 0; c < prepared.size(); ++c) {
    if (adv != nullptr) {
      adv->poison_labels(static_cast<int>(c), 0, prepared[c].train.x,
                         prepared[c].train.y);
    }
    fl_clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(c), prepared[c].train.x, prepared[c].train.y, factory,
        client_cfg, root.split()));
  }

  // The server seeds the global model with its own initialization.
  tensor::Rng server_rng = root.split();
  nn::Sequential init_model = forecast::make_forecaster(model_cfg, server_rng);
  fl::Server server(init_model.get_weights(), cfg_.fedavg,
                    fl::ValidatorConfig{}, cfg_.codec);
  fl::InMemoryNetwork net;

  const metrics::WallTimer timer;
  obs::TraceSpan scenario_span = ctx_.span("scenario.federated", "scenario");
  scenario_span.annotate("rounds",
                         static_cast<std::uint64_t>(cfg_.federated_rounds));
  scenario_span.annotate("clients",
                         static_cast<std::uint64_t>(fl_clients.size()));
  fl::SyncDriver driver(server, fl_clients, net, &ctx_, nullptr,
                        fl::RoundPolicy{}, &rounds_, adv);
  const fl::FederatedRunResult run = driver.run(cfg_.federated_rounds);
  scenario_span.end();

  ScenarioResult result;
  result.scenario = scenario;
  result.architecture = "Federated";
  result.wall_seconds = timer.seconds();
  result.train_seconds = run.simulated_parallel_seconds;
  result.rounds = run.rounds;
  result.network = run.network;
  result.global_weights = run.final_weights;

  for (std::size_t c = 0; c < prepared.size(); ++c) {
    result.per_client.push_back(
        evaluate_model(fl_clients[c]->model(), prepared[c]));
  }
  return result;
}

ScenarioResult ScenarioRunner::run_centralized(DataScenario scenario) {
  const std::vector<ClientData>& data = clients();

  // The centralized baseline pools all clients jointly with one global
  // scaling (see ExperimentConfig::centralized_shared_scaler).
  data::MinMaxScaler shared;
  const data::MinMaxScaler* shared_ptr = nullptr;
  if (cfg_.centralized_shared_scaler) {
    shared = fit_shared_scaler(data, scenario, cfg_);
    shared_ptr = &shared;
  }

  std::vector<PreparedClient> prepared = window_all(scenario, shared_ptr);
  std::vector<data::SequenceDataset> train_sets;
  train_sets.reserve(prepared.size());
  for (const PreparedClient& pc : prepared) train_sets.push_back(pc.train);

  forecast::CentralizedConfig central_cfg;
  central_cfg.model = cfg_.forecaster;
  central_cfg.epochs = cfg_.federated_rounds * cfg_.epochs_per_round;
  central_cfg.batch_size = cfg_.forecaster.batch_size;

  tensor::Rng rng(cfg_.seed ^ 0xCE17u);
  const metrics::WallTimer timer;
  obs::TraceSpan scenario_span = ctx_.span("scenario.centralized", "scenario");
  scenario_span.annotate("epochs",
                         static_cast<std::uint64_t>(central_cfg.epochs));
  forecast::CentralizedResult central =
      forecast::train_centralized(train_sets, central_cfg, rng);
  scenario_span.end();

  ScenarioResult result;
  result.scenario = scenario;
  result.architecture = "Centralized";
  result.wall_seconds = timer.seconds();
  result.train_seconds = central.train_seconds;

  for (const PreparedClient& pc : prepared) {
    result.per_client.push_back(evaluate_model(central.model, pc));
  }
  return result;
}

DetectionReport ScenarioRunner::detection_report() {
  DetectionReport report;
  metrics::ConfusionMatrix total;
  for (const ClientData& cd : clients()) {
    const metrics::DetectionMetrics m = detection_metrics(cd);
    total += m.cm;
    report.per_client.emplace_back(cd.zone, m);
  }
  report.aggregate = metrics::from_confusion(total);
  return report;
}

ClientEvaluation ScenarioRunner::evaluate_weights(
    const std::vector<float>& weights, std::size_t client_index,
    DataScenario scenario) {
  const std::vector<ClientData>& data = clients();
  EVFL_REQUIRE(client_index < data.size(), "client index out of range");
  const PreparedClient prepared =
      window_scenario(data[client_index], scenario, cfg_);

  tensor::Rng rng(cfg_.seed ^ 0xE7A1u);
  nn::Sequential model = forecast::make_forecaster(cfg_.forecaster, rng);
  model.set_weights(weights);
  return evaluate_model(model, prepared);
}

}  // namespace evfl::core
