// Attack war game: throw every implemented attack vector at a defended
// charging zone and watch the detector + mitigation respond, then run
// federated rounds over a lossy network — the resilience story of §III-G in
// one executable.
//
//   ./attack_war_game
#include <iostream>

#include "anomaly/filter.hpp"
#include "attack/ddos_injector.hpp"
#include "data/window.hpp"
#include "attack/fdi_injector.hpp"
#include "attack/ramp_injector.hpp"
#include "datagen/shenzhen.hpp"
#include "fl/driver.hpp"
#include "forecast/model.hpp"
#include "metrics/classification.hpp"
#include "metrics/regression.hpp"
#include "sim/traffic_model.hpp"

using namespace evfl;

int main() {
  std::cout << "--- phase 0: derive the threat model from network traffic ---\n";
  sim::TrafficModel traffic;
  tensor::Rng rng(23);
  const sim::TrafficTrace trace = traffic.generate_trace(5000, 10, 40, rng);
  const sim::TrafficStats stats = sim::TrafficModel::analyze(trace);
  std::cout << "simulated trace: normal " << stats.mean_normal_pps
            << " p/s, attack " << stats.mean_attack_pps << " p/s -> intensity x"
            << stats.intensity_multiplier << " (paper: 33k vs 350.5k, x10.6)\n\n";

  std::cout << "--- phase 1: train the defence ---\n";
  datagen::GeneratorConfig gen;
  gen.hours = 1500;
  const data::TimeSeries clean =
      datagen::generate_zone(datagen::zone_102(), gen, rng);
  anomaly::FilterConfig filter_cfg;
  filter_cfg.autoencoder.encoder_units = 20;
  filter_cfg.autoencoder.latent_units = 10;
  filter_cfg.autoencoder.max_epochs = 20;
  anomaly::EvChargingAnomalyFilter filter(filter_cfg, rng);
  filter.fit(data::temporal_split(clean, 0.8).train, rng);
  std::cout << "autoencoder defence trained on clean telemetry\n\n";

  std::cout << "--- phase 2: the attacks ---\n";
  const attack::DdosInjector ddos;
  const attack::FalseDataInjector fdi;
  const attack::RampInjector ramp;
  for (const attack::Injector* injector :
       {static_cast<const attack::Injector*>(&ddos),
        static_cast<const attack::Injector*>(&fdi),
        static_cast<const attack::Injector*>(&ramp)}) {
    data::TimeSeries attacked;
    injector->inject(clean, attacked, rng);
    const anomaly::FilterResult result = filter.filter(attacked);
    const metrics::DetectionMetrics dm =
        metrics::evaluate_detection(attacked.labels, result.flags);
    const double dmg =
        metrics::mean_absolute_error(clean.values, attacked.values);
    const double left =
        metrics::mean_absolute_error(clean.values, result.filtered.values);
    std::cout << "  " << attack::to_string(injector->kind())
              << ": recall " << dm.recall << ", precision " << dm.precision
              << ", damage " << dmg << " -> " << left << " after repair\n";
  }
  std::cout << "(subtle FDI evades a spike-trained detector — the paper's "
               "future-work gap, reproduced)\n\n";

  std::cout << "--- phase 3: federated training over a hostile network ---\n";
  forecast::ForecasterConfig model_cfg;
  model_cfg.lstm_units = 12;
  model_cfg.dense_units = 6;
  const fl::ModelFactory factory = [&model_cfg](tensor::Rng& r) {
    return forecast::make_forecaster(model_cfg, r);
  };
  fl::ClientConfig client_cfg;
  client_cfg.epochs_per_round = 3;

  std::vector<std::unique_ptr<fl::Client>> clients;
  tensor::Rng root(29);
  for (int c = 0; c < 3; ++c) {
    data::TimeSeries zone = datagen::generate_zone(
        datagen::zone_by_id(c == 0 ? "102" : c == 1 ? "105" : "108"), gen,
        root);
    data::MinMaxScaler scaler;
    scaler.fit(zone.values);
    const data::SequenceDataset ds = data::make_forecast_sequences(
        scaler.transform(zone.values), model_cfg.sequence_length);
    clients.push_back(std::make_unique<fl::Client>(
        c, ds.x, ds.y, factory, client_cfg, root.split()));
  }

  tensor::Rng server_rng = root.split();
  nn::Sequential seed = forecast::make_forecaster(model_cfg, server_rng);
  fl::Server server(seed.get_weights());

  fl::NetworkConfig hostile;
  hostile.drop_probability = 0.15;  // the DDoS is hammering the links too
  fl::InMemoryNetwork net(hostile);

  fl::RoundPolicy policy;
  policy.round_deadline_ms = 60'000.0;
  fl::SyncDriver driver(server, clients, net, nullptr, nullptr, policy);
  const fl::FederatedRunResult run = driver.run(4);
  for (const fl::RoundMetrics& r : run.rounds) {
    std::cout << "  round " << r.round << ": " << r.updates_received
              << "/3 updates survived the network, loss "
              << r.mean_train_loss << "\n";
  }
  const fl::NetworkStats ns = run.network;
  std::cout << "network: " << ns.messages_sent << " sent, "
            << ns.messages_dropped << " dropped, " << ns.bytes_sent
            << " bytes\n";
  std::cout << "\ntraining completed despite message loss: FedAvg simply "
               "aggregates whichever updates arrive.\n";
  return 0;
}
