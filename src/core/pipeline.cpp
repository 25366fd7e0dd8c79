#include "core/pipeline.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "attack/ddos_injector.hpp"
#include "data/csv.hpp"
#include "datagen/shenzhen.hpp"
#include "fl/serialize.hpp"
#include "metrics/timer.hpp"

namespace evfl::core {

namespace {

/// Everything that influences prepare_clients' output, rendered to a string
/// whose CRC keys the on-disk cache.
std::string pipeline_fingerprint(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << "v2|agg:" << data::to_string(cfg.filter.autoencoder.score_aggregation)
     << "|gen:" << cfg.generator.hours << "," << cfg.generator.start_weekday
     << "," << cfg.generator.seed << "|ddos:" << cfg.ddos.bursts << ","
     << cfg.ddos.min_burst_hours << "," << cfg.ddos.max_burst_hours << ","
     << cfg.ddos.min_multiplier << "," << cfg.ddos.damping << ","
     << cfg.ddos.within_burst_jitter << "," << cfg.ddos.traffic.normal_pps
     << "," << cfg.ddos.traffic.attack_pps
     << "|ae:" << cfg.filter.autoencoder.window << ","
     << cfg.filter.autoencoder.encoder_units << ","
     << cfg.filter.autoencoder.latent_units << ","
     << cfg.filter.autoencoder.dropout << ","
     << cfg.filter.autoencoder.learning_rate << ","
     << cfg.filter.autoencoder.max_epochs << ","
     << cfg.filter.autoencoder.batch_size << ","
     << cfg.filter.autoencoder.patience << ","
     << cfg.filter.autoencoder.val_fraction
     << "|thr:" << anomaly::to_string(cfg.filter.threshold.kind) << ","
     << cfg.filter.threshold.param << "|gap:" << cfg.filter.gap_tolerance
     << "|split:" << cfg.train_fraction << "|seed:" << cfg.seed;
  return os.str();
}

std::filesystem::path cache_path(const ExperimentConfig& cfg,
                                 const std::string& fingerprint) {
  const std::uint32_t crc = fl::crc32(
      reinterpret_cast<const std::uint8_t*>(fingerprint.data()),
      fingerprint.size());
  std::ostringstream name;
  name << "evfl_pipeline_" << std::hex << crc;
  return std::filesystem::path(cfg.cache_dir) / name.str();
}

bool load_cached_clients(const ExperimentConfig& cfg,
                         const std::string& fingerprint,
                         std::vector<ClientData>& out) {
  const std::filesystem::path dir = cache_path(cfg, fingerprint);
  std::ifstream meta(dir / "meta.txt");
  if (!meta) return false;
  std::string stored;
  if (!std::getline(meta, stored) || stored != fingerprint) return false;

  std::vector<ClientData> clients;
  std::string line;
  try {
    while (std::getline(meta, line)) {
      if (line.empty()) continue;
      std::istringstream is(line);
      ClientData cd;
      std::size_t points = 0, bursts = 0;
      double mean_mult = 0.0;
      float threshold = 0.0f;
      if (!(is >> cd.zone >> cd.filter_fit_seconds >> threshold >> points >>
            bursts >> mean_mult)) {
        return false;
      }
      cd.injection.kind = attack::AttackKind::kDdos;
      cd.injection.points_attacked = points;
      cd.injection.bursts = bursts;
      cd.injection.mean_multiplier = mean_mult;

      const std::string base = (dir / ("zone_" + cd.zone)).string();
      cd.clean = data::read_series_csv(base + "_clean.csv");
      cd.clean.name = "zone-" + cd.zone;
      cd.attacked = data::read_series_csv(base + "_attacked.csv");
      cd.attacked.name = cd.clean.name + "+ddos";
      cd.filtered = data::read_series_csv(base + "_filtered.csv");
      cd.filtered.name = cd.attacked.name + "+filtered";
      // scores/flags were stored as a labelled series: values = scores,
      // labels = detection flags.
      const data::TimeSeries sf = data::read_series_csv(base + "_scores.csv");
      cd.filter_result.scores = sf.values;
      cd.filter_result.flags = sf.labels;
      cd.filter_result.threshold = threshold;
      cd.filter_result.segments =
          anomaly::merge_segments(sf.labels, cfg.filter.gap_tolerance);
      cd.filter_result.filtered = cd.filtered;
      clients.push_back(std::move(cd));
    }
  } catch (const Error&) {
    return false;  // stale / corrupt cache: fall through to regeneration
  }
  if (clients.size() != 3) return false;
  out = std::move(clients);
  return true;
}

void store_cached_clients(const ExperimentConfig& cfg,
                          const std::string& fingerprint,
                          const std::vector<ClientData>& clients) {
  const std::filesystem::path dir = cache_path(cfg, fingerprint);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;  // cache is best-effort

  std::ofstream meta(dir / "meta.txt");
  if (!meta) return;
  meta << fingerprint << "\n";
  for (const ClientData& cd : clients) {
    meta << cd.zone << " " << cd.filter_fit_seconds << " "
         << cd.filter_result.threshold << " " << cd.injection.points_attacked
         << " " << cd.injection.bursts << " " << cd.injection.mean_multiplier
         << "\n";
    const std::string base = (dir / ("zone_" + cd.zone)).string();
    data::write_series_csv(cd.clean, base + "_clean.csv");
    data::write_series_csv(cd.attacked, base + "_attacked.csv");
    data::write_series_csv(cd.filtered, base + "_filtered.csv");
    data::TimeSeries sf;
    sf.values = cd.filter_result.scores;
    sf.labels = cd.filter_result.flags;
    data::write_series_csv(sf, base + "_scores.csv");
  }
}

}  // namespace

std::string to_string(DataScenario s) {
  switch (s) {
    case DataScenario::kClean: return "Clean Data";
    case DataScenario::kAttacked: return "Attacked Data";
    case DataScenario::kFiltered: return "Filtered Data";
  }
  return "?";
}

std::vector<ClientData> prepare_clients(const ExperimentConfig& cfg,
                                        const runtime::RunContext* ctx) {
  const std::string fingerprint = pipeline_fingerprint(cfg);
  if (!cfg.cache_dir.empty()) {
    std::vector<ClientData> cached;
    if (load_cached_clients(cfg, fingerprint, cached)) return cached;
  }

  const metrics::WallTimer prep_timer;
  tensor::Rng root(cfg.seed);
  const std::vector<data::TimeSeries> clean_series =
      datagen::generate_clients(cfg.generator);
  const attack::DdosInjector injector(cfg.ddos);

  const std::size_t n = clean_series.size();
  const std::vector<std::string> zones = {"102", "105", "108"};

  // Pre-split per-client RNGs in the exact order the serial loop consumed
  // the root stream (attack split then filter split, per client), so the
  // concurrent path replays identical randomness regardless of schedule.
  std::vector<tensor::Rng> attack_rngs, filter_rngs;
  attack_rngs.reserve(n);
  filter_rngs.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    attack_rngs.push_back(root.split());
    filter_rngs.push_back(root.split());
  }

  std::vector<ClientData> clients(n);
  auto build_client = [&](std::size_t c) {
    ClientData cd;
    cd.zone = c < zones.size() ? zones[c] : std::to_string(c);
    cd.clean = clean_series[c];

    // Inject DDoS anomalies over the whole study window.
    cd.injection = injector.inject(cd.clean, cd.attacked, attack_rngs[c]);

    // Fit the anomaly filter on the clean training region only — the paper
    // trains the autoencoder exclusively on normal data segments.
    const data::TrainTestSplit clean_split =
        data::temporal_split(cd.clean, cfg.train_fraction);
    anomaly::EvChargingAnomalyFilter filter(cfg.filter, filter_rngs[c]);
    const metrics::WallTimer timer;
    filter.fit(clean_split.train, filter_rngs[c]);
    cd.filter_fit_seconds = timer.seconds();

    // Detect + mitigate across the full attacked series.
    cd.filter_result = filter.filter(cd.attacked);
    cd.filtered = cd.filter_result.filtered;

    clients[c] = std::move(cd);
  };

  const runtime::RunContext serial;
  const runtime::RunContext& run = ctx != nullptr ? *ctx : serial;
  if (run.parallel() && n > 1) run.count("pipeline.parallel_client_preps");
  run.parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) build_client(c);
  });

  if (!cfg.cache_dir.empty()) {
    store_cached_clients(cfg, fingerprint, clients);
  }
  run.count("pipeline.prepare_clients_seconds", prep_timer.seconds());
  return clients;
}

const data::TimeSeries& scenario_series(const ClientData& client,
                                        DataScenario scenario) {
  switch (scenario) {
    case DataScenario::kClean: return client.clean;
    case DataScenario::kAttacked: return client.attacked;
    case DataScenario::kFiltered: return client.filtered;
  }
  EVFL_ASSERT(false, "unknown scenario");
  return client.clean;
}

data::MinMaxScaler fit_shared_scaler(const std::vector<ClientData>& clients,
                                     DataScenario scenario,
                                     const ExperimentConfig& cfg) {
  std::vector<float> pooled;
  for (const ClientData& cd : clients) {
    const data::TimeSeries& series = scenario_series(cd, scenario);
    const std::size_t split_index = static_cast<std::size_t>(
        static_cast<double>(series.size()) * cfg.train_fraction);
    pooled.insert(pooled.end(), series.values.begin(),
                  series.values.begin() + split_index);
  }
  data::MinMaxScaler scaler;
  scaler.fit(pooled);
  return scaler;
}

PreparedClient window_scenario(const ClientData& client, DataScenario scenario,
                               const ExperimentConfig& cfg,
                               const data::MinMaxScaler* shared_scaler) {
  const data::TimeSeries& series = scenario_series(client, scenario);
  const std::size_t lookback = cfg.forecaster.sequence_length;
  EVFL_REQUIRE(series.size() > lookback + 2, "series too short to window");

  PreparedClient pc;
  pc.zone = client.zone;

  const std::size_t split_index = static_cast<std::size_t>(
      static_cast<double>(series.size()) * cfg.train_fraction);

  if (shared_scaler != nullptr) {
    pc.scaler = *shared_scaler;
  } else {
    // Leak-free per-client scaling: fit on the training region only.
    const std::vector<float> train_values(series.values.begin(),
                                          series.values.begin() + split_index);
    pc.scaler.fit(train_values);
  }
  const std::vector<float> scaled = pc.scaler.transform(series.values);

  // Window the full scaled series, then split samples by target position:
  // a sample belongs to the test set iff its prediction target falls in the
  // final 20% — test windows may look back across the boundary, exactly as
  // a deployed forecaster would.
  const data::SequenceDataset all = data::make_forecast_sequences(scaled, lookback);
  const std::size_t n = all.x.batch();
  std::size_t n_train = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (all.target_offset(i) < split_index) ++n_train;
  }
  EVFL_REQUIRE(n_train > 0 && n_train < n,
               "degenerate train/test split for zone " + client.zone);

  pc.train.lookback = lookback;
  pc.test.lookback = lookback;
  pc.train.x = all.x.batch_slice(0, n_train);
  pc.train.y = all.y.batch_slice(0, n_train);
  pc.test.x = all.x.batch_slice(n_train, n);
  pc.test.y = all.y.batch_slice(n_train, n);

  pc.test_actual.reserve(n - n_train);
  for (std::size_t i = n_train; i < n; ++i) {
    pc.test_actual.push_back(pc.scaler.inverse_one(all.y(i, 0, 0)));
  }
  return pc;
}

metrics::DetectionMetrics detection_metrics(const ClientData& client) {
  return metrics::evaluate_detection(client.attacked.labels,
                                     client.filter_result.flags);
}

stream::ShardedConfig make_sharded_config(const ExperimentConfig& cfg,
                                          std::size_t zones) {
  EVFL_REQUIRE(zones >= 1, "make_sharded_config needs at least one zone");
  stream::ShardedConfig sc;
  sc.shards = cfg.stream_shards;
  sc.stream.max_zones = zones;
  sc.stream.threshold = cfg.filter.threshold;
  sc.stream.queue_max = cfg.stream_queue_max;
  // Shrink watermark at a quarter of the bound (>= 1): bursts borrow up to
  // the max, steady state keeps a small resident ring.
  sc.stream.queue_shrink = std::max<std::size_t>(1, cfg.stream_queue_max / 4);
  sc.stream.flush_batch = cfg.stream_flush;
  sc.stream.drift_z = cfg.stream_drift_z;
  // Each shard's ingest ring is sized like the event queue: both are "how
  // much burst the runtime absorbs before counted drops".
  sc.ring_max = sc.stream.queue_max;
  sc.ring_shrink = sc.stream.queue_shrink;
  return sc;
}

}  // namespace evfl::core
