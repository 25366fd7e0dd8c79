// Adversarial grid: attack kind x aggregation rule x attacker fraction over
// a federated run, reporting per cell the final holdout R², its degradation
// against the same defense's attack-free baseline, the wire-side detector
// recall (what fraction of poisoned updates the validator's norm clip
// caught), and rounds-to-recover once the attack window closes.
//
// The headline the grid must show (PR acceptance): 30% colluding
// within-clip-norm attackers (kAlie) collapse plain FedAvg measurably while
// at least two robust rules hold the fit — per-update validation cannot see
// a colluding attack, only order-statistic aggregation can.
//
// Writes BENCH_adversarial.json.  `--check-allocs` is the CI perf-smoke
// variant: it runs one robust-rule cell and exits 1 when steady-state
// rounds keep growing the heap (the robust buffer must reuse its storage).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "alloc_counter.hpp"
#include "fl/adversary.hpp"
#include "fl/driver.hpp"
#include "metrics/regression.hpp"
#include "nn/dense.hpp"
#include "obs/round_telemetry.hpp"

namespace {

using namespace evfl;

constexpr int kClients = 10;
constexpr std::size_t kAttackRounds = 6;   // attack window [0, 5]
constexpr std::size_t kRecoveryRounds = 4; // attack-free tail
constexpr std::size_t kSamplesPerClient = 96;
constexpr std::uint64_t kDataSeed = 29;
constexpr std::uint64_t kAttackSeed = 1337;
constexpr double kClipNorm = 2.5;   // admits honest movements untouched
constexpr double kAlieBudget = 2.0; // within the clip: passes unclipped

fl::ModelFactory linear_factory() {
  return [](tensor::Rng& rng) {
    nn::Sequential m;
    m.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
    return m;
  };
}

/// Homogeneous fleet fitting y = 2x: every client agrees on the optimum, so
/// any quality loss in the grid is attributable to the attack.  Data-
/// poisoning kinds relabel the training tensors here, before the Client
/// takes ownership — the poisoned update is then produced by the real
/// training path.
std::vector<std::unique_ptr<fl::Client>> make_clients(
    const fl::AdversarySuite* adversary) {
  std::vector<std::unique_ptr<fl::Client>> clients;
  tensor::Rng root(kDataSeed);
  for (int c = 0; c < kClients; ++c) {
    tensor::Tensor3 x(kSamplesPerClient, 1, 1), y(kSamplesPerClient, 1, 1);
    tensor::Rng data_rng = root.split();
    for (std::size_t i = 0; i < kSamplesPerClient; ++i) {
      const float xi = data_rng.uniform(-1.0f, 1.0f);
      x(i, 0, 0) = xi;
      y(i, 0, 0) = 2.0f * xi + data_rng.normal(0.0f, 0.05f);
    }
    if (adversary != nullptr) adversary->poison_labels(c, 0, x, y);
    fl::ClientConfig cfg;
    cfg.epochs_per_round = 10;
    cfg.learning_rate = 0.05f;
    cfg.batch_size = 16;
    clients.push_back(std::make_unique<fl::Client>(
        c, x, y, linear_factory(), cfg, root.split()));
  }
  return clients;
}

double holdout_r2(const std::vector<float>& weights) {
  tensor::Rng rng(733);
  std::vector<float> actual, predicted;
  for (int i = 0; i < 512; ++i) {
    const float x = rng.uniform(-1.0f, 1.0f);
    actual.push_back(2.0f * x);
    predicted.push_back(weights[0] * x + weights[1]);
  }
  return metrics::r2_score(actual, predicted);
}

struct Cell {
  fl::AttackKind attack = fl::AttackKind::kNone;
  fl::AggregationRule rule = fl::AggregationRule::kMean;
  double frac = 0.0;
  std::size_t attackers = 0;
  double r2_final = 0.0;        // after the recovery tail
  double r2_attacked = 0.0;     // at the end of the attack window
  double degradation = 0.0;     // baseline − r2_attacked, floored at 0
  double detector_recall = 0.0; // clipped poisons / shipped poisons
  long rounds_to_recover = -1;  // -1: never within the tail
  std::size_t clipped = 0;
  std::size_t rejected = 0;
};

fl::FedAvgConfig defense_config(fl::AggregationRule rule,
                                std::size_t attackers) {
  fl::FedAvgConfig cfg;
  cfg.rule = rule;
  // Defense tuned to its threat assumption, as a deployment would: trim /
  // Krum parameters sized to the attacker count they are meant to survive.
  cfg.trim_fraction = 0.35;
  cfg.krum_assumed_byzantine = attackers;
  return cfg;
}

Cell run_cell(fl::AttackKind attack, fl::AggregationRule rule, double frac,
              double baseline_r2) {
  std::vector<int> ids;
  for (int c = 0; c < kClients; ++c) ids.push_back(c);

  fl::AdversaryConfig acfg;
  acfg.kind = attack;
  acfg.seed = kAttackSeed;
  acfg.attackers = fl::AdversarySuite::pick_attackers(frac, kAttackSeed, ids);
  acfg.norm_budget = kAlieBudget;
  acfg.sign_scale = 10.0;
  acfg.round_begin = 0;
  acfg.round_end = static_cast<std::uint32_t>(kAttackRounds) - 1;
  // Backdoor trigger: the upper quarter of the input range.
  acfg.trigger_lo = 0.5f;
  acfg.trigger_hi = 2.0f;
  acfg.backdoor_value = 0.0f;
  const fl::AdversarySuite adversary(acfg);

  auto clients = make_clients(&adversary);

  fl::ValidatorConfig vc;
  vc.max_update_norm = kClipNorm;
  fl::Server server({0.0f, 0.0f},
                    defense_config(rule, acfg.attackers.size()), vc);
  fl::InMemoryNetwork net;
  obs::RoundTelemetrySink telemetry;
  fl::SyncDriver driver(server, clients, net, nullptr, nullptr,
                        fl::RoundPolicy{}, &telemetry, &adversary);

  Cell cell;
  cell.attack = attack;
  cell.rule = rule;
  cell.frac = frac;
  cell.attackers = acfg.attackers.size();

  for (std::size_t r = 0; r < kAttackRounds + kRecoveryRounds; ++r) {
    const fl::FederatedRunResult res = driver.run(1);
    cell.rejected += res.total_rejected_updates();
    const double r2 = holdout_r2(res.final_weights);
    if (r + 1 == kAttackRounds) cell.r2_attacked = r2;
    if (r >= kAttackRounds && cell.rounds_to_recover < 0 &&
        r2 >= baseline_r2 - 0.01) {
      cell.rounds_to_recover = static_cast<long>(r - kAttackRounds) + 1;
    }
    if (r + 1 == kAttackRounds + kRecoveryRounds) cell.r2_final = r2;
  }
  for (const obs::RoundTelemetry& rt : telemetry.rounds()) {
    cell.clipped += rt.clipped;
  }
  cell.degradation = baseline_r2 > cell.r2_attacked
                         ? baseline_r2 - cell.r2_attacked
                         : 0.0;
  // Model-poisoning kinds ship one poisoned update per attacker per window
  // round; the clip is the only wire-side detector, so its recall is
  // clips-over-poisons.  Data-poisoning updates come out of honest training
  // and are expected to be invisible here (recall 0): that asymmetry is the
  // point of the grid.
  const std::size_t shipped = cell.attackers * kAttackRounds;
  if (shipped > 0) {
    cell.detector_recall =
        std::min(1.0, static_cast<double>(cell.clipped) /
                          static_cast<double>(shipped));
  }
  return cell;
}

double run_baseline(fl::AggregationRule rule) {
  // Attack-free run under the same defense: what the grid's degradation
  // and recovery thresholds are measured against.
  auto clients = make_clients(nullptr);
  fl::ValidatorConfig vc;
  vc.max_update_norm = kClipNorm;
  fl::Server server({0.0f, 0.0f}, defense_config(rule, 0), vc);
  fl::InMemoryNetwork net;
  fl::SyncDriver driver(server, clients, net);
  const fl::FederatedRunResult res =
      driver.run(kAttackRounds + kRecoveryRounds);
  return holdout_r2(res.final_weights);
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

int run_check_allocs() {
  // Steady-state gate for the robust-aggregation path: the RobustBuffer
  // must reuse its row storage, so two equal-length measurement windows of
  // an attacked robust run must allocate (almost) identically.
  std::printf("=== adversarial bench: --check-allocs ===\n");
  std::vector<int> ids;
  for (int c = 0; c < kClients; ++c) ids.push_back(c);
  fl::AdversaryConfig acfg;
  acfg.kind = fl::AttackKind::kAlie;
  acfg.attackers = fl::AdversarySuite::pick_attackers(0.3, kAttackSeed, ids);
  acfg.norm_budget = kAlieBudget;
  const fl::AdversarySuite adversary(acfg);
  auto clients = make_clients(&adversary);
  fl::ValidatorConfig vc;
  vc.max_update_norm = kClipNorm;
  fl::Server server({0.0f, 0.0f},
                    defense_config(fl::AggregationRule::kTrimmedMean,
                                   acfg.attackers.size()),
                    vc);
  fl::InMemoryNetwork net;
  fl::SyncDriver driver(server, clients, net, nullptr, nullptr,
                        fl::RoundPolicy{}, nullptr, &adversary);

  driver.run(2);  // warmup: buffer growth to steady-state capacity
  const std::uint64_t b0 = bench::alloc_now().bytes;
  driver.run(3);
  const std::uint64_t b1 = bench::alloc_now().bytes;
  driver.run(3);
  const std::uint64_t b2 = bench::alloc_now().bytes;

  const double w1 = static_cast<double>(b1 - b0);
  const double w2 = static_cast<double>(b2 - b1);
  std::printf("window1: %.0f B over 3 rounds, window2: %.0f B\n", w1, w2);
  if (w1 <= 0.0) {
    std::printf("FAIL: allocation counter saw nothing\n");
    return 1;
  }
  const double growth = w2 / w1;
  if (growth > 1.10) {
    std::printf("FAIL: steady-state rounds grew the heap %.2fx "
                "(limit 1.10x) — robust buffering is not reusing storage\n",
                growth);
    return 1;
  }
  std::printf("OK: steady-state alloc ratio %.2fx (limit 1.10x)\n", growth);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << std::unitbuf;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-allocs") == 0) return run_check_allocs();
    std::cerr << "unknown option: " << argv[i]
              << " (expected --check-allocs)\n";
    return 2;
  }

  const std::vector<fl::AttackKind> attacks = {
      fl::AttackKind::kSignFlip, fl::AttackKind::kAlie,
      fl::AttackKind::kLabelFlip, fl::AttackKind::kBackdoor};
  const std::vector<fl::AggregationRule> rules = {
      fl::AggregationRule::kMean, fl::AggregationRule::kTrimmedMean,
      fl::AggregationRule::kCoordinateMedian,
      fl::AggregationRule::kNormBoundedMean, fl::AggregationRule::kMultiKrum};
  const std::vector<double> fracs = {0.1, 0.3};

  std::cout << "=== adversarial grid: attack x defense x attacker fraction ==="
            << "\nclients=" << kClients << " attack rounds=" << kAttackRounds
            << " recovery rounds=" << kRecoveryRounds
            << " clip norm=" << fmt(kClipNorm, 1)
            << " alie budget=" << fmt(kAlieBudget, 1) << "\n\n"
            << std::left << std::setw(12) << "attack" << std::setw(15)
            << "defense" << std::setw(6) << "frac" << std::setw(10)
            << "R2(atk)" << std::setw(10) << "degrade" << std::setw(8)
            << "recall" << std::setw(9) << "recover" << "\n";

  std::vector<double> baselines(rules.size(), 0.0);
  for (std::size_t d = 0; d < rules.size(); ++d) {
    baselines[d] = run_baseline(rules[d]);
  }

  std::vector<Cell> cells;
  for (const fl::AttackKind attack : attacks) {
    for (std::size_t d = 0; d < rules.size(); ++d) {
      for (const double frac : fracs) {
        const Cell cell = run_cell(attack, rules[d], frac, baselines[d]);
        cells.push_back(cell);
        std::cout << std::left << std::setw(12) << fl::to_string(attack)
                  << std::setw(15) << fl::to_string(rules[d]) << std::setw(6)
                  << fmt(frac, 1) << std::setw(10) << fmt(cell.r2_attacked)
                  << std::setw(10) << fmt(cell.degradation) << std::setw(8)
                  << fmt(cell.detector_recall, 2) << std::setw(9)
                  << cell.rounds_to_recover << "\n";
      }
    }
  }

  // --- acceptance: the colluding within-norm attack separates the rules ---
  double mean_degradation = 0.0;
  std::size_t robust_holding = 0;
  for (const Cell& c : cells) {
    if (c.attack != fl::AttackKind::kAlie || c.frac != 0.3) continue;
    if (c.rule == fl::AggregationRule::kMean) {
      mean_degradation = c.degradation;
    } else if (c.degradation <= 0.01) {
      ++robust_holding;
    }
  }
  const bool separated = mean_degradation > 0.05 && robust_holding >= 2;
  std::cout << "\n--- shape checks ---\n"
            << "alie@0.3 vs kMean degradation: " << fmt(mean_degradation)
            << " (must exceed 0.05)\n"
            << "robust rules holding degradation <= 0.01: " << robust_holding
            << " of 4 (need >= 2)\n"
            << "collusion defeats the mean but not robust aggregation: "
            << (separated ? "YES" : "NO") << "\n";

  std::ofstream json("BENCH_adversarial.json");
  json << "{\n  \"clients\": " << kClients
       << ",\n  \"attack_rounds\": " << kAttackRounds
       << ",\n  \"recovery_rounds\": " << kRecoveryRounds
       << ",\n  \"clip_norm\": " << fmt(kClipNorm, 2)
       << ",\n  \"alie_budget\": " << fmt(kAlieBudget, 2)
       << ",\n  \"baselines\": {";
  for (std::size_t d = 0; d < rules.size(); ++d) {
    json << "\"" << fl::to_string(rules[d]) << "\": " << fmt(baselines[d], 6)
         << (d + 1 < rules.size() ? ", " : "");
  }
  json << "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"attack\": \"" << fl::to_string(c.attack)
         << "\", \"rule\": \"" << fl::to_string(c.rule)
         << "\", \"attack_frac\": " << fmt(c.frac, 2)
         << ", \"attackers\": " << c.attackers
         << ", \"r2_attacked\": " << fmt(c.r2_attacked, 6)
         << ", \"r2_final\": " << fmt(c.r2_final, 6)
         << ", \"degradation\": " << fmt(c.degradation, 6)
         << ", \"detector_recall\": " << fmt(c.detector_recall, 4)
         << ", \"rounds_to_recover\": " << c.rounds_to_recover
         << ", \"clipped\": " << c.clipped << ", \"rejected\": " << c.rejected
         << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"summary\": {\"mean_degradation_alie_30\": "
       << fmt(mean_degradation, 6)
       << ", \"robust_rules_holding\": " << robust_holding
       << ", \"separated\": " << (separated ? "true" : "false") << "}\n}\n";
  std::cout << "wrote BENCH_adversarial.json\n";
  return separated ? 0 : 1;
}
