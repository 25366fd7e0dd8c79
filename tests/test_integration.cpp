// End-to-end integration tests: the full paper pipeline at toy scale.
// These exercise generation -> attack -> detection -> mitigation ->
// federated + centralized training -> evaluation through the public API
// exactly as the bench binaries do, just with shrunken parameters.
#include <gtest/gtest.h>

#include "core/report.hpp"
#include "core/scenario_runner.hpp"

namespace evfl::core {
namespace {

ExperimentConfig tiny_config(std::uint64_t seed = 11) {
  ExperimentConfig cfg;
  cfg.generator.hours = 700;
  cfg.ddos.bursts = 10;
  cfg.filter.autoencoder.window = 12;
  cfg.filter.autoencoder.encoder_units = 12;
  cfg.filter.autoencoder.latent_units = 6;
  cfg.filter.autoencoder.max_epochs = 12;
  cfg.forecaster.sequence_length = 12;
  cfg.forecaster.lstm_units = 10;
  cfg.forecaster.dense_units = 5;
  cfg.federated_rounds = 3;
  cfg.epochs_per_round = 10;
  cfg.seed = seed;
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new ScenarioRunner(tiny_config());
    fed_clean_ = new ScenarioResult(runner_->run_federated(DataScenario::kClean));
    fed_filtered_ =
        new ScenarioResult(runner_->run_federated(DataScenario::kFiltered));
    central_filtered_ = new ScenarioResult(
        runner_->run_centralized(DataScenario::kFiltered));
  }
  static void TearDownTestSuite() {
    delete central_filtered_;
    delete fed_filtered_;
    delete fed_clean_;
    delete runner_;
    runner_ = nullptr;
  }

  static ScenarioRunner* runner_;
  static ScenarioResult* fed_clean_;
  static ScenarioResult* fed_filtered_;
  static ScenarioResult* central_filtered_;
};

ScenarioRunner* IntegrationTest::runner_ = nullptr;
ScenarioResult* IntegrationTest::fed_clean_ = nullptr;
ScenarioResult* IntegrationTest::fed_filtered_ = nullptr;
ScenarioResult* IntegrationTest::central_filtered_ = nullptr;

TEST_F(IntegrationTest, FederatedCleanLearnsTheSignal) {
  ASSERT_EQ(fed_clean_->per_client.size(), 3u);
  for (const ClientEvaluation& ev : fed_clean_->per_client) {
    // Even the toy model must explain substantial variance on clean data
    // with this strongly daily-seasonal generator.  Zone 108 is the
    // deliberately noisy/spiky zone, so the bar is modest at toy scale.
    EXPECT_GT(ev.regression.r2, 0.35) << "zone " << ev.zone;
    EXPECT_GT(ev.regression.mae, 0.0);
    EXPECT_GE(ev.regression.rmse, ev.regression.mae);
    EXPECT_EQ(ev.actual.size(), ev.predicted.size());
  }
  EXPECT_EQ(fed_clean_->architecture, "Federated");
  EXPECT_EQ(fed_clean_->rounds.size(), 3u);
  EXPECT_GT(fed_clean_->train_seconds, 0.0);
}

TEST_F(IntegrationTest, FederatedRunsExchangeOnlyWeights) {
  // 3 rounds x 3 clients x 2 legs = 18 messages; each payload is the model
  // weight vector + 40-byte header.  No raw data crosses the network.
  const fl::NetworkStats st = fed_clean_->network;
  EXPECT_EQ(st.messages_sent, 18u);
  const std::size_t weight_count = fed_clean_->global_weights.size();
  EXPECT_EQ(st.bytes_sent, 18u * (40u + weight_count * sizeof(float)));
}

TEST_F(IntegrationTest, FederatedCompetitiveWithCentralizedOnFilteredData) {
  // The paper's headline architectural claim (Table III) — federated beats
  // centralized per client — reproduces at full scale (see
  // bench_table3_fed_vs_central; EXPERIMENTS.md records 3/3 wins).  At this
  // toy scale the federated clients are deliberately under-trained, so the
  // test asserts the weaker property that federated local models stay
  // competitive with a centralized model that sees 3x the data and takes
  // 3x the gradient steps.
  double fed_mean = 0.0, central_mean = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    fed_mean += fed_filtered_->per_client[c].regression.r2;
    central_mean += central_filtered_->per_client[c].regression.r2;
  }
  EXPECT_GT(fed_mean / 3.0, central_mean / 3.0 - 0.15);
  EXPECT_GT(fed_mean / 3.0, 0.5);
}

TEST_F(IntegrationTest, DetectionReportHasPaperShape) {
  const DetectionReport report = runner_->detection_report();
  ASSERT_EQ(report.per_client.size(), 3u);
  EXPECT_EQ(report.per_client[0].first, "102");
  EXPECT_EQ(report.per_client[2].first, "108");
  // Precision-focused detector: precision clearly above FPR-driven chance.
  EXPECT_GT(report.aggregate.precision, 0.5);
  EXPECT_LT(report.aggregate.false_positive_rate, 0.10);
  EXPECT_GT(report.aggregate.recall, 0.1);
}

TEST_F(IntegrationTest, GlobalWeightsEvaluable) {
  const ClientEvaluation ev = runner_->evaluate_weights(
      fed_filtered_->global_weights, 0, DataScenario::kFiltered);
  EXPECT_EQ(ev.zone, "102");
  EXPECT_GT(ev.regression.r2, -1.0);
  EXPECT_THROW(
      runner_->evaluate_weights(fed_filtered_->global_weights, 99,
                                DataScenario::kFiltered),
      Error);
}

TEST_F(IntegrationTest, CentralizedTimeAndShape) {
  EXPECT_EQ(central_filtered_->architecture, "Centralized");
  EXPECT_EQ(central_filtered_->per_client.size(), 3u);
  EXPECT_GT(central_filtered_->train_seconds, 0.0);
  EXPECT_TRUE(central_filtered_->rounds.empty());
}

TEST(IntegrationDeterminism, SameSeedSameResults) {
  ScenarioRunner a(tiny_config(21));
  ScenarioRunner b(tiny_config(21));
  const ScenarioResult ra = a.run_federated(DataScenario::kAttacked);
  const ScenarioResult rb = b.run_federated(DataScenario::kAttacked);
  ASSERT_EQ(ra.per_client.size(), rb.per_client.size());
  for (std::size_t c = 0; c < ra.per_client.size(); ++c) {
    EXPECT_DOUBLE_EQ(ra.per_client[c].regression.r2,
                     rb.per_client[c].regression.r2);
  }
  EXPECT_EQ(ra.global_weights, rb.global_weights);
}

}  // namespace
}  // namespace evfl::core
