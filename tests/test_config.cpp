#include "core/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"

namespace evfl::core {
namespace {

/// Build an argv and run apply_cli_overrides over it.
void apply(ExperimentConfig& cfg, std::vector<std::string> args) {
  std::vector<char*> argv;
  static char prog[] = "prog";
  argv.push_back(prog);
  for (std::string& a : args) argv.push_back(a.data());
  apply_cli_overrides(cfg, static_cast<int>(argv.size()), argv.data());
}

TEST(CliOverrides, AppliesKnownKeys) {
  ExperimentConfig cfg;
  apply(cfg, {"--rounds", "7", "--epochs", "3", "--threads", "8",
              "--train-fraction", "0.9"});
  EXPECT_EQ(cfg.federated_rounds, 7u);
  EXPECT_EQ(cfg.epochs_per_round, 3u);
  EXPECT_EQ(cfg.threads, 8u);
  EXPECT_DOUBLE_EQ(cfg.train_fraction, 0.9);
}

TEST(CliOverrides, SetsTelemetryPaths) {
  ExperimentConfig cfg;
  apply(cfg, {"--trace-out", "t.jsonl", "--metrics-json", "m.json"});
  EXPECT_EQ(cfg.trace_out, "t.jsonl");
  EXPECT_EQ(cfg.metrics_json, "m.json");
}

TEST(CliOverrides, AppliesCodecKnobs) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.codec.kind, fl::CodecKind::kDense);  // lossless default
  apply(cfg, {"--codec", "topk_q", "--topk-frac", "0.02", "--quant-bits",
              "4"});
  EXPECT_EQ(cfg.codec.kind, fl::CodecKind::kTopKQuant);
  EXPECT_DOUBLE_EQ(cfg.codec.topk_frac, 0.02);
  EXPECT_EQ(cfg.codec.quant_bits, 4);
}

TEST(CliOverrides, RejectsBadCodecKnobs) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--codec", "gzip"}), Error);
  EXPECT_THROW(apply(cfg, {"--topk-frac", "0"}), Error);
  EXPECT_THROW(apply(cfg, {"--topk-frac", "1.5"}), Error);
  EXPECT_THROW(apply(cfg, {"--quant-bits", "16"}), Error);
  EXPECT_THROW(apply(cfg, {"--quant-bits", "0"}), Error);
}

TEST(CliOverrides, AppliesAdversaryKnobs) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.fedavg.rule, fl::AggregationRule::kMean);  // exact default
  EXPECT_EQ(cfg.attack.kind, fl::AttackKind::kNone);
  apply(cfg, {"--agg-rule", "trimmed_mean", "--attack-kind", "alie",
              "--attack-frac", "0.3"});
  EXPECT_EQ(cfg.fedavg.rule, fl::AggregationRule::kTrimmedMean);
  EXPECT_EQ(cfg.attack.kind, fl::AttackKind::kAlie);
  EXPECT_DOUBLE_EQ(cfg.attack.fraction, 0.3);
}

TEST(CliOverrides, RejectsBadAdversaryKnobs) {
  // Validate-then-assign: a rejected value leaves the config untouched.
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--agg-rule", "krum"}), Error);
  EXPECT_THROW(apply(cfg, {"--agg-rule", "MEAN"}), Error);
  EXPECT_THROW(apply(cfg, {"--attack-kind", "alie2"}), Error);
  EXPECT_THROW(apply(cfg, {"--attack-frac", "-0.1"}), Error);
  EXPECT_THROW(apply(cfg, {"--attack-frac", "1.5"}), Error);
  EXPECT_THROW(apply(cfg, {"--attack-frac", "0.3x"}), Error);
  EXPECT_EQ(cfg.fedavg.rule, fl::AggregationRule::kMean);
  EXPECT_EQ(cfg.attack.kind, fl::AttackKind::kNone);
  EXPECT_DOUBLE_EQ(cfg.attack.fraction, 0.0);
}

TEST(CliOverrides, AppliesFleetKnobs) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.fleet_clients, 0u);  // flat 3-zone federation by default
  apply(cfg, {"--clients", "2048", "--edges", "16", "--sample-frac", "0.25"});
  EXPECT_EQ(cfg.fleet_clients, 2048u);
  EXPECT_EQ(cfg.fleet_edges, 16u);
  EXPECT_DOUBLE_EQ(cfg.sample_frac, 0.25);
  // describe() surfaces the fleet only when one is configured.
  EXPECT_NE(describe(cfg).find("clients=2048"), std::string::npos);
  EXPECT_NE(describe(cfg).find("edges=16"), std::string::npos);
}

TEST(CliOverrides, RejectsBadFleetKnobs) {
  ExperimentConfig cfg;
  // Same strict full-token numeric parsing as every other knob: trailing
  // garbage, negatives, and out-of-range values all throw.
  EXPECT_THROW(apply(cfg, {"--clients", "10x"}), Error);
  EXPECT_THROW(apply(cfg, {"--clients", "-5"}), Error);
  EXPECT_THROW(apply(cfg, {"--clients", "2000000"}), Error);
  EXPECT_THROW(apply(cfg, {"--edges", "0"}), Error);
  EXPECT_THROW(apply(cfg, {"--edges", "8192"}), Error);
  EXPECT_THROW(apply(cfg, {"--edges", "4.5"}), Error);
  EXPECT_THROW(apply(cfg, {"--sample-frac", "0"}), Error);
  EXPECT_THROW(apply(cfg, {"--sample-frac", "1.5"}), Error);
  EXPECT_THROW(apply(cfg, {"--sample-frac", "0.5.1"}), Error);
  EXPECT_THROW(apply(cfg, {"--sample-frac", "25%"}), Error);
  // Nothing was half-applied.
  EXPECT_EQ(cfg.fleet_clients, 0u);
  EXPECT_EQ(cfg.fleet_edges, 8u);
  EXPECT_DOUBLE_EQ(cfg.sample_frac, 1.0);
}

TEST(CliOverrides, AppliesStreamKnobs) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.stream_shards, 1u);        // sharding off by default
  EXPECT_DOUBLE_EQ(cfg.stream_drift_z, 0.0);  // drift probe off by default
  apply(cfg, {"--stream-queue-max", "512", "--stream-flush", "64",
              "--stream-shards", "8", "--stream-drift-z", "4.5"});
  EXPECT_EQ(cfg.stream_queue_max, 512u);
  EXPECT_EQ(cfg.stream_flush, 64u);
  EXPECT_EQ(cfg.stream_shards, 8u);
  EXPECT_DOUBLE_EQ(cfg.stream_drift_z, 4.5);
}

TEST(CliOverrides, RejectsBadStreamKnobs) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--stream-shards", "0"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-shards", "257"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-shards", "4x"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-shards", "-2"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-shards", "2.5"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-drift-z", "-1"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-drift-z", "nanx"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-drift-z", "3.0z"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-queue-max", "0"}), Error);
  EXPECT_THROW(apply(cfg, {"--stream-flush", "0"}), Error);
  // Validate-then-assign: a rejected value leaves the config untouched.
  EXPECT_EQ(cfg.stream_shards, 1u);
  EXPECT_DOUBLE_EQ(cfg.stream_drift_z, 0.0);
}

TEST(CliOverrides, RejectsTrailingGarbageOnIntegers) {
  // Regression: std::stoul accepted "8x" as 8 — a typo'd unit suffix ran
  // the experiment with a silently different configuration.
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--threads", "8x"}), Error);
  EXPECT_THROW(apply(cfg, {"--rounds", "5rounds"}), Error);
  EXPECT_THROW(apply(cfg, {"--seed", "42 "}), Error);
  // The failed parse must not have half-applied anything.
  EXPECT_EQ(cfg.threads, ExperimentConfig{}.threads);
}

TEST(CliOverrides, RejectsTrailingGarbageOnDoubles) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--train-fraction", "0.9.1"}), Error);
  EXPECT_THROW(apply(cfg, {"--threshold-pct", "98%"}), Error);
  EXPECT_THROW(apply(cfg, {"--damping", "1.5abc"}), Error);
}

TEST(CliOverrides, RejectsNonNumericAndNegative) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--rounds", "abc"}), Error);
  EXPECT_THROW(apply(cfg, {"--rounds", ""}), Error);
  // stoull wraps negatives into huge values instead of failing; the parser
  // must reject them outright.
  EXPECT_THROW(apply(cfg, {"--rounds", "-3"}), Error);
}

TEST(CliOverrides, ThreadsCapEnforced) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--threads", "2000"}), Error);
  apply(cfg, {"--threads", "1024"});
  EXPECT_EQ(cfg.threads, 1024u);
}

TEST(CliOverrides, AppliesServingKnobs) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.serve_batch, 32u);  // paper batch size
  apply(cfg, {"--serve-batch", "128"});
  EXPECT_EQ(cfg.serve_batch, 128u);
}

TEST(CliOverrides, RejectsBadServingKnobs) {
  ExperimentConfig cfg;
  // Range violations.
  EXPECT_THROW(apply(cfg, {"--serve-batch", "0"}), Error);
  EXPECT_THROW(apply(cfg, {"--serve-batch", "4097"}), Error);
  // Malformed tokens: prefix parses and negatives must throw, not truncate.
  EXPECT_THROW(apply(cfg, {"--serve-batch", "32x"}), Error);
  EXPECT_THROW(apply(cfg, {"--serve-batch", "-1"}), Error);
  EXPECT_THROW(apply(cfg, {"--serve-batch", "1.5"}), Error);
  // validate-then-assign: a rejected value leaves the config untouched.
  EXPECT_EQ(cfg.serve_batch, 32u);
}

TEST(CliOverrides, UnknownKeyThrows) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--no-such-flag", "1"}), Error);
}

TEST(CliOverrides, DanglingKeyThrows) {
  ExperimentConfig cfg;
  EXPECT_THROW(apply(cfg, {"--rounds"}), Error);
}

TEST(CliOverrides, SeedAlsoReseedsGenerator) {
  ExperimentConfig cfg;
  apply(cfg, {"--seed", "100"});
  EXPECT_EQ(cfg.seed, 100u);
  EXPECT_EQ(cfg.generator.seed, 101u);
}

}  // namespace
}  // namespace evfl::core
