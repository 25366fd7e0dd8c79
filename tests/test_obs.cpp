#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "datagen/fleet.hpp"
#include "fl/driver.hpp"
#include "fl/fleet.hpp"
#include "forecast/model.hpp"
#include "nn/dense.hpp"
#include "obs/round_telemetry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"
#include "tensor/rng.hpp"

namespace evfl::obs {
namespace {

// ---- Counter / Gauge --------------------------------------------------------

TEST(Counter, AccumulatesAcrossThreads) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  std::thread a([&] { for (int i = 0; i < 1000; ++i) c.add(); });
  std::thread b([&] { for (int i = 0; i < 1000; ++i) c.add(2.0); });
  a.join();
  b.join();
  EXPECT_DOUBLE_EQ(c.value(), 3000.0);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

// ---- Histogram --------------------------------------------------------------

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleSampleReportsItselfAtEveryQuantile) {
  Histogram h;
  h.record(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.125);
}

TEST(Histogram, AllEqualSamplesCollapseQuantiles) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 2.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, QuantilesOrderAndBracketTheData) {
  Histogram h;
  // 1 ms .. 1 s span, uniformly log-spaced-ish samples.
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  // Log-spaced buckets give ~7% resolution; allow 10%.
  EXPECT_NEAR(p50, 0.5, 0.05);
  EXPECT_NEAR(p95, 0.95, 0.10);
}

TEST(Histogram, P50P99CorrectOnKnownUniformDistribution) {
  // 10,000 evenly spaced samples over (0, 1]: the true q-quantile is q
  // itself, so p50/p90/p99 are known in closed form.  Log-spaced buckets
  // have ~7% resolution; assert 10% relative error.
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record(i * 1e-4);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.quantile(0.50), 0.50, 0.05);
  EXPECT_NEAR(h.quantile(0.90), 0.90, 0.09);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.099);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);  // exact: clamped to observed max
  // q=0 interpolates inside the lowest occupied bucket; it must stay
  // within bucket resolution of the true minimum.
  EXPECT_GE(h.quantile(0.0), 1e-4);
  EXPECT_NEAR(h.quantile(0.0), 1e-4, 1e-5);
}

TEST(Histogram, P99SeparatesTailFromBody) {
  // A latency-shaped bimodal distribution: 98% fast (1 ms), 2% slow (1 s).
  // p50 must sit on the body and p99 on the tail — three decades apart, so
  // bucket resolution is not a factor in telling them apart.
  Histogram h;
  for (int i = 0; i < 980; ++i) h.record(1e-3);
  for (int i = 0; i < 20; ++i) h.record(1.0);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  EXPECT_NEAR(p50, 1e-3, 1e-4);
  EXPECT_NEAR(p99, 1.0, 0.1);
  EXPECT_GT(p99 / p50, 100.0);
}

TEST(Histogram, OutOfDomainValuesKeepExactMinMax) {
  Histogram h(1e-3, 1.0, 16);
  h.record(1e-9);   // below the lowest bucket
  h.record(100.0);  // above the highest
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), h.max());
}

TEST(Histogram, WriteJsonHasSummaryFields) {
  Histogram h;
  h.record(0.1);
  h.record(0.2);
  std::ostringstream os;
  h.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

// ---- Registry ---------------------------------------------------------------

TEST(Registry, ReturnsStableInstruments) {
  Registry reg;
  Counter& c = reg.counter("requests");
  c.add(3.0);
  EXPECT_DOUBLE_EQ(reg.counter("requests").value(), 3.0);
  EXPECT_EQ(&reg.counter("requests"), &c);

  reg.gauge("load").set(0.7);
  reg.histogram("latency").record(0.01);

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"load\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
}

TEST(Registry, WriteJsonFileRoundTrips) {
  Registry reg;
  reg.counter("stream.samples_total").add(42.0);
  reg.gauge("stream.queue_depth").set(7.0);
  const std::string path = "test_registry_dump.json";
  reg.write_json_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"stream.samples_total\": 42"), std::string::npos);
  EXPECT_NE(all.find("\"stream.queue_depth\": 7"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Registry, WriteJsonFileThrowsOnBadPath) {
  Registry reg;
  EXPECT_THROW(reg.write_json_file("/nonexistent_dir_xyz/reg.json"), Error);
}

// ---- TraceWriter / TraceSpan ------------------------------------------------

/// Minimal structural JSON check: one object per line, balanced braces,
/// quotes paired.  (No JSON library in the repo; the real consumers are
/// chrome://tracing and jq.)
void expect_parseable_jsonl(const std::string& path, std::size_t min_lines) {
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    int depth = 0;
    std::size_t quotes = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char ch = line[i];
      if (ch == '"' && (i == 0 || line[i - 1] != '\\')) {
        ++quotes;
        in_string = !in_string;
      } else if (!in_string && ch == '{') {
        ++depth;
      } else if (!in_string && ch == '}') {
        --depth;
        EXPECT_GE(depth, 0) << line;
      }
    }
    EXPECT_EQ(depth, 0) << line;
    EXPECT_EQ(quotes % 2, 0u) << line;
  }
  EXPECT_GE(lines, min_lines);
}

TEST(TraceWriter, WritesOneParseableEventPerLine) {
  const std::string path = "test_trace_events.jsonl";
  {
    TraceWriter w(path);
    w.complete("alpha", "test", 10, 20, "\"round\": 1");
    w.instant("beta", "test");
    w.counter("gamma", 3.5);
    {
      TraceSpan span(&w, "scoped", "test");
      span.annotate("round", static_cast<std::uint64_t>(2));
      span.annotate("loss", 0.25);
    }
    EXPECT_EQ(w.events_written(), 4u);
    w.flush();
  }
  expect_parseable_jsonl(path, 4);

  // Spot-check the trace_event schema fields.
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(all.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(all.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(all.find("\"name\": \"scoped\""), std::string::npos);
  EXPECT_NE(all.find("\"round\": 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceWriter, EscapesSpecialCharacters) {
  const std::string path = "test_trace_escape.jsonl";
  {
    TraceWriter w(path);
    w.instant("quote\"back\\slash\n", "test");
    w.flush();
  }
  expect_parseable_jsonl(path, 1);
  std::remove(path.c_str());
}

TEST(TraceWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(TraceWriter("/nonexistent_dir_xyz/trace.jsonl"), Error);
}

TEST(TraceSpan, NullWriterIsInert) {
  TraceSpan span(nullptr, "nothing");
  span.annotate("k", 1.0);
  span.end();  // must not crash
  TraceSpan defaulted;
  defaulted.end();
}

/// Tiny two-client linear federation for the driver-flush regressions.
std::vector<std::unique_ptr<fl::Client>> flush_test_clients() {
  fl::ModelFactory factory = [](tensor::Rng& rng) {
    nn::Sequential m;
    m.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
    return m;
  };
  std::vector<std::unique_ptr<fl::Client>> clients;
  tensor::Rng root(11);
  for (int c = 0; c < 2; ++c) {
    tensor::Tensor3 x(8, 1, 1), y(8, 1, 1);
    tensor::Rng data_rng = root.split();
    for (std::size_t i = 0; i < 8; ++i) {
      const float xi = data_rng.uniform(-1.0f, 1.0f);
      x(i, 0, 0) = xi;
      y(i, 0, 0) = 2.0f * xi;
    }
    fl::ClientConfig cfg;
    cfg.epochs_per_round = 1;
    clients.push_back(
        std::make_unique<fl::Client>(c, x, y, factory, cfg, root.split()));
  }
  return clients;
}

/// Regression: the drivers emit spans through the RunContext's TraceWriter
/// but used to leave the last rounds' spans in the writer's buffer at
/// teardown — a caller inspecting the file right after run() (while the
/// writer is still alive, so no destructor flush has happened) saw a
/// truncated or empty trace.  run() must flush the writer before returning.
TEST(TraceWriter, SyncDriverFlushesSpansAtTeardown) {
  const std::string path = "test_trace_sync_teardown.jsonl";
  TraceWriter writer(path);
  runtime::RunContext ctx;
  ctx.trace = &writer;

  auto clients = flush_test_clients();
  fl::Server server({0.0f, 0.0f});
  fl::InMemoryNetwork net;
  fl::SyncDriver driver(server, clients, net, &ctx);
  driver.run(2);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"fl.round\""), std::string::npos);
  EXPECT_NE(all.find("\"fl.client_train\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceWriter, FleetDriverFlushesSpansAtTeardown) {
  // The fleet runs the same round loop: a round span, one training span
  // per materialized leaf, and a flush before run() returns.
  const std::string path = "test_trace_fleet_teardown.jsonl";
  TraceWriter writer(path);
  runtime::RunContext ctx;
  ctx.trace = &writer;

  datagen::FleetConfig fleet_cfg;
  fleet_cfg.clients = 4;
  fleet_cfg.hours = 60;
  forecast::ForecasterConfig model_cfg;
  model_cfg.sequence_length = 12;
  model_cfg.lstm_units = 4;
  model_cfg.dense_units = 2;
  const fl::ModelFactory factory = [model_cfg](tensor::Rng& rng) {
    return forecast::make_forecaster(model_cfg, rng);
  };
  tensor::Rng rng(7);
  fl::Server root(factory(rng).get_weights());
  fl::FleetDriverConfig cfg;
  cfg.edges = 2;
  cfg.lookback = 12;
  cfg.client.epochs_per_round = 1;
  fl::FleetDriver driver(root, datagen::make_fleet(fleet_cfg), factory, cfg,
                         &ctx);
  driver.run(1);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"fl.round\""), std::string::npos);
  EXPECT_NE(all.find("\"fl.client_train\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceSpan, MoveTransfersOwnership) {
  const std::string path = "test_trace_move.jsonl";
  {
    TraceWriter w(path);
    TraceSpan a(&w, "moved", "test");
    TraceSpan b = std::move(a);
    a.end();  // moved-from: no event
    EXPECT_EQ(w.events_written(), 0u);
    b.end();  // the one real emission
    EXPECT_EQ(w.events_written(), 1u);
    b.end();  // idempotent
    EXPECT_EQ(w.events_written(), 1u);
  }
  std::remove(path.c_str());
}

// ---- RoundTelemetrySink -----------------------------------------------------

RoundTelemetry sample_round(std::uint32_t r) {
  RoundTelemetry rt;
  rt.round = r;
  rt.wall_seconds = 0.1 * (r + 1);
  rt.max_client_seconds = 0.05;
  rt.client_train_seconds = {0.04, 0.05};
  rt.bytes_down = 100;
  rt.bytes_up = 200;
  rt.updates_accepted = 2;
  return rt;
}

TEST(RoundTelemetrySink, AccumulatesOrderedRecords) {
  RoundTelemetrySink sink;
  EXPECT_EQ(sink.size(), 0u);
  for (std::uint32_t r = 0; r < 3; ++r) sink.record(sample_round(r));
  EXPECT_EQ(sink.size(), 3u);
  const std::vector<RoundTelemetry> rounds = sink.rounds();
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[2].round, 2u);
  EXPECT_DOUBLE_EQ(rounds[2].wall_seconds, 0.3);
  const double p50 = sink.round_seconds_quantile(0.5);
  EXPECT_GE(p50, 0.1);
  EXPECT_LE(p50, 0.3);
}

TEST(RoundTelemetrySink, JsonDocumentCarriesQuantilesAndTotals) {
  RoundTelemetrySink sink;
  for (std::uint32_t r = 0; r < 4; ++r) sink.record(sample_round(r));
  std::ostringstream os;
  sink.write_json(os, {{"custom.counter", 7.0}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"round_wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"client_train_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"custom.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
}

TEST(RoundTelemetrySink, WriteJsonFileThrowsOnBadPath) {
  RoundTelemetrySink sink;
  EXPECT_THROW(sink.write_json_file("/nonexistent_dir_xyz/m.json"), Error);
}

}  // namespace
}  // namespace evfl::obs
