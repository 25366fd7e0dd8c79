// evfl benchmark entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--trace-dir DIR]
//   perfbench --list-metrics
//
// Prints a context line (host probe) and a summary, then as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 1
// when a correctness check fails, 2 on bad arguments or an error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"ops_ok_frac", "frac", "higher"},
      {"throughput_per_s", "1/s", "higher"},
      {"latency_p50_ms", "ms", "lower"},
      {"latency_p99_ms", "ms", "lower"},
      {"quality", "ratio", "higher"},
  };
  return specs;
}

namespace {

const char* const kLayers[] = {"datagen", "attack", "anomaly", "data",
                               "nn",      "fl",     "forecast", "stream"};

}  // namespace

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"datagen.generate_s", "s", "lower"},
        {"datagen.make_fleet_s", "s", "lower"},
        {"attack.inject_s", "s", "lower"},
        {"attack.points", "count", "higher"},
        {"anomaly.fit_s", "s", "lower"},
        {"anomaly.fit_epochs", "count", "lower"},
        {"anomaly.score_s", "s", "lower"},
        {"anomaly.mitigate_s", "s", "lower"},
        {"anomaly.flagged", "count", "higher"},
        {"anomaly.segments", "count", "higher"},
        {"anomaly.recall", "ratio", "higher"},
        {"anomaly.precision", "ratio", "higher"},
        {"data.window_s", "s", "lower"},
        {"nn.predict_s", "s", "lower"},
        {"fl.run_s", "s", "lower"},
        {"fl.round_s.p50", "s", "lower"},
        {"fl.round_s.max", "s", "lower"},
        {"fl.client_train_s", "s", "lower"},
        {"fl.orchestration_s", "s", "lower"},
        {"fl.wire_bytes", "bytes", "lower"},
        {"fl.wire_bytes_per_round", "bytes", "lower"},
        {"fl.messages", "count", "lower"},
        {"fl.updates_accepted", "count", "higher"},
        {"fl.updates_rejected", "count", "lower"},
        {"fl.timed_out", "count", "lower"},
        {"fl.dropped_messages", "count", "lower"},
        {"fl.final_loss", "mse", "lower"},
        {"forecast.publish_s", "s", "lower"},
        {"forecast.publishes", "count", "lower"},
        {"forecast.batches", "count", "lower"},
        {"forecast.rows_per_batch", "rows", "higher"},
        {"forecast.batch_p50_ms", "ms", "lower"},
        {"forecast.batch_p99_ms", "ms", "lower"},
        {"stream.ingest_s", "s", "lower"},
        {"stream.flush_s", "s", "lower"},
        {"stream.flushes", "count", "lower"},
        {"stream.flush_p50_ms", "ms", "lower"},
        {"stream.flush_p99_ms", "ms", "lower"},
        {"stream.engine_share", "frac", "higher"},
        {"stream.samples", "count", "higher"},
        {"stream.scored", "count", "higher"},
        {"stream.not_ready", "count", "lower"},
        {"stream.gaps", "count", "lower"},
        {"stream.events", "count", "higher"},
        {"stream.repaired", "count", "higher"},
        {"stream.reseeds", "count", "lower"},
        {"stream.ingest_dropped", "count", "lower"},
        {"stream.queue_dropped", "count", "lower"},
        {"stream.backlog_max", "samples", "lower"},
        {"stream.gen_lag_p99_ms", "ms", "lower"},
        {"stream.sustained_rate", "1/s", "higher"},
        {"alloc.anomaly.fit.count", "count", "lower"},
        {"alloc.anomaly.fit.bytes", "bytes", "lower"},
        {"alloc.fl.run.count", "count", "lower"},
        {"alloc.fl.run.bytes", "bytes", "lower"},
        {"alloc.forecast.publish.count", "count", "lower"},
        {"alloc.forecast.publish.bytes", "bytes", "lower"},
        {"alloc.stream.flush.count", "count", "lower"},
        {"alloc.stream.flush.bytes", "bytes", "lower"},
    };
    for (const char* layer : kLayers) {
      v.push_back({std::string("self.") + layer + "_s", "s", "lower"});
    }
    v.push_back({"trace.overhead_frac", "frac", "lower"});
    return v;
  }();
  return specs;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "paper_pipeline|fleet_rounds|stream_soak --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--trace-dir DIR]\n"
               "       perfbench --list-metrics\n",
               msg);
  return 2;
}

void list_metrics() {
  for (const MetricSpec& m : end_to_end_metrics()) {
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), m.unit, m.better);
  }
  for (const MetricSpec& m : per_layer_metrics()) {
    std::printf("per_layer %s %s %s\n", m.name.c_str(), m.unit, m.better);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string trace_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && o.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      traced = val == "1";
    } else if (key == "--scale") {
      if (val != "full" && val != "tiny") return usage("bad --scale");
      o.tiny = val == "tiny";
    } else if (key == "--trace-dir") {
      trace_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  Result (*run)(const Options&) = nullptr;
  if (o.workload == "paper_pipeline") run = run_paper_pipeline;
  if (o.workload == "fleet_rounds") run = run_fleet_rounds;
  if (o.workload == "stream_soak") run = run_stream_soak;
  if (run == nullptr) return usage("unknown --workload");

  const HostProbe host = probe_host();
  std::printf("{\"context\": {\"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"scale\": %s, "
              "\"threads_used\": 1, \"nproc\": %u, "
              "\"hardware_concurrency\": %u, \"busy_threads\": %u, "
              "\"busy_factor\": %s}}\n",
              json_string(o.workload).c_str(),
              static_cast<unsigned long long>(o.seed),
              json_number(o.seconds).c_str(), traced ? 1 : 0,
              o.tiny ? "\"tiny\"" : "\"full\"", host.nproc,
              host.hardware_concurrency, host.threads,
              json_number(host.busy_factor).c_str());
  std::fflush(stdout);

  Tracer tracer;
  if (traced) o.tracer = &tracer;
  Result res;
  try {
    res = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::vector<double>& paces = pace_samples();
  if (!paces.empty()) {
    const auto [lo, hi] = std::minmax_element(paces.begin(), paces.end());
    std::printf("host pace (timings are divided by it): %zu samples, median "
                "%.3f, min %.3f, max %.3f\n",
                paces.size(), median(paces), *lo, *hi);
  }

  // Metrics every workload shares.
  const std::vector<MetricSpec>& wanted =
      traced ? per_layer_metrics() : end_to_end_metrics();
  if (traced) {
    for (const char* layer : kLayers) {
      if (tracer.has_layer(layer)) {
        res.set(std::string("self.") + layer + "_s", tracer.self_s(layer),
                "s");
      }
    }
    // Metrics of layers the workload declared it never calls read zero;
    // any other missing metric fails below.
    for (const MetricSpec& m : wanted) {
      if (!res.has(m.name) && res.is_absent(m.name)) {
        res.set(m.name, 0.0, m.unit);
      }
    }
    if (!trace_dir.empty()) {
      tracer.write_jsonl(trace_dir + "/" + o.workload + "-seed" +
                         std::to_string(o.seed) + ".jsonl");
    }
  } else {
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.set("ops_ok_frac",
            res.attempted > 0
                ? 1.0 - static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted)
                : 0.0,
            "frac");
  }

  // Report exactly the catalogue for this mode, in catalogue order.
  std::string metrics;
  for (const MetricSpec& m : wanted) {
    const Metric* found = nullptr;
    for (const Metric& have : res.metrics) {
      if (have.name == m.name) found = &have;
    }
    if (found == nullptr) {
      res.check(false, std::string("metric not measured: ") + m.name);
      continue;
    }
    res.check(std::isfinite(found->value),
              std::string("metric is not finite: ") + m.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " +
               json_number(found->value) + ", \"unit\": " +
               json_string(m.unit) + "}";
  }
  res.check(res.attempted >= 1, "no operation was attempted");

  for (const std::string& c : res.checks) {
    std::printf("CHECK FAILED: %s\n", c.c_str());
  }
  const bool correct = res.checks.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return correct ? 0 : 1;
}
