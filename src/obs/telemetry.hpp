// evfl::obs telemetry primitives — the one metrics surface; RunContext
// counts into a Registry.
//
//   Counter   — monotonically accumulating double (thread-safe add).
//   Gauge     — last-write-wins double (thread-safe set).
//   Histogram — fixed log-spaced buckets over a positive value domain with
//               exact count/sum/min/max and interpolated quantiles
//               (p50/p95/p99 summaries for latency distributions).
//   Registry  — name → instrument map with stable references and a JSON
//               renderer, so benches dump every instrument in one file.
//
// All instruments are individually thread-safe; none allocate on the hot
// recording path beyond their fixed construction-time storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace evfl::obs {

class Counter {
 public:
  void add(double amount = 1.0);
  double value() const;

 private:
  mutable std::mutex mutex_;
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value);
  double value() const;

 private:
  mutable std::mutex mutex_;
  double value_ = 0.0;
};

/// Log-spaced-bucket histogram for positive measurements (latencies, byte
/// counts).  Values are bucketed in [lowest, highest); out-of-range values
/// land in the edge buckets but min/max/sum stay exact, and quantiles are
/// clamped to the observed [min, max] so a single sample reports itself.
class Histogram {
 public:
  /// Default domain covers 1 microsecond to ~3 hours when recording
  /// seconds, with ~7% bucket resolution.
  explicit Histogram(double lowest = 1e-6, double highest = 1e4,
                     std::size_t buckets = 128);

  void record(double value);

  std::size_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;

  /// Interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  /// `{"count":N,"sum":...,"min":...,"max":...,"mean":...,
  ///   "p50":...,"p95":...,"p99":...,"buckets":[[upper_bound,count],...]}`
  /// (only non-empty buckets are listed).
  void write_json(std::ostream& os) const;

 private:
  double bucket_lower(std::size_t index) const;
  double bucket_upper(std::size_t index) const;
  double quantile_locked(double q) const;

  double lowest_;
  double log_lowest_;
  double log_growth_;  // log of per-bucket growth factor
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named instruments with stable addresses: the reference returned by
/// counter()/gauge()/histogram() stays valid for the registry's lifetime,
/// so hot paths resolve the name once and keep the pointer.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Histogram construction parameters apply on first use of the name.
  Histogram& histogram(const std::string& name, double lowest = 1e-6,
                       double highest = 1e4);

  /// Name -> value of every counter.
  std::map<std::string, double> counter_values() const;

  /// `{"counters":{...},"gauges":{...},"histograms":{...}}`
  void write_json(std::ostream& os) const;

  /// write_json to `path` (truncating) with a trailing newline; throws
  /// evfl::Error when the file cannot be opened or written.
  void write_json_file(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace evfl::obs
