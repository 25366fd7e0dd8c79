#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "common/error.hpp"

namespace evfl::obs {

void Counter::add(double amount) {
  std::lock_guard<std::mutex> lock(mutex_);
  value_ += amount;
}

double Counter::value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return value_;
}

void Gauge::set(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  value_ = value;
}

double Gauge::value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return value_;
}

Histogram::Histogram(double lowest, double highest, std::size_t buckets)
    : lowest_(lowest),
      log_lowest_(std::log(lowest)),
      log_growth_((std::log(highest) - std::log(lowest)) /
                  static_cast<double>(buckets)),
      counts_(buckets, 0) {
  EVFL_REQUIRE(lowest > 0.0 && highest > lowest && buckets > 0,
               "Histogram needs 0 < lowest < highest and >= 1 bucket");
}

double Histogram::bucket_lower(std::size_t index) const {
  return std::exp(log_lowest_ + log_growth_ * static_cast<double>(index));
}

double Histogram::bucket_upper(std::size_t index) const {
  return bucket_lower(index + 1);
}

void Histogram::record(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t index = 0;
  if (value > lowest_) {
    const double pos = (std::log(value) - log_lowest_) / log_growth_;
    index = std::min(counts_.size() - 1,
                     static_cast<std::size_t>(std::max(pos, 0.0)));
  }
  ++counts_[index];
  if (total_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++total_;
  sum_ += value;
}

std::size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(total_);
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0;
}

double Histogram::quantile_locked(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, ceil — the classic nearest-rank
  // definition), then linear interpolation inside the landing bucket.
  const double target =
      std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t next = cum + counts_[i];
    if (static_cast<double>(next) >= target) {
      const double within =
          (target - static_cast<double>(cum)) / static_cast<double>(counts_[i]);
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double v = lo + within * (hi - lo);
      // Bucket edges are approximations; the exact extremes are known.
      return std::clamp(v, min_, max_);
    }
    cum = next;
  }
  return max_;
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quantile_locked(q);
}

void Histogram::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"count\": " << total_ << ", \"sum\": " << sum_
     << ", \"min\": " << min_ << ", \"max\": " << max_
     << ", \"mean\": " << (total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0)
     << ", \"p50\": " << quantile_locked(0.50)
     << ", \"p95\": " << quantile_locked(0.95)
     << ", \"p99\": " << quantile_locked(0.99) << ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << bucket_upper(i) << ", " << counts_[i] << "]";
  }
  os << "]}";
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, double lowest,
                               double highest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lowest, highest);
  return *slot;
}

std::map<std::string, double> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> values;
  for (const auto& [name, c] : counters_) values[name] = c->value();
  return values;
}

void Registry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": " << c->value();
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": " << g->value();
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": ";
    h->write_json(os);
  }
  os << "}}";
}

void Registry::write_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  EVFL_REQUIRE(out.is_open(), "Registry::write_json_file: cannot open " + path);
  write_json(out);
  out << "\n";
  out.flush();
  EVFL_REQUIRE(out.good(), "Registry::write_json_file: write failed: " + path);
}

}  // namespace evfl::obs
