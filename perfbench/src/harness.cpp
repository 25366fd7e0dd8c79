#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

// ---- global allocation counter ----------------------------------------------
// Replacing the global allocation functions makes every heap allocation in
// the process visible; spans sample the counters at open and close.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_nothrow(std::size_t n) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

AllocCount alloc_now() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double fast_quartile(std::vector<double> times) {
  return quantile(times, 0.25);
}

double windowed_quantile(const std::vector<double>& v, std::size_t window,
                         double q) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / window);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t end = w + 1 == windows ? v.size() : (w + 1) * window;
    std::vector<double> part(v.begin() + w * window, v.begin() + end);
    per_window.push_back(quantile(part, q));
  }
  return fast_quartile(per_window);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const std::size_t pos = line.find_first_of("0123456789");
    if (pos == std::string::npos) return 0.0;
    return static_cast<double>(std::strtoull(line.c_str() + pos, nullptr,
                                             10)) /
           1024.0;
  }
  return 0.0;
}

// ---- host pace --------------------------------------------------------------

namespace {

std::atomic<float> g_reference_sink{0.0f};
std::vector<double> g_pace_samples;

constexpr int kUnits = 50, kGates = 4 * kUnits;

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// Fixed pseudo-weights for the reference kernels.
const std::vector<float>& reference_weights() {
  static const std::vector<float> w = [] {
    std::vector<float> v(kGates * (kUnits + 10));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 0.01f * std::sin(static_cast<float>(i));
    }
    return v;
  }();
  return w;
}

/// A naive 50-unit LSTM-style cell over 24 steps, three times: one
/// dependent multiply-add chain per gate pre-activation, then sigmoid and
/// tanh.
float reference_dot_cell() {
  constexpr int kStride = kUnits + 10;
  const std::vector<float>& weights = reference_weights();
  float out = 0.0f;
  for (int rep = 0; rep < 3; ++rep) {
    float h[kUnits], z[kGates] = {};
    std::fill(h, h + kUnits, 0.1f);
    for (int step = 0; step < 24; ++step) {
      for (int o = 0; o < kGates; ++o) {
        const float* w = &weights[o * kStride];
        float s = 0.0f;
        for (int i = 0; i < kUnits; ++i) s += w[i] * h[i];
        z[o] = s + w[kUnits] * 0.3f;
      }
      for (int i = 0; i < kUnits; ++i) {
        h[i] = sigmoid(z[i]) *
               std::tanh(z[kUnits + i] + 0.5f * z[2 * kUnits + i]);
      }
    }
    out += h[0];
  }
  return out;
}

/// The same cell for 8 rows at once, its pre-activations accumulated row by
/// row (z += h[k] * W[k, :]): load/store-bound vector multiply-adds, then
/// the gates and the cell update.
float reference_axpy_cell() {
  constexpr int kRows = 8;
  const std::vector<float>& weights = reference_weights();  // [kUnits x kGates]
  float h[kRows * kUnits] = {}, c[kRows * kUnits] = {}, z[kRows * kGates] = {};
  for (int step = 0; step < 24; ++step) {
    for (int r = 0; r < kRows; ++r) {
      float* zr = &z[r * kGates];
      for (int j = 0; j < kGates; ++j) {
        zr[j] = weights[kUnits * kGates + j] * 0.01f *
                static_cast<float>(step + r);
      }
      const float* hr = &h[r * kUnits];
      for (int k = 0; k < kUnits; ++k) {
        const float a = hr[k];
        if (a == 0.0f) continue;
        const float* w = &weights[k * kGates];
        for (int j = 0; j < kGates; ++j) zr[j] += a * w[j];
      }
      for (int j = 0; j < kUnits; ++j) {
        const float i_gate = sigmoid(zr[j]), f_gate = sigmoid(zr[kUnits + j]);
        const float g = std::tanh(zr[2 * kUnits + j]);
        const float o_gate = sigmoid(zr[3 * kUnits + j]);
        float& cell = c[r * kUnits + j];
        cell = f_gate * cell + i_gate * g;
        h[r * kUnits + j] = o_gate * std::tanh(cell);
      }
    }
  }
  return h[0] + c[kRows * kUnits - 1];
}

/// Best of three timed calls of `kernel`.
double best_of_three(float (*kernel)()) {
  double best = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    const double t0 = now_s();
    g_reference_sink.store(kernel(), std::memory_order_relaxed);
    best = std::min(best, now_s() - t0);
  }
  return best;
}

}  // namespace

double host_pace() {
  if (g_pace_samples.capacity() == 0) g_pace_samples.reserve(1 << 16);
  // Two kernels in about equal shares of time: how much a slow phase costs
  // depends on the code's mix, and the two bracket the library's own.
  const double seconds = best_of_three(reference_dot_cell) +
                         best_of_three(reference_axpy_cell);
  g_pace_samples.push_back(seconds / kReferenceNominalS);
  return g_pace_samples.back();
}

const std::vector<double>& pace_samples() { return g_pace_samples; }

PacedClock::PacedClock() : pace0_(host_pace()), t0_(now_s()) {}

double PacedClock::lap() {
  const double t1 = now_s();
  const double pace1 = host_pace();
  last_pace_ = 0.5 * (pace0_ + pace1);
  pace0_ = pace1;
  const double seconds = (t1 - t0_) / last_pace_;
  t0_ = now_s();
  return seconds;
}

// ---- host probe -------------------------------------------------------------

namespace {

/// A dependency chain the compiler cannot shorten; the result is published
/// so the loop is not dead code.
std::atomic<std::uint64_t> g_busy_sink{0};

void busy_loop(std::uint64_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_busy_sink.fetch_add(x, std::memory_order_relaxed);
}

double time_threads(unsigned threads, std::uint64_t iters) {
  const double t0 = now_s();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(busy_loop, iters);
  for (std::thread& t : pool) t.join();
  return now_s() - t0;
}

}  // namespace

HostProbe probe_host() {
  HostProbe p;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    p.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  p.hardware_concurrency = std::thread::hardware_concurrency();
  p.threads = std::max(1u, std::max(p.nproc, p.hardware_concurrency));

  // Calibrate a ~20 ms single-thread loop, then compare N threads running
  // the same loop each.  Minimum of three trials on each side.
  std::uint64_t iters = 1u << 20;
  const double probe = time_threads(1, iters);
  if (probe > 0.0) {
    iters = static_cast<std::uint64_t>(static_cast<double>(iters) * 0.02 /
                                       probe) +
            1;
  }
  double one = 1e30, many = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    one = std::min(one, time_threads(1, iters));
    many = std::min(many, time_threads(p.threads, iters));
  }
  p.busy_factor = one > 0.0 ? many / one : 0.0;
  return p;
}

// ---- tracing ----------------------------------------------------------------

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void Tracer::own_since(const AllocCount& before) {
  const AllocCount now = alloc_now();
  own_.count += now.count - before.count;
  own_.bytes += now.bytes - before.bytes;
}

int Tracer::open(const char* name) {
  const AllocCount b0 = alloc_now();
  Span s;
  s.name = name;
  s.layer = layer_of(s.name);
  s.parent = stack_.empty() ? -1 : stack_.back().id;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back({id, {}, {}});
  own_since(b0);
  // Sample allocations after the bookkeeping above, and the clock last, so
  // the span covers as little of the recorder as possible.
  stack_.back().a0 = alloc_now();
  stack_.back().own0 = own_;
  spans_[id].start_s = now_s();
  return id;
}

void Tracer::close(int id) {
  const double end = now_s();
  const AllocCount a1 = alloc_now();
  // Spans close in LIFO order (RAII scopes); anything above `id` was left
  // open by an exception and is closed with it.
  while (!stack_.empty()) {
    const Open o = stack_.back();
    stack_.pop_back();
    Span& s = spans_[o.id];
    s.dur_s = end - s.start_s;
    // Everything allocated inside the span, less the recorder's own
    // bookkeeping for spans nested in it.
    s.allocs = {a1.count - o.a0.count - (own_.count - o.own0.count),
                a1.bytes - o.a0.bytes - (own_.bytes - o.own0.bytes)};
    if (o.id == id) break;
  }
}

void Tracer::attach(int parent, const char* name, double seconds) {
  const AllocCount b0 = alloc_now();
  Span s;
  s.name = name;
  s.layer = layer_of(s.name);
  s.parent = parent;
  s.dur_s = seconds;
  s.attached = true;
  spans_.push_back(std::move(s));
  own_since(b0);
}

double Tracer::total_s(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.dur_s;
  }
  return t;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.name == name;
  return n;
}

AllocCount Tracer::allocs(const std::string& name) const {
  AllocCount a;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    a.count += s.allocs.count;
    a.bytes += s.allocs.bytes;
  }
  return a;
}

bool Tracer::has_layer(const std::string& layer) const {
  for (const Span& s : spans_) {
    if (s.layer == layer) return true;
  }
  return false;
}

double Tracer::self_s(const std::string& layer) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.dur_s;
  }
  double t = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == layer) {
      t += std::max(0.0, spans_[i].dur_s - child[i]);
    }
  }
  return t;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
        << ",\"layer\":" << json_string(s.layer) << ",\"parent\":" << s.parent
        << ",\"attached\":" << (s.attached ? "true" : "false");
    if (!s.attached) {
      out << ",\"start_s\":" << json_number(s.start_s)
          << ",\"end_s\":" << json_number(s.start_s + s.dur_s)
          << ",\"alloc_count\":" << s.allocs.count
          << ",\"alloc_bytes\":" << s.allocs.bytes;
    }
    out << ",\"dur_s\":" << json_number(s.dur_s) << "}\n";
  }
}

// ---- results ----------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) checks.push_back(what);
}

bool Result::has(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return true;
  }
  return false;
}

bool Result::is_absent(const std::string& name) const {
  for (const std::string& a : absent) {
    if (name == a || (a.back() == '.' && name.rfind(a, 0) == 0)) return true;
  }
  return false;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

}  // namespace perfbench
