// Shared measurement plumbing for the evfl benchmark: one heap-allocation
// counter, a steady-clock timing helper, span tracing with per-layer self
// time, a host probe, and the result/JSON writer.  Everything here belongs
// to the benchmark; the library under test is only called, never changed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- allocation counter -----------------------------------------------------
// harness.cpp replaces the global operator new/delete, so every heap
// allocation in the process is counted.

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

AllocCount alloc_now();

// ---- timing -----------------------------------------------------------------

/// Steady-clock seconds since an arbitrary process-wide epoch.
double now_s();

/// Interpolated quantile of `v` (sorted in place), q in [0, 1]; v non-empty.
double quantile(std::vector<double>& v, double q);

/// Median of a non-empty copy.
double median(std::vector<double> v);

/// How a run's pieces (windows of requests, rounds, passes, set-ups) combine
/// into one figure: the quartile on the fast side.  On a shared host speed
/// swings between phases lasting seconds; the figure holds as long as a
/// quarter of the run falls in a fast phase, yet moves with the program.
double fast_quartile(std::vector<double> times);  // lower quartile

/// Quantile q of each consecutive `window` samples of `v` (a short tail
/// joins the last window), then fast_quartile across windows.
double windowed_quantile(const std::vector<double>& v, std::size_t window,
                         double q);

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();

// ---- host pace --------------------------------------------------------------
// On a shared host the same code runs up to ~1.6x slower in phases that last
// from seconds to minutes (another tenant loading the same physical core),
// and a whole run can fall inside one.  So the benchmark times fixed
// reference kernels of its own (two naive LSTM-style cells written here,
// never the library's code) between pieces of work, and divides each
// piece's wall time by the host's pace around it.  Timings are thus seconds
// at nominal pace: the pace at which the reference kernels take
// kReferenceNominalS.

/// The reference kernels' time at nominal pace (each the best of three
/// calls; an unloaded core of the 4-vCPU 2.1 GHz Xeon development host).
constexpr double kReferenceNominalS = 9.0e-4;

/// The host's pace now: the reference kernels' time (about 4 ms of work
/// in all) over kReferenceNominalS.  ~1 on an unloaded core, larger when
/// the host is slower.
double host_pace();

/// Every pace host_pace() has measured in this process.
const std::vector<double>& pace_samples();

/// Consecutive pieces of work, timed at nominal pace.  Each piece's wall
/// time is divided by the mean of the pace sampled just before and just
/// after it; the sampling itself falls between pieces, never inside one.
class PacedClock {
 public:
  PacedClock();
  /// End the current piece and start the next; the ended piece's seconds
  /// at nominal pace.
  double lap();
  /// The pace lap() divided the last piece by.
  double pace() const { return last_pace_; }

 private:
  double pace0_;
  double t0_;
  double last_pace_ = 1.0;
};

// ---- host probe -------------------------------------------------------------

/// Real parallelism of the host.  `busy_factor` is the wall time of
/// `threads` threads each running one fixed busy loop over the wall time of
/// one thread running it: ~1 when threads run concurrently, ~`threads` when
/// they are time-sliced onto one core.
struct HostProbe {
  unsigned nproc = 0;                 // CPUs in this process's affinity mask
  unsigned hardware_concurrency = 0;  // std::thread::hardware_concurrency()
  unsigned threads = 0;               // threads used for busy_factor
  double busy_factor = 0.0;
};

HostProbe probe_host();

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder.  A span covers one call from the benchmark into
/// a layer (name, start, end, parent, allocations inside it); the layer is
/// the name up to its first '.', as in "anomaly.fit".
/// Attached spans carry a duration measured by one of the program's own
/// instruments for work nested inside another span (client training inside
/// a federated run, engine scoring inside a stream flush); they have no
/// position of their own and count only towards self time.
/// The recorder's own allocations (growing its span and stack arrays) are
/// kept out of every span's count, so a span counts the program only.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent = -1;
    double start_s = 0.0;
    double dur_s = 0.0;
    AllocCount allocs;  // inclusive of children
    bool attached = false;
  };

  int open(const char* name);
  void close(int id);
  /// Record an attached child of span `parent` (open or closed).
  void attach(int parent, const char* name, double seconds);

  /// Sum of durations / number of spans with this exact name.
  double total_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Inclusive allocations summed over spans with this name.
  AllocCount allocs(const std::string& name) const;

  /// Whether any span belongs to `layer`.
  bool has_layer(const std::string& layer) const;
  /// Self time of `layer`: its spans' durations minus the time their direct
  /// children cover.
  double self_s(const std::string& layer) const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Open {
    int id;
    AllocCount a0;
    AllocCount own0;  // own_ at open
  };
  /// Add the allocations since `before` to the recorder's own count.
  void own_since(const AllocCount& before);

  std::vector<Span> spans_;
  std::vector<Open> stack_;
  AllocCount own_;
};

/// RAII span; inert when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The span's id, for attaching children; -1 when untraced.
  int id() const { return id_; }

  void end() {
    if (tracer_ != nullptr && !closed_) tracer_->close(id_);
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
};

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports.  `checks` collects correctness failures;
/// any entry makes the run incorrect.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> checks;
  /// Per-layer metrics of layers this workload never calls: exact names,
  /// or prefixes ending in '.'.  Only these may read 0 by omission.
  std::vector<std::string> absent;

  void set(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  bool has(const std::string& name) const;
  bool is_absent(const std::string& name) const;
};

/// Render a double with every digit (round-trips), `null` when not finite.
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
