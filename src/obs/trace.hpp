// Chrome-trace_event-compatible tracing.
//
// TraceWriter appends one JSON object per line (JSONL) to a file; each line
// is a complete-duration event ("ph":"X") or an instant event ("ph":"i")
// with steady-clock microsecond timestamps and a stable small integer per
// OS thread.  chrome://tracing and Perfetto consume the events once wrapped
// in an array (see EXPERIMENTS.md: `jq -s '{traceEvents:.}'`); every line
// also parses standalone, which is what the tests pin.
//
// TraceSpan is the RAII recording handle: construct at scope entry, emit on
// destruction.  A nullptr writer makes every operation a no-op, so call
// sites never branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

namespace evfl::obs {

class TraceWriter {
 public:
  /// Opens `path` for writing (truncating); throws evfl::Error on failure.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Microseconds since this writer's construction (the trace epoch).
  std::uint64_t now_us() const;

  /// Complete-duration event covering [ts_us, ts_us + dur_us].
  /// `args_json` is either empty or a JSON object body without braces,
  /// e.g. `"round": 3, "clients": 6`.
  void complete(const char* name, const char* cat, std::uint64_t ts_us,
                std::uint64_t dur_us, const std::string& args_json = {});

  /// Instant event at the current time.
  void instant(const char* name, const char* cat,
               const std::string& args_json = {});

  /// Counter-sample event at the current time (chrome "ph":"C").
  void counter(const char* name, double value);

  std::uint64_t events_written() const;
  void flush();

 private:
  int thread_tid();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::uint64_t events_ = 0;
  std::unordered_map<std::thread::id, int> tids_;
};

class TraceSpan {
 public:
  TraceSpan() = default;
  /// Starts timing immediately; nullptr writer -> inert span.
  TraceSpan(TraceWriter* writer, const char* name, const char* cat = "evfl");
  ~TraceSpan();

  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a numeric argument rendered into the event's "args" object.
  void annotate(const char* key, double value);
  void annotate(const char* key, std::uint64_t value);

  /// Emit now instead of at scope exit (idempotent).
  void end();

 private:
  TraceWriter* writer_ = nullptr;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::string args_;
};

}  // namespace evfl::obs
