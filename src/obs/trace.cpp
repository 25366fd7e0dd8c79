#include "obs/trace.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace evfl::obs {

namespace {

/// Escape a string for embedding in a JSON string literal.  Event names and
/// categories are compile-time literals in practice, but the writer must
/// never emit an unparseable line whatever it is handed.
std::string json_escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : epoch_(std::chrono::steady_clock::now()), out_(path, std::ios::trunc) {
  if (!out_) throw Error("TraceWriter: cannot open '" + path + "'");
}

TraceWriter::~TraceWriter() { flush(); }

std::uint64_t TraceWriter::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

int TraceWriter::thread_tid() {
  // Caller holds mutex_.
  const auto id = std::this_thread::get_id();
  const auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size()) + 1;
  tids_.emplace(id, tid);
  return tid;
}

void TraceWriter::complete(const char* name, const char* cat,
                           std::uint64_t ts_us, std::uint64_t dur_us,
                           const std::string& args_json) {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"name\": \"" << json_escape(name) << "\", \"cat\": \""
       << json_escape(cat) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << thread_tid() << ", \"ts\": " << ts_us << ", \"dur\": " << dur_us
       << ", \"args\": {" << args_json << "}}";
    out_ << os.str() << "\n";
    ++events_;
  }
}

void TraceWriter::instant(const char* name, const char* cat,
                          const std::string& args_json) {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"name\": \"" << json_escape(name) << "\", \"cat\": \""
       << json_escape(cat)
       << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": "
       << thread_tid() << ", \"ts\": " << now_us() << ", \"args\": {"
       << args_json << "}}";
    out_ << os.str() << "\n";
    ++events_;
  }
}

void TraceWriter::counter(const char* name, double value) {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"name\": \"" << json_escape(name)
       << "\", \"ph\": \"C\", \"pid\": 1, \"tid\": " << thread_tid()
       << ", \"ts\": " << now_us() << ", \"args\": {\"value\": " << value
       << "}}";
    out_ << os.str() << "\n";
    ++events_;
  }
}

std::uint64_t TraceWriter::events_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void TraceWriter::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

TraceSpan::TraceSpan(TraceWriter* writer, const char* name, const char* cat)
    : writer_(writer), name_(name), cat_(cat) {
  if (writer_ != nullptr) start_us_ = writer_->now_us();
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    end();
    writer_ = other.writer_;
    name_ = other.name_;
    cat_ = other.cat_;
    start_us_ = other.start_us_;
    args_ = std::move(other.args_);
    other.writer_ = nullptr;
  }
  return *this;
}

TraceSpan::~TraceSpan() { end(); }

void TraceSpan::annotate(const char* key, double value) {
  if (writer_ == nullptr) return;
  std::ostringstream os;
  if (!args_.empty()) os << ", ";
  os << "\"" << json_escape(key) << "\": " << value;
  args_ += os.str();
}

void TraceSpan::annotate(const char* key, std::uint64_t value) {
  if (writer_ == nullptr) return;
  std::ostringstream os;
  if (!args_.empty()) os << ", ";
  os << "\"" << json_escape(key) << "\": " << value;
  args_ += os.str();
}

void TraceSpan::end() {
  if (writer_ == nullptr) return;
  const std::uint64_t end_us = writer_->now_us();
  writer_->complete(name_, cat_, start_us_,
                    end_us > start_us_ ? end_us - start_us_ : 0, args_);
  writer_ = nullptr;
}

}  // namespace evfl::obs
