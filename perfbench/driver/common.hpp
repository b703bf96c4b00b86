// Shared plumbing of the benchmark driver: clocks, the seeded generator,
// the span recorder of traced runs, and a minimal JSON emitter for the raw
// record the driver hands to run.py. Every number the driver emits is raw
// (samples, counts, durations); the arithmetic on them lives in
// perfbench/benchlib.py, where it is unit-tested.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t startNs) {
  return double(nowNs() - startNs) * 1e-9;
}

/// CPU time of the calling thread / of the whole process, in ns. On a
/// shared VM the hypervisor's steal time is wall time but not CPU time, so
/// the benchmark reports CPU-time figures next to the wall-time ones.
inline std::int64_t cpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t threadCpuNs() { return cpuNs(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t processCpuNs() { return cpuNs(CLOCK_PROCESS_CPUTIME_ID); }

/// splitmix64: the one seeded generator of every input the benchmark makes.
/// A stream id keeps the inputs of different phases independent, so adding
/// a draw to one phase never shifts another phase's inputs.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1) * 0xbf58476d1ce4e5b9ull) {
    next();
  }
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Spans of one thread of a traced run: name, request id, parent index
/// (into the same log, -1 for a root), start and end. Kept in memory and
/// written out when the run ends.
class SpanLog {
 public:
  struct Span {
    int name = 0;
    std::uint64_t id = 0;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when tracing is off).
  int open(const char* name, std::uint64_t id, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({intern(name), id, parent, nowNs(), 0});
    return int(spans_.size()) - 1;
  }
  /// Records an already-timed span (e.g. an open-loop request from its due
  /// time); returns its index.
  int record(const char* name, std::uint64_t id, int parent,
             std::int64_t startNs, std::int64_t endNs) {
    if (!enabled_) return -1;
    spans_.push_back({intern(name), id, parent, startNs, endNs});
    return int(spans_.size()) - 1;
  }
  void close(int index) {
    if (index >= 0) spans_[std::size_t(index)].endNs = nowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  int intern(const char* name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.emplace_back(name);
    ids_.emplace(name, int(names_.size()) - 1);
    return int(names_.size()) - 1;
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
};

/// RAII span on a SpanLog (no-op when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t id, int parent = -1)
      : log_(log), index_(log.open(name, id, parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Minimal streaming JSON emitter (objects, arrays, numbers, strings);
/// commas are tracked per nesting level.
class Json {
 public:
  Json& beginObject() { return open('{'); }
  Json& endObject() { return close('}'); }
  Json& beginArray() { return open('['); }
  Json& endArray() { return close(']'); }
  Json& key(const std::string& k) {
    comma();
    string(k);
    out_ += ':';
    pendingValue_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(std::int64_t{v}); }
  Json& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(const std::string& v) {
    comma();
    string(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }
  /// Splices an already-serialised JSON document in as a value.
  Json& raw(const std::string& json) {
    comma();
    out_ += json.empty() ? "null" : json;
    return *this;
  }
  template <class T>
  Json& array(const std::vector<T>& values) {
    beginArray();
    for (const T& v : values) value(v);
    return endArray();
  }
  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void comma() {
    if (pendingValue_) {
      pendingValue_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void string(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool pendingValue_ = false;
};

/// Writes merged span logs as {"names": [...], "rows": [[name, id, parent,
/// start_ns, end_ns], ...]} with parents rebased to global row indices.
void writeSpans(Json& json, const std::vector<const SpanLog*>& logs);

/// Counter deltas and gauge values of the program's telemetry between two
/// snapshots, as {"counters": {...}, "gauges": {...}}.
struct TelemetryMark {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
};
TelemetryMark markTelemetry();
void writeTelemetryDelta(Json& json, const TelemetryMark& before,
                         const TelemetryMark& after);

/// Options every phase receives.
struct RunOptions {
  std::string workload;  // "sparse_faults" | "dense_faults"
  std::uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
  int lanes = 1;         // nproc
  std::string workDir;   // scratch space inside the checkout
};

// Phases: each appends one keyed object to the raw record, with its raw
// samples and its own answer checks (attempted / wrong counts).
void runServeMix(const RunOptions& options, Json& json);
void runServeOverload(const RunOptions& options, Json& json);
void runVerifyTorus(const RunOptions& options, Json& json);
void runClassifyFamily(const RunOptions& options, Json& json);

}  // namespace perfbench
