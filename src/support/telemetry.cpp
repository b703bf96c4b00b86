#include "support/telemetry.hpp"

#include <atomic>
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "support/json.hpp"

namespace lclgrid::support::telemetry {

namespace {

// Fixed slot budgets: shards preallocate their slot arrays, so handles never
// race a reallocation. Generous against current probe counts (~30 names).
constexpr std::uint32_t kMaxCounters = 256;
constexpr std::uint32_t kMaxGauges = 64;
constexpr std::uint32_t kMaxHistograms = 32;
constexpr std::size_t kMaxEventsPerThread = 1u << 18;

constexpr std::int64_t kHistMinEmpty = INT64_MAX;

// The atomics below are single-writer (the owning thread); relaxed ordering
// everywhere -- they exist so snapshot readers on other threads are
// race-free, not to order anything.
struct HistShard {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> min{kHistMinEmpty};
  std::atomic<std::int64_t> max{0};
  std::array<std::atomic<std::int64_t>, 65> buckets{};
};

struct Shard {
  std::array<std::atomic<std::int64_t>, kMaxCounters> counters{};
  std::array<HistShard, kMaxHistograms> hists{};
};

struct HistTotal {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = kHistMinEmpty;
  std::int64_t max = 0;
};

struct TraceBuf {
  std::mutex mutex;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::string> counterNames;
  std::vector<std::string> gaugeNames;
  std::vector<std::string> histogramNames;
  std::unordered_map<std::string, std::uint32_t> counterIndex;
  std::unordered_map<std::string, std::uint32_t> gaugeIndex;
  std::unordered_map<std::string, std::uint32_t> histogramIndex;
  // Gauges are process-wide cells, not per-thread shards (set rarely).
  std::array<std::atomic<std::int64_t>, kMaxGauges> gaugeValues{};

  std::vector<Shard*> shards;            // live thread shards
  std::vector<std::int64_t> retiredCounters;   // folded-in dead threads
  std::vector<HistTotal> retiredHists;
  std::vector<TraceBuf*> traceBufs;      // live, parallel to shards' threads
  std::vector<TraceEvent> retiredTrace;

  std::atomic<int> nextTid{1};
  std::atomic<bool> traceOn{false};
  std::atomic<std::int64_t> droppedEvents{0};
  std::chrono::steady_clock::time_point epoch;
  std::string traceExitPath;
  std::string metricsExitPath;
  bool metricsExitStderr = false;

  Registry()
      : retiredCounters(kMaxCounters, 0),
        retiredHists(kMaxHistograms),
        epoch(std::chrono::steady_clock::now()) {}
};

void writeAtExit();

Registry& registry() {
  // Leaked deliberately: pool-worker thread_locals (and atexit exporters)
  // may outlive any static destruction order we could arrange.
  static Registry* instance = []() {
    Registry* r = new Registry();
    if (const char* env = std::getenv("LCLGRID_TRACE")) {
      const std::string value(env);
      if (!value.empty() && value != "0") {
        r->traceOn.store(true, std::memory_order_relaxed);
        if (value != "1") r->traceExitPath = value;
      }
    }
    if (const char* env = std::getenv("LCLGRID_METRICS")) {
      const std::string value(env);
      if (!value.empty() && value != "0") {
        if (value == "1") {
          r->metricsExitStderr = true;
        } else {
          r->metricsExitPath = value;
        }
      }
    }
    if (!r->traceExitPath.empty() || !r->metricsExitPath.empty() ||
        r->metricsExitStderr) {
      std::atexit(writeAtExit);
    }
    return r;
  }();
  return *instance;
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - registry().epoch)
          .count());
}

struct ThreadState {
  Shard shard;
  TraceBuf trace;
  int tid;

  ThreadState() {
    Registry& r = registry();
    tid = r.nextTid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(r.mutex);
    r.shards.push_back(&shard);
    r.traceBufs.push_back(&trace);
  }

  // Fold this thread's totals into the retired accumulators so counts and
  // spans survive pool workers exiting before the snapshot.
  ~ThreadState() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::uint32_t i = 0; i < kMaxCounters; ++i) {
      r.retiredCounters[i] +=
          shard.counters[i].load(std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < kMaxHistograms; ++i) {
      const HistShard& h = shard.hists[i];
      HistTotal& total = r.retiredHists[i];
      total.count += h.count.load(std::memory_order_relaxed);
      total.sum += h.sum.load(std::memory_order_relaxed);
      total.min = std::min(total.min, h.min.load(std::memory_order_relaxed));
      total.max = std::max(total.max, h.max.load(std::memory_order_relaxed));
    }
    {
      std::lock_guard<std::mutex> traceLock(trace.mutex);
      r.retiredTrace.insert(r.retiredTrace.end(),
                            std::make_move_iterator(trace.events.begin()),
                            std::make_move_iterator(trace.events.end()));
    }
    std::erase(r.shards, &shard);
    std::erase(r.traceBufs, &trace);
  }
};

ThreadState& threadState() {
  thread_local ThreadState state;
  return state;
}

void recordSpan(std::string name, std::uint64_t startNs) {
  const std::uint64_t endNs = nowNs();
  ThreadState& state = threadState();
  std::lock_guard<std::mutex> lock(state.trace.mutex);
  if (state.trace.events.size() >= kMaxEventsPerThread) {
    registry().droppedEvents.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  state.trace.events.push_back(TraceEvent{
      std::move(name), state.tid, startNs,
      endNs > startNs ? endNs - startNs : 0});
}

void writeAtExit() {
  Registry& r = registry();
  if (!r.traceExitPath.empty()) writeTraceFile(r.traceExitPath);
  if (!r.metricsExitPath.empty()) writeMetricsFile(r.metricsExitPath);
  if (r.metricsExitStderr) std::fputs(metricsJson().c_str(), stderr);
}

std::uint32_t registerName(std::unordered_map<std::string, std::uint32_t>& map,
                           std::vector<std::string>& names,
                           std::uint32_t capacity, std::string_view name) {
  auto it = map.find(std::string(name));
  if (it != map.end()) return it->second;
  if (names.size() >= capacity) return UINT32_MAX;  // budget exhausted: no-op
  const auto index = static_cast<std::uint32_t>(names.size());
  names.emplace_back(name);
  map.emplace(names.back(), index);
  return index;
}

}  // namespace

Counter counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return Counter(
      registerName(r.counterIndex, r.counterNames, kMaxCounters, name));
}

Gauge gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return Gauge(registerName(r.gaugeIndex, r.gaugeNames, kMaxGauges, name));
}

Histogram histogram(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return Histogram(
      registerName(r.histogramIndex, r.histogramNames, kMaxHistograms, name));
}

void Counter::add(std::int64_t delta) const noexcept {
  if (index_ == UINT32_MAX) return;
  std::atomic<std::int64_t>& slot = threadState().shard.counters[index_];
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void Gauge::set(std::int64_t value) const noexcept {
  if (index_ == UINT32_MAX) return;
  registry().gaugeValues[index_].store(value, std::memory_order_relaxed);
}

void Gauge::max(std::int64_t value) const noexcept {
  if (index_ == UINT32_MAX) return;
  std::atomic<std::int64_t>& cell = registry().gaugeValues[index_];
  std::int64_t seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::record(std::int64_t value) const noexcept {
  if (index_ == UINT32_MAX) return;
  if (value < 0) value = 0;
  HistShard& h = threadState().shard.hists[index_];
  h.count.store(h.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  if (value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  const int bucket = std::bit_width(static_cast<std::uint64_t>(value));
  h.buckets[static_cast<std::size_t>(bucket)].store(
      h.buckets[static_cast<std::size_t>(bucket)].load(
          std::memory_order_relaxed) +
          1,
      std::memory_order_relaxed);
}

bool traceEnabled() noexcept {
  return registry().traceOn.load(std::memory_order_relaxed);
}

void setTraceEnabled(bool on) noexcept {
  registry().traceOn.store(on, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name) noexcept {
  if (!traceEnabled()) return;
  name_ = name;
  startNs_ = nowNs();
}

ScopedSpan::ScopedSpan(std::string name) {
  if (!traceEnabled()) return;
  owned_ = std::move(name);
  name_ = owned_.c_str();
  startNs_ = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  recordSpan(owned_.empty() ? std::string(name_) : std::move(owned_),
             startNs_);
}

MetricsSnapshot snapshotMetrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snapshot;

  snapshot.counters.reserve(r.counterNames.size());
  for (std::uint32_t i = 0; i < r.counterNames.size(); ++i) {
    std::int64_t total = r.retiredCounters[i];
    for (const Shard* shard : r.shards) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snapshot.counters.push_back(CounterValue{r.counterNames[i], total});
  }

  snapshot.gauges.reserve(r.gaugeNames.size());
  for (std::uint32_t i = 0; i < r.gaugeNames.size(); ++i) {
    snapshot.gauges.push_back(GaugeValue{
        r.gaugeNames[i], r.gaugeValues[i].load(std::memory_order_relaxed)});
  }

  snapshot.histograms.reserve(r.histogramNames.size());
  for (std::uint32_t i = 0; i < r.histogramNames.size(); ++i) {
    HistTotal total = r.retiredHists[i];
    for (const Shard* shard : r.shards) {
      const HistShard& h = shard->hists[i];
      total.count += h.count.load(std::memory_order_relaxed);
      total.sum += h.sum.load(std::memory_order_relaxed);
      total.min = std::min(total.min, h.min.load(std::memory_order_relaxed));
      total.max = std::max(total.max, h.max.load(std::memory_order_relaxed));
    }
    snapshot.histograms.push_back(HistogramValue{
        r.histogramNames[i], total.count, total.sum,
        total.count > 0 ? total.min : 0, total.max});
  }
  return snapshot;
}

std::string metricsJson() {
  // Guarantees the document always carries at least one result (the repo
  // schema requires a non-empty results[]) and counts exports as a bonus.
  static const Counter exports = counter("telemetry.exports");
  exports.increment();

  const MetricsSnapshot snapshot = snapshotMetrics();
  JsonWriter json;
  json.beginObject();
  json.key("name").value("metrics_snapshot");
  json.key("config").beginObject();
  json.key("compiled_in").value(true);
  json.key("trace_enabled").value(traceEnabled());
  json.key("dropped_trace_events").value(droppedTraceEvents());
  json.endObject();
  json.key("results").beginArray();
  for (const CounterValue& c : snapshot.counters) {
    json.beginObject();
    json.key("kind").value("counter");
    json.key("name").value(c.name);
    json.key("value").value(static_cast<long long>(c.value));
    json.endObject();
  }
  for (const GaugeValue& g : snapshot.gauges) {
    json.beginObject();
    json.key("kind").value("gauge");
    json.key("name").value(g.name);
    json.key("value").value(static_cast<long long>(g.value));
    json.endObject();
  }
  for (const HistogramValue& h : snapshot.histograms) {
    json.beginObject();
    json.key("kind").value("histogram");
    json.key("name").value(h.name);
    json.key("count").value(static_cast<long long>(h.count));
    json.key("sum").value(static_cast<long long>(h.sum));
    json.key("min").value(static_cast<long long>(h.min));
    json.key("max").value(static_cast<long long>(h.max));
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

bool writeMetricsFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << metricsJson() << '\n';
  return static_cast<bool>(out);
}

std::vector<TraceEvent> snapshotTrace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<TraceEvent> events = r.retiredTrace;
  for (TraceBuf* buf : r.traceBufs) {
    std::lock_guard<std::mutex> bufLock(buf->mutex);
    events.insert(events.end(), buf->events.begin(), buf->events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              return a.durNs > b.durNs;  // parents before children
            });
  return events;
}

std::string chromeTraceJson() {
  const std::vector<TraceEvent> events = snapshotTrace();
  JsonWriter json;
  json.beginObject();
  json.key("displayTimeUnit").value("ms");
  json.key("dropped_events").value(static_cast<long long>(
      droppedTraceEvents()));
  json.key("traceEvents").beginArray();
  int lastTid = 0;
  for (const TraceEvent& event : events) {
    if (event.tid != lastTid) {
      lastTid = event.tid;
      json.beginObject();
      json.key("name").value("thread_name");
      json.key("ph").value("M");
      json.key("pid").value(1);
      json.key("tid").value(event.tid);
      json.key("args").beginObject();
      json.key("name").value("lclgrid-t" + std::to_string(event.tid));
      json.endObject();
      json.endObject();
    }
    json.beginObject();
    json.key("name").value(event.name);
    json.key("cat").value("lclgrid");
    json.key("ph").value("X");
    json.key("ts").value(static_cast<double>(event.startNs) / 1000.0);
    json.key("dur").value(static_cast<double>(event.durNs) / 1000.0);
    json.key("pid").value(1);
    json.key("tid").value(event.tid);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

bool writeTraceFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << chromeTraceJson() << '\n';
  return static_cast<bool>(out);
}

void clearTrace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.retiredTrace.clear();
  for (TraceBuf* buf : r.traceBufs) {
    std::lock_guard<std::mutex> bufLock(buf->mutex);
    buf->events.clear();
  }
  r.droppedEvents.store(0, std::memory_order_relaxed);
}

std::int64_t droppedTraceEvents() noexcept {
  return registry().droppedEvents.load(std::memory_order_relaxed);
}

}  // namespace lclgrid::support::telemetry

