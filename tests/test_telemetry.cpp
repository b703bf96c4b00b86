// Tests for the telemetry layer (support/telemetry.hpp): counter-merge
// determinism across thread counts, span nesting, trace-JSON structure,
// retired-thread fold-in, and the exporters' document shapes.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.hpp"
#include "support/telemetry.hpp"

namespace lclgrid {
namespace {

std::int64_t counterValue(const telemetry::MetricsSnapshot& snapshot,
                          const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return -1;
}

TEST(TelemetryCounter, AddAndSnapshot) {
  const telemetry::Counter c = telemetry::counter("test.basic_counter");
  c.add(5);
  c.increment();
  const auto snapshot = telemetry::snapshotMetrics();
  EXPECT_GE(counterValue(snapshot, "test.basic_counter"), 6);
}

TEST(TelemetryCounter, SameNameSameSlot) {
  const telemetry::Counter a = telemetry::counter("test.shared_slot");
  const telemetry::Counter b = telemetry::counter("test.shared_slot");
  a.add(3);
  b.add(4);
  const auto snapshot = telemetry::snapshotMetrics();
  // Both handles feed one slot; its total moved by exactly 7.
  EXPECT_GE(counterValue(snapshot, "test.shared_slot"), 7);
}

// The tentpole determinism claim: the merged total is exact whenever the
// instrumented threads are quiescent, independent of how the increments
// were spread over pool lanes.
TEST(TelemetryCounter, MergeDeterministicAcrossThreadCounts) {
  const telemetry::Counter c = telemetry::counter("test.merge_determinism");
  const std::int64_t before =
      counterValue(telemetry::snapshotMetrics(), "test.merge_determinism");
  constexpr std::int64_t kItems = 10000;
  std::int64_t expected = before < 0 ? 0 : before;
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    pool.parallelFor(0, kItems, /*grain=*/64,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) c.add(1);
                     });
    expected += kItems;
    // parallelFor has returned, so every lane is quiescent: the merge of
    // live shards + retired totals must be exact, at every thread count.
    EXPECT_EQ(
        counterValue(telemetry::snapshotMetrics(), "test.merge_determinism"),
        expected)
        << "threads=" << threads;
  }
}

TEST(TelemetryCounter, RetiredThreadsFoldIn) {
  const telemetry::Counter c = telemetry::counter("test.retired_fold");
  const std::int64_t before =
      counterValue(telemetry::snapshotMetrics(), "test.retired_fold");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() { c.add(100); });
  }
  for (auto& thread : threads) thread.join();
  // The shards died with their threads; the retired accumulator keeps the
  // counts.
  EXPECT_EQ(counterValue(telemetry::snapshotMetrics(), "test.retired_fold"),
            (before < 0 ? 0 : before) + 400);
}

TEST(TelemetryGauge, SetAndMax) {
  const telemetry::Gauge g = telemetry::gauge("test.gauge");
  g.set(10);
  g.max(5);   // below: no effect
  g.max(42);  // above: raises
  const auto snapshot = telemetry::snapshotMetrics();
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "test.gauge") {
      EXPECT_EQ(gauge.value, 42);
      return;
    }
  }
  FAIL() << "gauge not in snapshot";
}

TEST(TelemetryHistogram, CountSumMinMax) {
  const telemetry::Histogram h = telemetry::histogram("test.histogram");
  h.record(1);
  h.record(7);
  h.record(100);
  const auto snapshot = telemetry::snapshotMetrics();
  for (const auto& hist : snapshot.histograms) {
    if (hist.name == "test.histogram") {
      EXPECT_GE(hist.count, 3);
      EXPECT_GE(hist.sum, 108);
      EXPECT_LE(hist.min, 1);
      EXPECT_GE(hist.max, 100);
      return;
    }
  }
  FAIL() << "histogram not in snapshot";
}

TEST(TelemetrySpan, DisabledRecordsNothing) {
  telemetry::setTraceEnabled(false);
  telemetry::clearTrace();
  {
    telemetry::ScopedSpan span("test/disabled");
    telemetry::ScopedSpan dynamic(std::string("test/disabled_dynamic"));
  }
  EXPECT_TRUE(telemetry::snapshotTrace().empty());
}

TEST(TelemetrySpan, NestingIsLaminar) {
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  {
    telemetry::ScopedSpan outer("test/outer");
    {
      telemetry::ScopedSpan inner("test/inner");
    }
    {
      telemetry::ScopedSpan sibling(std::string("test/sibling"));
    }
  }
  telemetry::setTraceEnabled(false);
  const auto trace = telemetry::snapshotTrace();
  ASSERT_EQ(trace.size(), 3u);
  const telemetry::TraceEvent* outer = nullptr;
  const telemetry::TraceEvent* inner = nullptr;
  const telemetry::TraceEvent* sibling = nullptr;
  for (const auto& event : trace) {
    if (event.name == "test/outer") outer = &event;
    if (event.name == "test/inner") inner = &event;
    if (event.name == "test/sibling") sibling = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  // Children are contained in the parent interval...
  EXPECT_GE(inner->startNs, outer->startNs);
  EXPECT_LE(inner->startNs + inner->durNs, outer->startNs + outer->durNs);
  EXPECT_GE(sibling->startNs, outer->startNs);
  EXPECT_LE(sibling->startNs + sibling->durNs,
            outer->startNs + outer->durNs);
  // ...and siblings do not overlap.
  EXPECT_GE(sibling->startNs, inner->startNs + inner->durNs);
}

TEST(TelemetrySpan, WorkerThreadsGetDistinctTids) {
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  std::thread worker([]() { telemetry::ScopedSpan span("test/worker"); });
  worker.join();
  {
    telemetry::ScopedSpan span("test/main");
  }
  telemetry::setTraceEnabled(false);
  const auto trace = telemetry::snapshotTrace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_NE(trace[0].tid, trace[1].tid);
}

// Minimal structural JSON scan: brackets balance outside string literals
// and the document is a single object. Enough to catch a malformed
// exporter without a JSON dependency; scripts/check_trace_json.py does the
// full parse in CI.
bool balancedJsonObject(const std::string& text) {
  int depth = 0;
  bool inString = false;
  bool sawAny = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      inString = true;
    } else if (c == '{' || c == '[') {
      ++depth;
      sawAny = true;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    } else if (depth == 0 && !std::isspace(static_cast<unsigned char>(c)) &&
               sawAny) {
      return false;  // trailing garbage after the root closes
    }
  }
  return sawAny && depth == 0 && !inString;
}

TEST(TelemetryExport, ChromeTraceJsonWellFormed) {
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  {
    telemetry::ScopedSpan span("test/export");
  }
  telemetry::setTraceEnabled(false);
  const std::string json = telemetry::chromeTraceJson();
  EXPECT_TRUE(balancedJsonObject(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name
}

TEST(TelemetryExport, MetricsJsonWellFormedAndNonEmpty) {
  const std::string json = telemetry::metricsJson();
  EXPECT_TRUE(balancedJsonObject(json)) << json;
  EXPECT_NE(json.find("\"name\":\"metrics_snapshot\""), std::string::npos);
  // The built-in exports counter guarantees a non-empty results[].
  EXPECT_NE(json.find("\"telemetry.exports\""), std::string::npos);
}

}  // namespace
}  // namespace lclgrid
