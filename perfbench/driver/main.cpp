// perfbench_driver: runs every phase of the benchmark once, in a fixed
// order, and prints one raw JSON record (samples, counts, spans, telemetry
// deltas, build and host facts) on stdout. perfbench/run.py builds this
// program, turns the record into the benchmark's metrics and checks it.
//
// Usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                         --workdir DIR
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "lcl/label_planes.hpp"
#include "support/telemetry.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void writeSpans(Json& json, const std::vector<const SpanLog*>& logs) {
  json.beginObject();
  // Names are interned per log; emit one global table.
  std::vector<std::string> names;
  std::map<std::string, int> index;
  json.key("rows").beginArray();
  int base = 0;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& span : log->spans()) {
      const std::string& name = log->names()[std::size_t(span.name)];
      auto it = index.find(name);
      if (it == index.end()) {
        names.push_back(name);
        it = index.emplace(name, int(names.size()) - 1).first;
      }
      json.beginArray()
          .value(it->second)
          .value(span.id)
          .value(span.parent < 0 ? -1 : span.parent + base)
          .value(span.startNs)
          .value(span.endNs)
          .endArray();
    }
    base += int(log->spans().size());
  }
  json.endArray();
  json.key("names").array(names);
  json.endObject();
}

TelemetryMark markTelemetry() {
  namespace tm = lclgrid::support::telemetry;
  TelemetryMark mark;
  const tm::MetricsSnapshot snapshot = tm::snapshotMetrics();
  for (const auto& c : snapshot.counters) mark.counters[c.name] = c.value;
  for (const auto& g : snapshot.gauges) mark.gauges[g.name] = g.value;
  return mark;
}

void writeTelemetryDelta(Json& json, const TelemetryMark& before,
                         const TelemetryMark& after) {
  json.beginObject();
  json.key("counters").beginObject();
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    json.key(name).value(value - (it == before.counters.end() ? 0 : it->second));
  }
  json.endObject();
  json.key("gauges").beginObject();
  for (const auto& [name, value] : after.gauges) json.key(name).value(value);
  json.endObject();
  json.endObject();
}

namespace {

/// The noise probe: a fixed single-thread xorshift loop, timed. Run at the
/// start and the end of every run, so a slower host shows up as a slower
/// spin rather than as a regression.
double spinMs() {
  volatile std::uint64_t sink = 0;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = nowNs();
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    best = std::min(best, double(nowNs() - t0) * 1e-6);
  }
  return best;
}

int affinityCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return int(std::thread::hardware_concurrency());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sparse_faults|dense_faults --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               argv0);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  if (argc % 2 == 0) return usage(argv[0]);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--workdir") {
      options.workDir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if ((options.workload != "sparse_faults" && options.workload != "dense_faults") ||
      options.seconds <= 0 || options.workDir.empty()) {
    return usage(argv[0]);
  }
  options.lanes = std::max(1, affinityCpus());

  Json json;
  json.beginObject();
  json.key("workload").value(options.workload);
  json.key("seed").value(options.seed);
  json.key("seconds").value(options.seconds);
  json.key("trace").value(options.trace);
  json.key("build").beginObject();
  json.key("compiler").value(__VERSION__);
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("telemetry").value(lclgrid::support::telemetry::kCompiledIn);
  json.key("simd_tier").value(int(lclgrid::bitslice::simdTier()));
  json.endObject();
  json.key("lanes").value(options.lanes);
  json.key("spin_start_ms").value(spinMs());
  try {
    // The run's seconds are split over the phases; the sweep phase runs
    // whole sweeps (two of ~9 s at the default 45 s). The torus phase gets
    // the most time after the sweeps: its passes carry the bounded figures,
    // and more passes over a longer stretch give a steadier fast decile.
    RunOptions mix = options, overload = options, torus = options,
               classify = options;
    mix.seconds = options.seconds * 0.10;
    overload.seconds = options.seconds * 0.08;
    torus.seconds = options.seconds * 0.30;
    classify.seconds = options.seconds * 0.52;
    runServeMix(mix, json);
    runServeOverload(overload, json);
    runVerifyTorus(torus, json);
    runClassifyFamily(classify, json);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
  json.key("spin_end_ms").value(spinMs());
  json.endObject();
  std::fwrite(json.str().data(), 1, json.str().size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
