// The classify_family phase: engine::sweepFamily over the 37-problem family
// of bench_family_sweep (the 32 X-orientations, vertex-colouring 2..5 and
// the duplicate weak-2-colouring-4) with maxK = 1, probe sizes {3, 4, 5} and
// a 300k conflict budget, at `lanes` lanes. The verdicts are checked by
// run.py against perfbench/expected_family.json. A traced run also replays
// each problem's feasibility-probe ladder through FeasibilityProber::probe.
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"

namespace perfbench {

namespace {

using namespace lclgrid;

std::vector<GridLcl> buildFamily() {
  std::vector<GridLcl> family;
  for (int mask = 0; mask < 32; ++mask) {
    std::set<int> x;
    for (int v = 0; v <= 4; ++v) {
      if (mask & (1 << v)) x.insert(v);
    }
    family.push_back(problems::orientation(x));
  }
  for (int k = 2; k <= 5; ++k) family.push_back(problems::vertexColouring(k));
  family.push_back(problems::weakColouring(2, 4));
  return family;
}

engine::SweepOptions sweepOptions(engine::ThreadPool& pool, int lanes) {
  engine::SweepOptions options;
  options.oracle.synthesis.maxK = 1;
  options.oracle.probeSizes = {3, 4, 5};
  options.oracle.probeConflictBudget = 300'000;
  options.engine.threads = lanes;
  options.engine.pool = &pool;
  return options;
}

void writeSweep(Json& json, const engine::SweepReport& report,
                double cpuSeconds) {
  json.beginObject();
  json.key("seconds").value(report.seconds);
  json.key("cpu_s").value(cpuSeconds);
  json.key("oracle_runs").value(report.oracleRuns);
  json.key("cache_hits").value(report.cacheHits);
  json.key("threads").value(report.threads);
  json.key("entries").beginArray();
  for (const engine::SweepEntry& e : report.entries) {
    json.beginObject();
    json.key("problem").value(e.problem);
    json.key("complexity").value(synthesis::gridComplexityName(e.report->complexity));
    json.key("cache_hit").value(e.cacheHit);
    json.key("seconds").value(e.seconds);
    double attemptS = 0;
    std::int64_t clauses = 0, successes = 0;
    for (const synthesis::SynthesisAttempt& a : e.report->attempts) {
      attemptS += a.seconds;
      clauses += a.clauseCount;
      successes += a.success;
    }
    json.key("attempts").value(std::int64_t(e.report->attempts.size()));
    json.key("attempt_s").value(attemptS);
    json.key("clauses").value(clauses);
    json.key("successes").value(successes);
    json.key("probes").beginArray();
    for (const auto& [n, feasible] : e.report->feasibility) {
      json.beginArray().value(n).value(feasible).endArray();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();
  json.endObject();
}

/// Replays the probe ladder of every problem that ran the oracle and
/// probed, `lanes` problems at a time, one prober per problem.
void replayProbes(const std::vector<GridLcl>& family,
                  const engine::SweepReport& report, int lanes,
                  std::int64_t budget, Json& json) {
  struct Job {
    std::size_t problem;
    std::vector<int> sizes;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const engine::SweepEntry& e = report.entries[i];
    if (e.cacheHit || e.report->feasibility.empty()) continue;
    Job job{i, {}};
    for (const auto& probe : e.report->feasibility) job.sizes.push_back(probe.first);
    jobs.push_back(std::move(job));
  }
  struct Row {
    std::size_t problem = 0;
    int n = 0;
    bool decided = false;
    bool feasible = false;
    std::int64_t conflicts = 0;
    double seconds = 0;
  };
  std::vector<std::vector<Row>> rows(jobs.size());
  std::vector<SpanLog> logs;
  for (int t = 0; t < lanes; ++t) logs.emplace_back(true);
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < lanes; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
        const Job& job = jobs[j];
        try {
          ScopedSpan root(logs[std::size_t(t)], "probe.ladder", job.problem);
          FeasibilityProber prober(family[job.problem]);
          for (int n : job.sizes) {
            ScopedSpan span(logs[std::size_t(t)], "probe.probe", job.problem,
                            root.index());
            const std::int64_t t0 = nowNs();
            const GlobalSolveResult result = prober.probe(n, budget);
            rows[j].push_back({job.problem, n, result.decided, result.feasible,
                               result.satConflicts, double(nowNs() - t0) * 1e-9});
          }
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  json.key("probe_replay_errors").value(errors.load());
  json.key("probe_replay").beginArray();
  for (const std::vector<Row>& r : rows) {
    for (const Row& row : r) {
      json.beginObject();
      json.key("problem").value(report.entries[row.problem].problem);
      json.key("n").value(row.n);
      json.key("decided").value(row.decided);
      json.key("feasible").value(row.feasible);
      json.key("conflicts").value(row.conflicts);
      json.key("seconds").value(row.seconds);
      json.endObject();
    }
  }
  json.endArray();
  std::vector<const SpanLog*> logPtrs;
  for (const SpanLog& log : logs) logPtrs.push_back(&log);
  json.key("replay_spans");
  writeSpans(json, logPtrs);
}

}  // namespace

void runClassifyFamily(const RunOptions& options, Json& json) {
  // Set-up: family construction (every member compiles its table), timed
  // several times for a steady median.
  std::vector<double> setupS, setupCpuS;
  std::vector<GridLcl> family;
  for (int rep = 0; rep < 9; ++rep) {
    const std::int64_t t0 = nowNs();
    const std::int64_t cpu0 = processCpuNs();
    family = buildFamily();
    setupS.push_back(secondsSince(t0));
    setupCpuS.push_back(double(processCpuNs() - cpu0) * 1e-9);
  }
  engine::ThreadPool pool(options.lanes);
  const engine::SweepOptions sweep = sweepOptions(pool, options.lanes);

  json.key("classify_family").beginObject();
  json.key("setup_s").array(setupS);
  json.key("setup_cpu_s").array(setupCpuS);
  json.key("lanes").value(options.lanes);
  json.key("family_size").value(std::int64_t(family.size()));

  // One sweep at least; more while they fit the phase budget. A traced run
  // does one untraced sweep and one traced sweep (span around the call).
  const TelemetryMark before = markTelemetry();
  json.key("sweeps").beginArray();
  engine::SweepReport last;
  const std::int64_t start = nowNs();
  SpanLog spans(options.trace), quiet(false);
  std::vector<double> untracedS;
  int sweeps = 0;
  for (;; ++sweeps) {
    const bool traceThis = options.trace && sweeps == 1;
    const std::int64_t cpu0 = processCpuNs();
    {
      ScopedSpan span(traceThis ? spans : quiet, "classify.sweep",
                      std::uint64_t(sweeps));
      last = engine::sweepFamily(family, sweep);
    }
    if (options.trace && !traceThis) untracedS.push_back(last.seconds);
    writeSweep(json, last, double(processCpuNs() - cpu0) * 1e-9);
    if (options.trace ? sweeps >= 1
                      : secondsSince(start) + last.seconds > options.seconds) {
      break;
    }
  }
  json.endArray();
  const TelemetryMark after = markTelemetry();
  json.key("sweep_count").value(sweeps + 1);
  if (options.trace) {
    json.key("untraced_sweep_s").array(untracedS);
    json.key("telemetry");
    writeTelemetryDelta(json, before, after);
    json.key("spans");
    writeSpans(json, {&spans});
    replayProbes(family, last, options.lanes, sweep.oracle.probeConflictBudget,
                 json);
  }
  json.endObject();
}

}  // namespace perfbench
