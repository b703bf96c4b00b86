// Incremental-vs-fresh SAT engine benchmark, in the repo-wide
// {name, config, results[]} JSON schema.
//
// Three scenarios quantify what assumption-based incremental solving buys
// the Section 7 pipeline over the seed's fresh-solver-per-instance regime:
//  * synthesis_ladder  -- the full k/window ladder per problem, one live
//    solver with activation-literal clause groups vs a fresh solver per
//    (k, shape). Same verdicts by construction (differential-tested); this
//    row shows the two regimes cost about the same when every instance is
//    solved exactly once with no budget staging.
//  * staged_ladder     -- the ladder's budget-staged deepening loop (solve
//    with a small conflict budget, double it while the verdict is Unknown).
//    The fresh regime re-encodes and re-searches from zero at every stage;
//    the incremental solver resumes from its learnt clauses, so the staged
//    loop costs barely more than one unbudgeted solve. This is the family
//    sweep's progressive-deepening pattern and the headline >= 2x.
//  * seeded_branches   -- solveGlobally's seeded branch enumeration (force
//    one node to each label, first satisfiable branch wins): fresh solver
//    per branch vs one live solver taking each branch as an assumption.
//    On infeasible instances every branch re-proves the same core; the
//    live solver proves it once.
//
// Usage: bench_sat [--smoke] [--trace-out F] [--metrics-out F]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "grid/torus2d.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/json.hpp"
#include "support/numeric.hpp"
#include "support/telemetry.hpp"
#include "support/timing.hpp"
#include "synthesis/synthesizer.hpp"
#include "tiles/tile.hpp"

using namespace lclgrid;

namespace {

struct Arm {
  double seconds = 0.0;
  long long conflicts = 0;
  // Filled from sat::Solver::snapshotStats() where the arm owns the solver
  // (the seeded_branches scenario); 0 where the solver is internal to the
  // synthesis pipeline.
  long long decisions = 0;
  long long propagations = 0;
  long long restarts = 0;
  // Arena clause-store columns (docs/sat.md), read off the live solver of
  // the incremental arms; gated by scripts/check_bench_json.py.
  long long arenaBytes = 0;
  long long gcRuns = 0;
  long long liveLiterals = 0;
  std::string verdict;
};

using support::secondsSince;

/// Fold a solver's public stats snapshot into an arm (additive, so the
/// fresh regime can accumulate across its throwaway solvers).
void foldStats(Arm& arm, const sat::SolverStats& stats) {
  arm.decisions += stats.decisions;
  arm.propagations += stats.propagations;
  arm.restarts += stats.restarts;
}

/// Capture the arena snapshot of a live solver (the incremental arms own
/// exactly one solver, so these are set, not accumulated).
void captureArena(Arm& arm, const sat::SolverStats& stats) {
  arm.arenaBytes = stats.arenaBytes;
  arm.gcRuns = stats.gcRuns;
  arm.liveLiterals = stats.liveLiterals;
}

// --- scenario: full synthesis ladder, fresh vs incremental -----------------

/// The ladder of synthesize() with a fresh solver per (k, shape): the
/// candidateShapes of k = 1..maxK in order, up to the first success.
Arm runLadderFresh(const GridLcl& lcl, int maxK) {
  const synthesis::SynthesisOptions options{.maxK = maxK};
  auto start = std::chrono::steady_clock::now();
  Arm arm;
  arm.verdict = "none";
  for (int k = 1; k <= maxK && arm.verdict != "sat"; ++k) {
    for (const tiles::TileShape& shape :
         synthesis::candidateShapes(lcl, k, options.tryWiderShapes)) {
      const synthesis::SynthesisAttempt attempt =
          synthesis::synthesizeForShape(lcl, k, shape,
                                        options.satConflictBudget);
      arm.conflicts += attempt.satConflicts;
      arm.verdict = attempt.success ? "sat" : attempt.failureReason;
      if (attempt.success) break;
    }
  }
  arm.seconds = secondsSince(start);
  return arm;
}

/// synthesize()'s own ladder, on an IncrementalSynthesizer driven directly
/// so the live solver's arena columns are readable once the ladder ends.
Arm runLadderIncremental(const GridLcl& lcl, int maxK) {
  const synthesis::SynthesisOptions options{.maxK = maxK};
  auto start = std::chrono::steady_clock::now();
  Arm arm;
  synthesis::IncrementalSynthesizer live(lcl);
  const synthesis::SynthesisResult result = live.run(options);
  captureArena(arm, live.solver().snapshotStats());
  arm.seconds = secondsSince(start);
  for (const auto& attempt : result.attempts) {
    arm.conflicts += attempt.satConflicts;
  }
  if (result.success) {
    arm.verdict = "sat";
  } else {
    arm.verdict = result.attempts.empty()
                      ? "none"
                      : result.attempts.back().failureReason;
  }
  return arm;
}

// --- scenario: budget-staged deepening at one (k, shape) -------------------

Arm runStagedFresh(const GridLcl& lcl, int k, tiles::TileShape shape,
                   std::int64_t initialBudget) {
  Arm arm;
  auto start = std::chrono::steady_clock::now();
  std::int64_t budget = initialBudget;
  while (true) {
    auto attempt = synthesis::synthesizeForShape(lcl, k, shape, budget);
    arm.conflicts += attempt.satConflicts;
    if (attempt.success || attempt.failureReason != "sat budget exhausted") {
      arm.verdict = attempt.success ? "sat" : attempt.failureReason;
      break;
    }
    budget *= 2;
  }
  arm.seconds = secondsSince(start);
  return arm;
}

Arm runStagedIncremental(const GridLcl& lcl, int k, tiles::TileShape shape,
                         std::int64_t initialBudget) {
  Arm arm;
  auto start = std::chrono::steady_clock::now();
  synthesis::IncrementalSynthesizer live(lcl);
  std::int64_t budget = initialBudget;
  auto attempt = live.attemptShape(k, shape, budget);
  arm.conflicts += attempt.satConflicts;
  while (!attempt.success && attempt.failureReason == "sat budget exhausted") {
    budget *= 2;
    attempt = live.resolveActive(budget);
    arm.conflicts += attempt.satConflicts;
  }
  arm.verdict = attempt.success ? "sat" : attempt.failureReason;
  captureArena(arm, live.solver().snapshotStats());
  arm.seconds = secondsSince(start);
  return arm;
}

// --- scenario: seeded branch enumeration on the torus CSP ------------------

/// The branch schedule of solveGlobally's seeded mode, shared by both arms
/// so they do identical logical work.
struct BranchPlan {
  int forcedNode = 0;
  std::vector<int> order;
};

BranchPlan branchPlan(const Torus2D& torus, const GridLcl& lcl,
                      std::uint64_t seed) {
  SplitMix64 rng(seed);
  BranchPlan plan;
  plan.forcedNode =
      static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(torus.size())));
  plan.order.resize(static_cast<std::size_t>(lcl.sigma()));
  for (int i = 0; i < lcl.sigma(); ++i) {
    plan.order[static_cast<std::size_t>(i)] = i;
  }
  for (int i = lcl.sigma() - 1; i > 0; --i) {
    int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(i + 1)));
    std::swap(plan.order[static_cast<std::size_t>(i)],
              plan.order[static_cast<std::size_t>(j)]);
  }
  return plan;
}

Arm runBranchesFresh(const Torus2D& torus, const GridLcl& lcl, int seeds) {
  // The seed regime: every branch re-encodes the CSP into a fresh solver
  // and re-derives every conflict from scratch.
  Arm arm;
  auto start = std::chrono::steady_clock::now();
  bool feasible = false;
  for (int seed = 1; seed <= seeds; ++seed) {
    auto plan = branchPlan(torus, lcl, static_cast<std::uint64_t>(seed));
    for (int candidate : plan.order) {
      sat::Solver solver;
      auto label = encodeTorusCsp(torus, lcl, solver);
      solver.addClause(
          {label[static_cast<std::size_t>(plan.forcedNode)].is(candidate)});
      auto outcome = solver.solve();
      arm.conflicts += solver.conflicts();
      foldStats(arm, solver.snapshotStats());
      if (outcome == sat::Result::Sat) {
        feasible = true;
        break;
      }
    }
  }
  arm.verdict = feasible ? "sat" : "unsat";
  arm.seconds = secondsSince(start);
  return arm;
}

Arm runBranchesIncremental(const Torus2D& torus, const GridLcl& lcl,
                           int seeds) {
  // One live solver for all seeds and branches: encode once, then one
  // assumption solve per branch; learnt clauses accumulate across the
  // whole enumeration.
  Arm arm;
  auto start = std::chrono::steady_clock::now();
  sat::Solver solver;
  auto label = encodeTorusCsp(torus, lcl, solver);
  bool feasible = false;
  for (int seed = 1; seed <= seeds; ++seed) {
    auto plan = branchPlan(torus, lcl, static_cast<std::uint64_t>(seed));
    for (int candidate : plan.order) {
      auto outcome = solver.solve(
          {label[static_cast<std::size_t>(plan.forcedNode)].is(candidate)},
          -1);
      if (outcome == sat::Result::Sat) {
        feasible = true;
        break;
      }
    }
  }
  arm.conflicts = solver.conflicts();
  foldStats(arm, solver.snapshotStats());
  captureArena(arm, solver.snapshotStats());
  arm.verdict = feasible ? "sat" : "unsat";
  arm.seconds = secondsSince(start);
  return arm;
}

// --- report ----------------------------------------------------------------

double ratio(double fresh, double incremental) {
  return incremental > 0.0 ? fresh / incremental : 0.0;
}

void emitResult(support::JsonWriter& json, const char* scenario,
                const std::string& caseName, const Arm& fresh,
                const Arm& incremental) {
  json.beginObject();
  json.key("scenario").value(scenario);
  json.key("case").value(caseName);
  json.key("fresh_seconds").value(fresh.seconds);
  json.key("fresh_conflicts").value(fresh.conflicts);
  json.key("fresh_verdict").value(fresh.verdict);
  json.key("incremental_seconds").value(incremental.seconds);
  json.key("incremental_conflicts").value(incremental.conflicts);
  json.key("incremental_verdict").value(incremental.verdict);
  if (fresh.decisions + incremental.decisions > 0) {
    json.key("fresh_decisions").value(fresh.decisions);
    json.key("fresh_propagations").value(fresh.propagations);
    json.key("fresh_restarts").value(fresh.restarts);
    json.key("incremental_decisions").value(incremental.decisions);
    json.key("incremental_propagations").value(incremental.propagations);
    json.key("incremental_restarts").value(incremental.restarts);
  }
  json.key("conflict_ratio")
      .value(ratio(static_cast<double>(fresh.conflicts),
                   static_cast<double>(incremental.conflicts)));
  json.key("speedup").value(ratio(fresh.seconds, incremental.seconds));
  // Arena clause-store columns, read off the incremental arm's live solver
  // at the end of its run (fresh arms discard their solvers, so the live
  // arena is the one the clause-store work targets). peak_rss_kb is
  // process-wide and monotone across rows. Gated by check_bench_json.py.
  json.key("arena_bytes").value(incremental.arenaBytes);
  json.key("gc_runs").value(incremental.gcRuns);
  json.key("live_literals").value(incremental.liveLiterals);
  json.key("peak_rss_kb").value(support::peakRssKb());
  json.endObject();
  std::fprintf(stderr,
               "%-16s %-28s fresh %8lld cf %7.3fs | incr %8lld cf %7.3fs\n",
               scenario, caseName.c_str(), fresh.conflicts, fresh.seconds,
               incremental.conflicts, incremental.seconds);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string traceOut;
  std::string metricsOut;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      traceOut = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metricsOut = argv[++i];
    }
  }
  if (!traceOut.empty()) telemetry::setTraceEnabled(true);

  const std::int64_t initialBudget = smoke ? 16 : 64;
  support::JsonWriter json;
  json.beginObject();
  json.key("name").value("bench_sat");
  json.key("config").beginObject();
  json.key("smoke").value(smoke);
  json.key("staged_initial_budget").value(initialBudget);
  json.endObject();
  json.key("results").beginArray();

  // Scenario 1: the full ladder, solved once per instance.
  {
    struct Case {
      GridLcl lcl;
      int maxK;
    };
    std::vector<Case> cases;
    cases.push_back({problems::vertexColouring(3), smoke ? 1 : 2});
    if (!smoke) cases.push_back({problems::vertexColouring(4), 3});
    cases.push_back({problems::orientation({1, 3, 4}), 1});
    for (const Case& c : cases) {
      Arm fresh = runLadderFresh(c.lcl, c.maxK);
      Arm incremental = runLadderIncremental(c.lcl, c.maxK);
      emitResult(json, "synthesis_ladder",
                 c.lcl.name() + " maxK=" + std::to_string(c.maxK), fresh,
                 incremental);
    }
  }

  // Scenario 2: budget-staged deepening at a fixed rung of the ladder.
  {
    struct Case {
      GridLcl lcl;
      int k;
      tiles::TileShape shape;
    };
    // maximal-matching dominates this scenario by design: its instances
    // pair a heavy encode (millions of blocking clauses) with an UNSAT
    // proof that outlives the early budgets, so the fresh regime pays the
    // full re-encode + re-search at every stage. The 4-colouring flagship
    // rung decides within the first budget and shows the two regimes at
    // parity when staging never engages -- kept as the honest baseline.
    std::vector<Case> cases;
    if (smoke) {
      cases.push_back({problems::maximalMatching(), 1, {3, 2}});
    } else {
      cases.push_back({problems::maximalMatching(), 1, {3, 3}});
      cases.push_back({problems::vertexColouring(4), 3, {7, 5}});
    }
    for (const Case& c : cases) {
      Arm fresh = runStagedFresh(c.lcl, c.k, c.shape, initialBudget);
      Arm incremental =
          runStagedIncremental(c.lcl, c.k, c.shape, initialBudget);
      emitResult(json, "staged_ladder",
                 c.lcl.name() + " k=" + std::to_string(c.k) + " " +
                     std::to_string(c.shape.height) + "x" +
                     std::to_string(c.shape.width),
                 fresh, incremental);
    }
  }

  // Scenario 3: seeded branch enumeration over the torus CSP.
  {
    struct Case {
      GridLcl lcl;
      int n;
      int seeds;
    };
    std::vector<Case> cases;
    cases.push_back({problems::orientation({1, 3}), 3, smoke ? 2 : 4});
    if (!smoke) cases.push_back({problems::vertexColouring(2), 5, 4});
    for (const Case& c : cases) {
      Torus2D torus(c.n);
      Arm fresh = runBranchesFresh(torus, c.lcl, c.seeds);
      Arm incremental = runBranchesIncremental(torus, c.lcl, c.seeds);
      emitResult(json, "seeded_branches",
                 c.lcl.name() + " n=" + std::to_string(c.n) + " seeds=" +
                     std::to_string(c.seeds),
                 fresh, incremental);
    }
  }

  json.endArray();
  json.endObject();
  std::printf("%s\n", json.str().c_str());

  if (!traceOut.empty() && !telemetry::writeTraceFile(traceOut)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 traceOut.c_str());
  }
  if (!metricsOut.empty() && !telemetry::writeMetricsFile(metricsOut)) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n",
                 metricsOut.c_str());
  }
  return 0;
}
