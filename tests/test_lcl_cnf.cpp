// The LCL -> CNF generator (lcl/lcl_cnf.hpp) and the torus CSP built on it.
// How an LCL is phrased must not change its answer: pair clauses for
// edge-decomposable problems and blocking clauses for the rest must decide
// exactly what exhaustive enumeration through verify() decides, and the
// incremental prober must agree with the fresh global solve.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "grid/torus2d.hpp"
#include "helpers/problem_registry.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/lcl_cnf.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "support/telemetry.hpp"

using namespace lclgrid;

namespace {

/// Whether some labelling of the torus verifies, by enumerating all
/// sigma^(n*n) of them in odometer order.
bool feasibleByEnumeration(const Torus2D& torus, const GridLcl& lcl) {
  std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);
  while (true) {
    if (verify(torus, lcl, labels)) return true;
    std::size_t i = 0;
    while (i < labels.size() && ++labels[i] == lcl.sigma()) labels[i++] = 0;
    if (i == labels.size()) return false;
  }
}

/// An edge-decomposable problem whose pair relations are not symmetric:
/// each east and each north neighbour carries the label plus one, mod 3.
/// Solvable exactly when 3 divides n. The registry's decomposable problems
/// are all symmetric, so a generator that swapped a pair's ends would still
/// get their verdicts right; here it would return a mirrored labelling that
/// does not verify.
GridLcl shiftByOne() {
  auto next = [](int label) { return (label + 1) % 3; };
  return GridLcl("shift-by-one", 3,
                 static_cast<std::uint8_t>(kDepN | kDepE | kDepS | kDepW),
                 [next](int c, int n, int e, int s, int w) {
                   return n == next(c) && e == next(c) && c == next(s) &&
                          c == next(w);
                 });
}

/// The registry plus shiftByOne().
std::vector<GridLcl> problemsUnderTest() {
  std::vector<GridLcl> problems = problemRegistry();
  problems.push_back(shiftByOne());
  return problems;
}

/// sigma^(n*n) <= 2^20.
bool enumerable(int sigma, int n) {
  double count = 1.0;
  for (int i = 0; i < n * n; ++i) count *= sigma;
  return count <= static_cast<double>(1 << 20);
}

}  // namespace

TEST(LclCnf, TorusCspMatchesExhaustiveEnumeration) {
  int checked = 0;
  for (const GridLcl& lcl : problemsUnderTest()) {
    FeasibilityProber prober(lcl);
    for (int n = 1; n <= 3; ++n) {
      if (!enumerable(lcl.sigma(), n)) continue;
      SCOPED_TRACE(lcl.name() + " n=" + std::to_string(n));
      Torus2D torus(n);
      const bool expected = feasibleByEnumeration(torus, lcl);
      for (const GlobalSolveResult& result :
           {solveGlobally(torus, lcl), prober.probe(n)}) {
        EXPECT_TRUE(result.decided);
        EXPECT_EQ(result.feasible, expected);
        if (result.feasible) {
          EXPECT_TRUE(verify(torus, lcl, result.labels));
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 30);
}

TEST(LclCnf, ProberMatchesSolveGloballyOnEdgeDecomposableProblems) {
  int decomposable = 0;
  for (const GridLcl& lcl : problemsUnderTest()) {
    if (!lcl.isEdgeDecomposable()) continue;
    ++decomposable;
    FeasibilityProber prober(lcl);
    for (int n = 1; n <= 6; ++n) {
      SCOPED_TRACE(lcl.name() + " n=" + std::to_string(n));
      Torus2D torus(n);
      GlobalSolveResult fresh = solveGlobally(torus, lcl);
      GlobalSolveResult live = prober.probe(n);
      ASSERT_TRUE(fresh.decided);
      ASSERT_TRUE(live.decided);
      EXPECT_EQ(live.feasible, fresh.feasible);
      if (fresh.feasible) {
        EXPECT_TRUE(verify(torus, lcl, fresh.labels));
      }
      if (live.feasible) {
        EXPECT_TRUE(verify(torus, lcl, live.labels));
      }
    }
  }
  // Vertex colouring (k = 2..5), independent set, no-horizontal-one-pair,
  // shift-by-one.
  EXPECT_GE(decomposable, 7);
}

TEST(LclCnf, EdgeDecomposableTorusGetsOneBinaryClausePerForbiddenPair) {
  const GridLcl lcl = problems::vertexColouring(5);
  ASSERT_TRUE(lcl.isEdgeDecomposable());
  sat::Solver solver;
  ASSERT_EQ(encodeTorusCsp(Torus2D(7), lcl, solver).size(), 49u);
  // Per node: one 5-literal at-least-one clause and 10 binary at-most-one
  // clauses; per east and north edge: one binary clause per equal-colour
  // pair. Row blocking would add 1,845 five-literal clauses per node.
  const sat::SolverStats stats = solver.snapshotStats();
  EXPECT_EQ(stats.liveClauses, 49 * (1 + 10) + 2 * 49 * 5);
  EXPECT_EQ(stats.liveLiterals, 49 * (5 + 2 * 10) + 2 * 2 * 49 * 5);
}

TEST(LclCnf, CrossesGetOneBlockingClausePerForbiddenRow) {
  const GridLcl lcl = problems::orientation({1, 3});
  ASSERT_FALSE(lcl.isEdgeDecomposable());
  sat::Solver solver;
  auto labels = oneHotLabels(solver, 5, lcl.sigma(),
                             [&](const std::vector<int>&) {});
  const std::vector<VarCross> crosses = {{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}};
  long long emitted = 0;
  const long long count =
      encodeLcl(lcl, {}, {}, crosses, labels,
                [&](const std::vector<int>&) { ++emitted; });
  EXPECT_EQ(count, 2 * lcl.table().forbiddenRowCount());
  EXPECT_EQ(emitted, count);
}

TEST(LclCnf, ProbeTraceSplitsIntoEncodeAndSolve) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::setTraceEnabled(true);
  telemetry::clearTrace();
  const GridLcl lcl = problems::vertexColouring(3);
  FeasibilityProber prober(lcl);
  EXPECT_TRUE(prober.probe(4).feasible);
  telemetry::setTraceEnabled(false);
  const std::vector<telemetry::TraceEvent> trace = telemetry::snapshotTrace();
  const telemetry::TraceEvent* encode = nullptr;
  const telemetry::TraceEvent* solve = nullptr;
  for (const auto& event : trace) {
    if (event.name == "sat/encode") encode = &event;
    if (event.name == "sat/solve") solve = &event;
  }
  ASSERT_NE(encode, nullptr);
  ASSERT_NE(solve, nullptr);
  EXPECT_LE(encode->startNs + encode->durNs, solve->startNs);
}

// A satisfiable branch decides the seeded solve even when an earlier branch
// ran out of budget; every model it returns verifies.
TEST(SolveGloballySeeded, FeasibleImpliesDecided) {
  int feasible = 0;
  for (const GridLcl& lcl :
       {problems::vertexColouring(3), problems::orientation({1, 3})}) {
    for (int n = 5; n <= 7; ++n) {
      Torus2D torus(n);
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        for (std::int64_t budget : {0, 10, 100}) {
          SCOPED_TRACE(lcl.name() + " n=" + std::to_string(n) +
                       " seed=" + std::to_string(seed) +
                       " budget=" + std::to_string(budget));
          GlobalSolveResult result = solveGlobally(torus, lcl, seed, budget);
          if (!result.feasible) continue;
          ++feasible;
          EXPECT_TRUE(result.decided);
          EXPECT_TRUE(verify(torus, lcl, result.labels));
        }
      }
    }
  }
  EXPECT_GT(feasible, 0);
}
