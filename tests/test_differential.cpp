// Differential suite for the incremental SAT engine (PR 3): assumption-based
// incremental classification must agree with fresh-solve-per-instance -- and
// with the PR 2 fingerprint-cached family_sweep path -- over the whole
// problem registry, at 1/2/8 engine threads.
//
// "Agree" is checked on a canonical rendering of the oracle report that
// covers every semantic field: complexity verdict, trivial label, the full
// attempt ladder (k, shape, tile count, clause count, outcome, failure
// reason), rule presence/shape/size/label-range, and every probe verdict.
// Wall times and SAT conflict counts are deliberately excluded: the two
// regimes solve different clause databases by design (that is the point),
// so their search statistics differ while every verdict must not.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "engine/family_sweep.hpp"
#include "grid/torus2d.hpp"
#include "helpers/problem_registry.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "synthesis/oracle.hpp"

using namespace lclgrid;

namespace {

std::string canonical(const synthesis::OracleReport& report, int sigma) {
  std::ostringstream os;
  os << synthesis::gridComplexityName(report.complexity);
  os << "|trivial=" << report.trivialLabel;
  os << "|attempts=[";
  for (const auto& attempt : report.attempts) {
    os << attempt.k << ":" << attempt.shape.height << "x"
       << attempt.shape.width << ":" << attempt.tileCount << ":"
       << attempt.clauseCount << ":"
       << (attempt.success ? "sat" : attempt.failureReason) << ";";
  }
  os << "]|rule=";
  if (report.rule) {
    bool labelsOk = true;
    for (int label : report.rule->labelOf) {
      if (label < 0 || label >= sigma) labelsOk = false;
    }
    os << "k" << report.rule->k << ":" << report.rule->shape.height << "x"
       << report.rule->shape.width << ":" << report.rule->labelOf.size()
       << ":" << (labelsOk ? "in-range" : "OUT-OF-RANGE");
  } else {
    os << "none";
  }
  os << "|feasibility=[";
  for (const auto& [n, feasible] : report.feasibility) {
    os << n << ":" << (feasible ? "yes" : "no") << ";";
  }
  os << "]";
  return os.str();
}

synthesis::OracleOptions oracleOptions(bool incremental) {
  synthesis::OracleOptions options;
  options.synthesis.maxK = 1;
  options.synthesis.tryWiderShapes = false;
  options.synthesis.incremental = incremental;
  // n=3 and n=4 probe one odd and one even torus cheaply; the odd-n parity
  // obstructions at n=5 cost millions of resolution conflicts and belong
  // to the benches, not here.
  options.probeSizes = {3, 4};
  return options;
}

/// Fresh-solver-per-instance reference classification of the registry.
std::vector<std::string> freshReference(const std::vector<GridLcl>& registry) {
  std::vector<std::string> reference;
  reference.reserve(registry.size());
  for (const GridLcl& lcl : registry) {
    reference.push_back(canonical(
        synthesis::classifyOnGrid(lcl, oracleOptions(/*incremental=*/false)),
        lcl.sigma()));
  }
  return reference;
}

}  // namespace

TEST(Differential, IncrementalClassificationMatchesFreshOnRegistry) {
  auto registry = problemRegistry();
  auto reference = freshReference(registry);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    auto incremental = synthesis::classifyOnGrid(
        registry[i], oracleOptions(/*incremental=*/true));
    EXPECT_EQ(canonical(incremental, registry[i].sigma()), reference[i])
        << registry[i].name();
  }
}

TEST(Differential, SweepMatchesFreshAtAllThreadCountsAndCacheModes) {
  auto registry = problemRegistry();
  auto reference = freshReference(registry);

  for (int threads : {1, 2, 8}) {
    for (bool incremental : {false, true}) {
      for (bool cache : {false, true}) {
        engine::SweepOptions options;
        options.oracle = oracleOptions(incremental);
        options.engine.threads = threads;
        options.cacheByFingerprint = cache;
        auto sweep = engine::sweepFamily(registry, options);
        ASSERT_EQ(sweep.entries.size(), registry.size());
        for (std::size_t i = 0; i < registry.size(); ++i) {
          ASSERT_NE(sweep.entries[i].report, nullptr);
          EXPECT_EQ(canonical(*sweep.entries[i].report, registry[i].sigma()),
                    reference[i])
              << registry[i].name() << " threads=" << threads
              << " incremental=" << incremental << " cache=" << cache;
        }
        // The PR 2 cache path must still collapse the duplicate relation
        // (vertex-2-colouring == weak-2-colouring-4) in both regimes.
        if (cache) {
          EXPECT_GE(sweep.cacheHits, 1)
              << "threads=" << threads << " incremental=" << incremental;
        } else {
          EXPECT_EQ(sweep.cacheHits, 0);
        }
      }
    }
  }
}

TEST(Differential, SynthesisLadderAttemptsAgreeShapeByShape) {
  // Per-attempt agreement, not just end-to-end: for every registry problem
  // the incremental ladder's attempt at each (k, shape) must reach the
  // verdict of a fresh solver on that exact instance.
  for (const GridLcl& lcl : problemRegistry()) {
    synthesis::IncrementalSynthesizer live(lcl);
    for (int k = 1; k <= 2; ++k) {
      for (const auto& shape :
           synthesis::candidateShapes(lcl, k, /*wider=*/false)) {
        auto fresh = synthesis::synthesizeForShape(lcl, k, shape);
        auto incremental = live.attemptShape(k, shape);
        EXPECT_EQ(incremental.success, fresh.success)
            << lcl.name() << " k=" << k;
        EXPECT_EQ(incremental.failureReason, fresh.failureReason)
            << lcl.name() << " k=" << k;
        EXPECT_EQ(incremental.tileCount, fresh.tileCount);
        EXPECT_EQ(incremental.clauseCount, fresh.clauseCount);
      }
    }
  }
}

TEST(Differential, ProberMatchesSolveGloballyOnRegistry) {
  for (const GridLcl& lcl : problemRegistry()) {
    FeasibilityProber prober(lcl);
    for (int n : {3, 4}) {
      Torus2D torus(n);
      auto fresh = solveGlobally(torus, lcl);
      auto probe = prober.probe(n);
      ASSERT_TRUE(fresh.decided);
      ASSERT_TRUE(probe.decided);
      EXPECT_EQ(probe.feasible, fresh.feasible) << lcl.name() << " n=" << n;
      if (probe.feasible) {
        // The prober's model is a genuine solution of the instance.
        EXPECT_EQ(static_cast<int>(probe.labels.size()), torus.size());
        EXPECT_TRUE(verify(torus, lcl, probe.labels)) << lcl.name();
      }
    }
    // Re-probing a size reuses its encoded block and stays consistent.
    auto again = prober.probe(4);
    EXPECT_EQ(again.feasible, prober.probe(4).feasible);
  }
}
