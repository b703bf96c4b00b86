// Fresh-solver references for the synthesis oracle: the Section 7 ladder
// and the oracle pipeline rebuilt from the per-instance calls
// (synthesizeForShape, one throwaway solver per (k, shape); solveGlobally,
// one per probed torus size). The library runs both on one live solver
// each (IncrementalSynthesizer, FeasibilityProber); these are what the
// tests hold it to.
#pragma once

#include <utility>

#include "grid/torus2d.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/grid_lcl.hpp"
#include "synthesis/oracle.hpp"
#include "synthesis/synthesizer.hpp"

namespace lclgrid {

/// synthesize() with a fresh solver per attempt: k = 1..maxK, the
/// candidateShapes of each k in order, stopping at the first success.
inline synthesis::SynthesisResult freshLadder(
    const GridLcl& lcl, const synthesis::SynthesisOptions& options) {
  synthesis::SynthesisResult result;
  for (int k = 1; k <= options.maxK; ++k) {
    for (const tiles::TileShape& shape :
         synthesis::candidateShapes(lcl, k, options.tryWiderShapes)) {
      synthesis::SynthesisAttempt attempt = synthesis::synthesizeForShape(
          lcl, k, shape, options.satConflictBudget);
      const bool success = attempt.success;
      if (success) result.rule = std::move(attempt.rule);
      attempt.rule.reset();
      result.attempts.push_back(std::move(attempt));
      if (success) {
        result.success = true;
        return result;
      }
    }
  }
  return result;
}

/// classifyOnGrid() with a fresh solver per probe and per attempt.
inline synthesis::OracleReport freshClassification(
    const GridLcl& lcl, const synthesis::OracleOptions& options) {
  using synthesis::GridComplexity;
  synthesis::OracleReport report;
  bool unsolvableSomewhere = false;
  for (int n : options.probeSizes) {
    const GlobalSolveResult probe =
        solveGlobally(Torus2D(n), lcl, 0, options.probeConflictBudget);
    const bool feasible = probe.feasible || !probe.decided;
    report.feasibility.emplace_back(n, feasible);
    if (!feasible) unsolvableSomewhere = true;
  }
  if (lcl.hasTrivialSolution()) {
    report.complexity = GridComplexity::Constant;
    report.trivialLabel = lcl.trivialLabel();
    return report;
  }
  synthesis::SynthesisResult synthesis = freshLadder(lcl, options.synthesis);
  report.attempts = std::move(synthesis.attempts);
  if (synthesis.success) {
    report.complexity = GridComplexity::LogStar;
    report.rule = std::move(synthesis.rule);
    return report;
  }
  report.complexity = unsolvableSomewhere ? GridComplexity::UnsolvableSomeN
                                          : GridComplexity::ConjecturedGlobal;
  return report;
}

}  // namespace lclgrid
