#include "synthesis/oracle.hpp"

#include "lcl/global_solver.hpp"

namespace lclgrid::synthesis {

std::string gridComplexityName(GridComplexity c) {
  switch (c) {
    case GridComplexity::Constant: return "O(1)";
    case GridComplexity::LogStar: return "Theta(log* n)";
    case GridComplexity::ConjecturedGlobal: return "global (conjectured)";
    case GridComplexity::UnsolvableSomeN: return "global (unsolvable for some n)";
  }
  return "?";
}

OracleReport classifyOnGrid(const GridLcl& lcl, const OracleOptions& options) {
  OracleReport report;

  // Feasibility probe first: it both detects parity-obstructed problems and
  // provides evidence for the "global" verdict. One live solver holds every
  // probed size (FeasibilityProber); its verdicts match a fresh
  // solveGlobally per size, the reference the differential suite checks.
  bool unsolvableSomewhere = false;
  FeasibilityProber prober(lcl);
  for (int n : options.probeSizes) {
    const GlobalSolveResult probe =
        prober.probe(n, options.probeConflictBudget);
    // An undecided probe (budget exhausted) is reported as feasible=true in
    // the sense of "not proven unsolvable".
    bool feasible = probe.feasible || !probe.decided;
    report.feasibility.emplace_back(n, feasible);
    if (!feasible) unsolvableSomewhere = true;
  }

  // O(1) on toroidal grids <=> a constant labelling is feasible (Section 6).
  if (lcl.hasTrivialSolution()) {
    report.complexity = GridComplexity::Constant;
    report.trivialLabel = lcl.trivialLabel();
    return report;
  }

  SynthesisResult synthesis = synthesize(lcl, options.synthesis);
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

}  // namespace lclgrid::synthesis
