// The one-sided complexity oracle of Section 7. On toroidal grids:
//  * a problem is O(1) iff a constant labelling is feasible (triviality);
//  * if synthesis succeeds for some k, the problem is Theta(log* n) and we
//    hold an asymptotically optimal algorithm;
//  * if synthesis fails up to the budget, the problem is *conjectured*
//    global -- by Theorem 3 no procedure can decide this, so a budgeted
//    failure is the honest finite rendering of the semi-decision procedure.
// A feasibility probe on small tori additionally distinguishes "global but
// solvable" from "no solution exists for infinitely many n" (both are
// Theta(n)-class per Section 3).
//
// Thread-safety contract: classifyOnGrid is re-entrant -- it composes the
// feasibility probes and synthesize, both of which keep all mutable state
// local (see lcl/global_solver.hpp, synthesis/synthesizer.hpp,
// sat/solver.hpp). Each classification owns one live FeasibilityProber
// and one IncrementalSynthesizer for its whole ladder -- one solver per
// task, never shared across pool threads. The engine's FamilySweep runs one
// classification per pool thread with no shared locks on the hot path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lcl/grid_lcl.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"

namespace lclgrid::synthesis {

enum class GridComplexity {
  Constant,            // O(1): constant labelling feasible
  LogStar,             // Theta(log* n): synthesis succeeded
  ConjecturedGlobal,   // no synthesis up to budget; solvable on probed tori
  UnsolvableSomeN,     // no solution for some probed n (=> Theta(n) family)
};

std::string gridComplexityName(GridComplexity c);

struct OracleReport {
  GridComplexity complexity = GridComplexity::ConjecturedGlobal;
  int trivialLabel = -1;                   // for Constant
  std::optional<SynthesizedRule> rule;     // for LogStar
  std::vector<SynthesisAttempt> attempts;  // everything that was tried
  // Feasibility probe results: (n, feasible) for the probed torus sizes.
  std::vector<std::pair<int, bool>> feasibility;
};

struct OracleOptions {
  SynthesisOptions synthesis;
  /// Torus sizes for the feasibility probe (defaults chosen to include odd
  /// and even n, which separate the parity-obstructed problems).
  std::vector<int> probeSizes = {4, 5, 6, 7};
  /// SAT conflict budget per probe. Counting-style UNSAT instances (e.g.
  /// in-degree sum obstructions) are exponentially hard for resolution;
  /// an undecided probe is treated as "not proven unsolvable".
  std::int64_t probeConflictBudget = 300'000;
};

/// Runs the full oracle pipeline on a problem.
OracleReport classifyOnGrid(const GridLcl& lcl, const OracleOptions& options = {});

}  // namespace lclgrid::synthesis
