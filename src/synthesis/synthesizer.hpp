// The synthesis engine of Section 7: reduce "does problem P admit a normal
// form A' o S_k with window shape h x w?" to SAT over per-tile label
// variables, and extract the finite function A' from the model.
//
// synthesize() runs the ladder on IncrementalSynthesizer, which keeps ONE
// live solver per problem (per tile-set family). Each (k, shape) instance
// is encoded as an assumption-gated clause group (sat/cnf.hpp ClauseGroup);
// climbing the ladder retires the previous group and solves under the new
// group's activation literal, so the solver, its variable order, and
// everything it learnt persist across the ladder instead of being re-built
// per instance. Budget-staged deepening (solve cheap, re-solve harder only
// if Unknown) resumes from the learnt state rather than from scratch --
// that is where the measured >= 2x conflict savings of bench_sat come from.
// synthesizeForShape solves one (k, shape) on a throwaway solver from the
// same clause generator: the fresh reference the differential tests and
// bench_sat compare the ladder against, and the call for callers that want
// instance isolation.
//
// Thread-safety contract: synthesize / synthesizeForShape are re-entrant --
// every solver, tile set and constraint system is a local; the only reads
// of the problem go through GridLcl's const interface (itself safe, see
// lcl/grid_lcl.hpp). Concurrent synthesis of different problems (or the
// same problem twice) from engine pool threads needs no locking. An
// IncrementalSynthesizer wraps one sat::Solver and inherits its contract:
// it must be owned by a single thread at a time (the engine's sweep driver
// constructs one per pool task), while distinct instances never share
// state and run concurrently without synchronisation.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "lcl/grid_lcl.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "synthesis/constraints.hpp"
#include "tiles/tile.hpp"

namespace lclgrid::synthesis {

/// The finite function A': one output label per tile. Together with k and
/// the window shape this fully determines the constant-time component of the
/// normal form (the anchors are supplied by S_k at run time).
struct SynthesizedRule {
  int k = 0;
  tiles::TileShape shape;
  tiles::TileSet tileSet{tiles::TileShape{1, 1}, 1, {}};
  std::vector<int> labelOf;  // indexed by tile index
};

struct SynthesisAttempt {
  bool success = false;
  std::optional<SynthesizedRule> rule;
  // Diagnostics for the reproduction tables.
  int k = 0;
  tiles::TileShape shape;
  long long tileCount = 0;
  long long clauseCount = 0;
  long long satConflicts = 0;
  double seconds = 0.0;
  std::string failureReason;  // "unsat", "budget", "window too large"
};

/// One synthesis attempt at fixed k and window shape, on a fresh throwaway
/// solver (the per-instance reference regime).
SynthesisAttempt synthesizeForShape(const GridLcl& lcl, int k,
                                    tiles::TileShape shape,
                                    std::int64_t satConflictBudget = -1);

struct SynthesisOptions {
  int maxK = 3;
  std::int64_t satConflictBudget = 2'000'000;
  /// Extra window shapes to try per k, beyond the defaults.
  bool tryWiderShapes = true;
};

struct SynthesisResult {
  bool success = false;
  std::optional<SynthesizedRule> rule;
  std::vector<SynthesisAttempt> attempts;  // in the order tried
};

/// One live solver for a whole synthesis ladder.
/// See the header comment for the design; the per-call semantics of
/// attemptShape mirror synthesizeForShape exactly (same attempt fields,
/// same failureReason strings), with satConflicts counting only the
/// conflicts this attempt added on the shared solver.
class IncrementalSynthesizer {
 public:
  /// Keeps a reference to `lcl`; the problem must outlive the synthesizer.
  explicit IncrementalSynthesizer(const GridLcl& lcl);

  /// Encodes (k, shape) as a new activation-gated clause group, retires the
  /// previous instance's group, and solves under the new activation literal.
  SynthesisAttempt attemptShape(int k, tiles::TileShape shape,
                                std::int64_t satConflictBudget = -1);

  /// Re-solves the most recent attemptShape instance under a new conflict
  /// budget WITHOUT re-encoding: the solver resumes from everything it
  /// learnt in the earlier budgeted calls on this instance. This is the
  /// budget-staged deepening loop ("sat budget exhausted" -> raise budget
  /// -> resolve) that a fresh-per-instance regime can only emulate by
  /// re-encoding and re-searching from zero. Requires a prior attemptShape
  /// whose window was encodable.
  SynthesisAttempt resolveActive(std::int64_t satConflictBudget = -1);

  /// The full Section 7 ladder on the live solver: k = 1..maxK, the
  /// candidateShapes of each k in order, stopping at the first success.
  SynthesisResult run(const SynthesisOptions& options);

  /// The live solver, for statistics (cumulative across all attempts).
  const sat::Solver& solver() const { return solver_; }

 private:
  struct ActiveInstance {
    int k = 0;
    tiles::TileShape shape;
    tiles::TileSet tileSet{tiles::TileShape{1, 1}, 1, {}};
    std::vector<sat::DomainVar> label;
    long long clauseCount = 0;
    bool encodable = false;
  };

  SynthesisAttempt solveActive(
      std::int64_t satConflictBudget,
      std::chrono::steady_clock::time_point startTime);

  const GridLcl& lcl_;
  sat::Solver solver_;
  sat::ClauseGroup activeGroup_;  // group of the most recent attempt
  ActiveInstance active_;
};

/// Window shapes tried for a given k, largest-window-first within the 63-bit
/// encodable limits (the paper's choices 3x2 for k=1 and 7x5 for k=3 are the
/// first candidates of their k).
std::vector<tiles::TileShape> candidateShapes(const GridLcl& lcl, int k,
                                              bool wider);

/// The full loop of Section 7: k = 1, 2, ... until synthesis succeeds or
/// the budget is exhausted. This is the one-sided oracle -- for Theta(n)
/// problems it reports failure at the budget rather than diverging.
SynthesisResult synthesize(const GridLcl& lcl, const SynthesisOptions& options = {});

}  // namespace lclgrid::synthesis
