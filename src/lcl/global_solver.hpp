// SAT-backed global solving of an LCL on a concrete torus. This plays three
// roles in the reproduction:
//  * the brute-force Theta(n) baseline ("gather everything and solve") that
//    is optimal for global problems (Section 7),
//  * a feasibility oracle (e.g. Theorem 21: 2d-edge-colouring is infeasible
//    for odd n),
//  * a generator of feasible labellings for the lower-bound invariant
//    experiments of Section 9 (randomised solutions via seed-dependent
//    symmetry-breaking assumptions).
//
// Thread-safety: solveGlobally is re-entrant (a fresh sat::Solver and CNF
// per call; the problem is only read through GridLcl's const interface),
// so feasibility probes run concurrently on engine pool threads. A
// FeasibilityProber wraps one live sat::Solver and follows its contract:
// single-threaded per instance, distinct instances fully independent (the
// oracle constructs one per classification task).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "grid/torus2d.hpp"
#include "lcl/grid_lcl.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace lclgrid {

struct GlobalSolveResult {
  bool feasible = false;
  /// False when the conflict budget ran out before the solver decided;
  /// `feasible` is then meaningless.
  bool decided = true;
  std::vector<int> labels;          // set iff feasible
  std::int64_t satConflicts = 0;
};

/// Encodes the LCL's node-label CSP on the torus into `solver` and returns
/// the one-hot label variable of each node (lcl/lcl_cnf.hpp). Edge-
/// decomposable problems get pair clauses on every (v, E(v)) and (v, N(v))
/// edge, the rest blocking clauses on every node's cross. Clauses are
/// unconditional, or guarded by `group` when one is given.
std::vector<sat::DomainVar> encodeTorusCsp(const Torus2D& torus,
                                           const GridLcl& lcl,
                                           sat::Solver& solver,
                                           sat::ClauseGroup* group = nullptr);

/// Decides feasibility of the LCL on the n x n torus and returns a solution
/// if one exists. `seed` perturbs the search (a random node is forced to
/// each label in random order and the first satisfiable branch wins) so
/// different seeds can produce different solutions; seed 0 keeps the
/// canonical deterministic search. The seeded branch enumeration runs on
/// one live solver via assumptions -- the CSP is encoded once and learnt
/// clauses carry across branches -- instead of re-encoding per branch. A
/// satisfiable branch decides the instance even when an earlier branch ran
/// out of budget; Unsat is decided only if no branch did.
GlobalSolveResult solveGlobally(const Torus2D& torus, const GridLcl& lcl,
                                std::uint64_t seed = 0,
                                std::int64_t conflictBudget = -1);

/// The incremental feasibility prober behind the oracle's probe ladder: one
/// live solver holding the torus CSP of every probed size as an
/// assumption-gated clause group (sat/cnf.hpp ClauseGroup). Each size is
/// encoded once; probing it solves under its activation literal, and
/// re-probing (e.g. with a larger conflict budget after an Unknown) resumes
/// from everything the solver already learnt about that size.
class FeasibilityProber {
 public:
  /// Keeps a reference to `lcl`; the problem must outlive the prober.
  explicit FeasibilityProber(const GridLcl& lcl);
  explicit FeasibilityProber(GridLcl&&) = delete;

  /// Decides feasibility on the n x n torus; semantics (including budget
  /// handling) match solveGlobally(torus, lcl, 0, conflictBudget), with
  /// satConflicts counting only the conflicts this call added.
  GlobalSolveResult probe(int n, std::int64_t conflictBudget = -1);

  const sat::Solver& solver() const { return solver_; }

 private:
  struct SizeBlock {
    int n = 0;
    sat::ClauseGroup group;
    std::vector<sat::DomainVar> label;
  };
  SizeBlock& blockFor(int n);

  const GridLcl& lcl_;
  sat::Solver solver_;
  std::vector<SizeBlock> blocks_;
};

/// The round cost of the brute-force LOCAL algorithm on an n x n torus:
/// gathering the whole (toroidal) graph takes diameter = n rounds
/// (2 * floor(n/2) hops in the worst case), after which the computation is
/// local. Reported by benches next to synthesized algorithms' rounds.
int bruteForceRounds(int n);

}  // namespace lclgrid
