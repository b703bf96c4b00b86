// Small CNF-encoding helpers on top of the Solver: variable blocks for
// finite-domain variables (their exactly-one clauses come from
// lcl/lcl_cnf.hpp's oneHotLabels) and activation-gated clause groups.
#pragma once

#include <vector>

#include "sat/solver.hpp"

namespace lclgrid::sat {

/// A block of `domain` Boolean variables representing one finite-domain
/// variable with values {0, ..., domain-1} (one-hot encoding).
class DomainVar {
 public:
  DomainVar() = default;
  DomainVar(Solver& solver, int domain);

  int domain() const { return static_cast<int>(vars_.size()); }
  /// DIMACS literal asserting "this variable takes value v".
  int is(int v) const { return vars_[v]; }
  /// DIMACS literal asserting "this variable does not take value v".
  int isNot(int v) const { return -vars_[v]; }
  /// Decoded value from the solver model (requires a Sat result).
  int decode(const Solver& solver) const;

 private:
  std::vector<int> vars_;
};

/// A push/pop-style activation-literal layer: clauses added through a group
/// carry the negated guard literal, so they only constrain solves that pass
/// the group's activation() literal in their assumption set. This turns the
/// incremental solver's assumptions into scoped clause sets:
///
///   ClauseGroup block(solver);              // "push"
///   block.addClause(solver, {...});         // clauses live in the scope
///   solver.solve({block.activation()}, -1); // solve with the scope active
///   block.retire(solver);                   // "pop": clauses go dead
///
/// retire() pins the guard false, permanently satisfying (and thereby
/// disabling) every clause of the group; commit() pins it true, promoting
/// the group to unconditional clauses. Both are one unit clause, which is
/// what keeps learnt clauses sound across the ladder: learnt clauses
/// derived while a group was active mention its guard and die with it.
/// retire() additionally runs Solver::compactDatabase(), so a retired
/// group's clauses (and the learnt clauses guarded by it) are purged
/// immediately instead of lingering until learnt-DB reduction -- the
/// clause database of a long-lived ladder solver stays proportional to
/// the active rung. Purging marks clauses dead in the solver's arena
/// clause store (docs/sat.md); once enough of the arena is dead, the
/// same call triggers the mark-and-compact GC that actually returns the
/// memory, so retiring rung after rung also keeps the arena itself from
/// growing without bound.
class ClauseGroup {
 public:
  ClauseGroup() = default;
  /// Allocates the guard variable in `solver`; the group starts active
  /// (usable via assumption) and open (not retired or committed).
  explicit ClauseGroup(Solver& solver);

  /// DIMACS literal to include in solve() assumptions to activate the
  /// group's clauses. Zero for a default-constructed (null) group.
  int activation() const { return guard_; }
  bool open() const { return guard_ != 0 && !closed_; }

  /// Adds `clause \/ !guard` -- active only under activation().
  bool addClause(Solver& solver, std::vector<int> clause);
  /// Permanently disables the group (unit !guard).
  void retire(Solver& solver);
  /// Permanently enables the group (unit guard).
  void commit(Solver& solver);

 private:
  int guard_ = 0;
  bool closed_ = false;
};

}  // namespace lclgrid::sat
