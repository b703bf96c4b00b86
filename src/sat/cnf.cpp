#include "sat/cnf.hpp"

#include <stdexcept>

namespace lclgrid::sat {

DomainVar::DomainVar(Solver& solver, int domain) {
  if (domain < 1) throw std::invalid_argument("DomainVar: empty domain");
  vars_.reserve(static_cast<std::size_t>(domain));
  for (int v = 0; v < domain; ++v) vars_.push_back(solver.newVar());
}

int DomainVar::decode(const Solver& solver) const {
  for (int v = 0; v < domain(); ++v) {
    if (solver.modelValue(vars_[v])) return v;
  }
  throw std::logic_error("DomainVar::decode: no value set in model");
}

ClauseGroup::ClauseGroup(Solver& solver) : guard_(solver.newVar()) {}

bool ClauseGroup::addClause(Solver& solver, std::vector<int> clause) {
  if (!open()) throw std::logic_error("ClauseGroup: add to a closed group");
  clause.push_back(-guard_);
  return solver.addClause(clause);
}

void ClauseGroup::retire(Solver& solver) {
  if (!open()) return;
  solver.addClause({-guard_});
  closed_ = true;
  // The unit guard satisfies (and thereby disables) every clause of the
  // group, including learnt clauses that mention the guard: purge them now
  // rather than carrying dead clauses until learnt-DB reduction. Long-lived
  // ladder solvers retire one group per rung, so this keeps the database
  // proportional to the *active* encoding -- and once the dead fraction
  // crosses the GC threshold, the compaction inside also collects the
  // arena, so the memory comes back too (docs/sat.md).
  solver.compactDatabase();
}

void ClauseGroup::commit(Solver& solver) {
  if (!open()) return;
  solver.addClause({guard_});
  closed_ = true;
}

}  // namespace lclgrid::sat
