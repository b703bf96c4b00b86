#include "lcl/global_solver.hpp"

#include "lcl/lcl_cnf.hpp"
#include "support/numeric.hpp"

namespace lclgrid {

namespace {

std::vector<int> decodeModel(int nodeCount,
                             const std::vector<sat::DomainVar>& label,
                             const sat::Solver& solver) {
  std::vector<int> labels(static_cast<std::size_t>(nodeCount));
  for (int v = 0; v < nodeCount; ++v) {
    labels[static_cast<std::size_t>(v)] =
        label[static_cast<std::size_t>(v)].decode(solver);
  }
  return labels;
}

}  // namespace

std::vector<sat::DomainVar> encodeTorusCsp(const Torus2D& torus,
                                           const GridLcl& lcl,
                                           sat::Solver& solver,
                                           sat::ClauseGroup* group) {
  auto add = [&](const std::vector<int>& clause) {
    if (group != nullptr) {
      group->addClause(solver, clause);
    } else {
      solver.addClause(clause);
    }
  };
  auto label = oneHotLabels(solver, torus.size(), lcl.sigma(), add);
  // An edge-decomposable relation holds at every node iff its pair
  // projections hold on every edge, and each edge is some node's (v, E(v))
  // or (v, N(v)) -- also on n = 1 and 2, where E(v) is v or W(v).
  std::vector<VarPair> horizontal, vertical;
  std::vector<VarCross> crosses;
  const bool decomposable = lcl.isEdgeDecomposable();
  for (int v = 0; v < torus.size(); ++v) {
    if (decomposable) {
      horizontal.push_back({v, torus.step(v, Dir::East)});
      vertical.push_back({v, torus.step(v, Dir::North)});
    } else {
      crosses.push_back({v, torus.step(v, Dir::North), torus.step(v, Dir::East),
                         torus.step(v, Dir::South), torus.step(v, Dir::West)});
    }
  }
  encodeLcl(lcl, horizontal, vertical, crosses, label, add);
  return label;
}

GlobalSolveResult solveGlobally(const Torus2D& torus, const GridLcl& lcl,
                                std::uint64_t seed,
                                std::int64_t conflictBudget) {
  GlobalSolveResult result;

  sat::Solver solver;
  auto label = encodeTorusCsp(torus, lcl, solver);

  if (seed == 0) {
    auto outcome = solver.solve(conflictBudget);
    if (outcome == sat::Result::Sat) {
      result.feasible = true;
      result.labels = decodeModel(torus.size(), label, solver);
    }
    result.decided = outcome != sat::Result::Unknown;
    result.satConflicts = solver.conflicts();
    return result;
  }

  // Seeded mode: force a random node to each label in random order and take
  // the first satisfiable branch. The union of branches covers the whole
  // space, so feasibility is unchanged, but different seeds surface
  // different solutions (used by the Section 9 invariant experiments).
  // Branches run as assumptions on the one live solver: the CSP is encoded
  // once and every branch inherits what the earlier branches learnt.
  SplitMix64 rng(seed);
  const int forcedNode =
      static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(torus.size())));
  std::vector<int> order(static_cast<std::size_t>(lcl.sigma()));
  for (int i = 0; i < lcl.sigma(); ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = lcl.sigma() - 1; i > 0; --i) {
    int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }

  for (int candidate : order) {
    auto outcome = solver.solve(
        {label[static_cast<std::size_t>(forcedNode)].is(candidate)},
        conflictBudget);
    if (outcome == sat::Result::Unknown) result.decided = false;
    if (outcome == sat::Result::Sat) {
      // A model decides feasibility whatever earlier branches left open.
      result.decided = true;
      result.feasible = true;
      result.labels = decodeModel(torus.size(), label, solver);
      break;
    }
  }
  result.satConflicts = solver.conflicts();
  return result;
}

FeasibilityProber::FeasibilityProber(const GridLcl& lcl) : lcl_(lcl) {}

FeasibilityProber::SizeBlock& FeasibilityProber::blockFor(int n) {
  for (SizeBlock& block : blocks_) {
    if (block.n == n) return block;
  }
  SizeBlock block;
  block.n = n;
  block.group = sat::ClauseGroup(solver_);
  block.label = encodeTorusCsp(Torus2D(n), lcl_, solver_, &block.group);
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

GlobalSolveResult FeasibilityProber::probe(int n,
                                           std::int64_t conflictBudget) {
  SizeBlock& block = blockFor(n);
  GlobalSolveResult result;
  const std::int64_t conflictsBefore = solver_.conflicts();
  auto outcome = solver_.solve({block.group.activation()}, conflictBudget);
  result.satConflicts = solver_.conflicts() - conflictsBefore;
  result.decided = outcome != sat::Result::Unknown;
  if (outcome == sat::Result::Sat) {
    result.feasible = true;
    result.labels = decodeModel(n * n, block.label, solver_);
  }
  return result;
}

int bruteForceRounds(int n) { return 2 * (n / 2); }

}  // namespace lclgrid
