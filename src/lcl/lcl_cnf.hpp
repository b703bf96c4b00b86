// The one LCL -> CNF clause generator. Every SAT reduction in the repo goes
// through it: the torus CSP behind solveGlobally and FeasibilityProber
// (lcl/global_solver.hpp) and the Section 7 tile CSP of the synthesiser
// (synthesis/synthesizer.hpp). A caller allocates one one-hot label
// variable per node (or tile) with oneHotLabels, then lists which variables
// constrain each other and hands the lists to encodeLcl:
//  * pairs -- (a, b) with a west of b (horizontal) or a south of b
//    (vertical). Each pair gets one binary clause per label pair that the
//    problem's horizontalOk / verticalOk projection forbids. This is exact
//    only for edge-decomposable problems, the callers' job to check.
//  * crosses -- a variable and its four neighbours. Each cross gets one
//    blocking clause per forbidden constraint-table row, with literals
//    only for the positions the problem reads (DepBit mask). Problems too
//    large to compile fall back to the sigma^5 predicate enumeration.
// Every clause goes through the caller's `add`, so the same instance can be
// emitted unconditionally (sat::Solver::addClause) or guarded by an
// activation literal (sat::ClauseGroup::addClause). Clause order is fixed:
// horizontal pairs, vertical pairs, then crosses, each in list order.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "lcl/grid_lcl.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/telemetry.hpp"

namespace lclgrid {

/// A binary constraint between label variables a and b: a west of b
/// (horizontal) or a south of b (vertical).
struct VarPair {
  int a = 0;
  int b = 0;
  bool operator==(const VarPair&) const = default;
};

/// A 5-ary constraint: the label variables of a node and its four
/// neighbours.
struct VarCross {
  int centre = 0;
  int north = 0;
  int east = 0;
  int south = 0;
  int west = 0;
  bool operator==(const VarCross&) const = default;
};

/// `count` one-hot label variables over [0, sigma), with each one's
/// exactly-one clauses (one at-least-one clause, then the pairwise
/// at-most-one clauses) routed through `add`.
template <typename AddClause>
std::vector<sat::DomainVar> oneHotLabels(sat::Solver& solver, int count,
                                         int sigma, AddClause&& add) {
  std::vector<sat::DomainVar> labels;
  labels.reserve(static_cast<std::size_t>(count));
  std::vector<int> atLeastOne;
  for (int i = 0; i < count; ++i) {
    sat::DomainVar dv(solver, sigma);
    atLeastOne.clear();
    for (int c = 0; c < sigma; ++c) atLeastOne.push_back(dv.is(c));
    add(atLeastOne);
    for (int a = 0; a < sigma; ++a) {
      for (int b = a + 1; b < sigma; ++b) add({dv.isNot(a), dv.isNot(b)});
    }
    labels.push_back(dv);
  }
  return labels;
}

/// Emits the problem's clauses over `labels` for every given pair and cross
/// through `add` (see the header comment) and returns how many it emitted.
/// Traced as one `sat/encode` span.
template <typename AddClause>
long long encodeLcl(const GridLcl& lcl, std::span<const VarPair> horizontal,
                    std::span<const VarPair> vertical,
                    std::span<const VarCross> crosses,
                    const std::vector<sat::DomainVar>& labels,
                    AddClause&& add) {
  telemetry::ScopedSpan span("sat/encode");
  const int sigma = lcl.sigma();
  auto label = [&](int var) -> const sat::DomainVar& {
    return labels[static_cast<std::size_t>(var)];
  };
  long long clauses = 0;

  auto encodePairs = [&](std::span<const VarPair> pairs, auto&& ok) {
    if (pairs.empty()) return;
    std::vector<std::pair<int, int>> forbidden;
    for (int a = 0; a < sigma; ++a) {
      for (int b = 0; b < sigma; ++b) {
        if (!ok(a, b)) forbidden.emplace_back(a, b);
      }
    }
    for (const VarPair& pair : pairs) {
      for (const auto& [a, b] : forbidden) {
        add({label(pair.a).isNot(a), label(pair.b).isNot(b)});
      }
    }
    clauses += static_cast<long long>(pairs.size() * forbidden.size());
  };
  encodePairs(horizontal, [&](int a, int b) { return lcl.horizontalOk(a, b); });
  encodePairs(vertical, [&](int a, int b) { return lcl.verticalOk(a, b); });

  const std::uint8_t deps = lcl.deps();
  const bool useN = deps & kDepN, useE = deps & kDepE;
  const bool useS = deps & kDepS, useW = deps & kDepW;
  std::vector<int> clause;
  for (const VarCross& cross : crosses) {
    auto blockTuple = [&](int c, int n, int e, int s, int w) {
      clause.clear();
      clause.push_back(label(cross.centre).isNot(c));
      if (useN) clause.push_back(label(cross.north).isNot(n));
      if (useE) clause.push_back(label(cross.east).isNot(e));
      if (useS) clause.push_back(label(cross.south).isNot(s));
      if (useW) clause.push_back(label(cross.west).isNot(w));
      add(clause);
      ++clauses;
    };
    if (lcl.hasTable()) {
      lcl.table().forEachForbidden(blockTuple);
      continue;
    }
    for (int c = 0; c < sigma; ++c) {
      for (int n = 0; n < (useN ? sigma : 1); ++n) {
        for (int e = 0; e < (useE ? sigma : 1); ++e) {
          for (int s = 0; s < (useS ? sigma : 1); ++s) {
            for (int w = 0; w < (useW ? sigma : 1); ++w) {
              if (!lcl.allows(c, n, e, s, w)) blockTuple(c, n, e, s, w);
            }
          }
        }
      }
    }
  }
  return clauses;
}

}  // namespace lclgrid
