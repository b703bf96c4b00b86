#include "synthesis/synthesizer.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "lcl/lcl_cnf.hpp"
#include "support/telemetry.hpp"
#include "support/timing.hpp"
#include "tiles/enumerator.hpp"

namespace lclgrid::synthesis {

std::vector<tiles::TileShape> candidateShapes(const GridLcl& lcl, int k,
                                              bool wider) {
  // Overlap windows must stay within 63 bits: for edge-decomposable
  // problems the largest is (h+1) x w or h x (w+1); otherwise (h+2) x (w+2).
  const bool decomposable = lcl.isEdgeDecomposable();
  auto encodable = [&](const tiles::TileShape& s) {
    if (s.cells() > 63) return false;
    if (decomposable) {
      return (s.height + 1) * s.width <= 63 && s.height * (s.width + 1) <= 63;
    }
    return (s.height + 2) * (s.width + 2) <= 63;
  };
  std::vector<tiles::TileShape> shapes;
  auto add = [&](int h, int w) {
    if (h < 1 || w < 1) return;
    tiles::TileShape s{h, w};
    for (const auto& existing : shapes) {
      if (existing == s) return;
    }
    if (encodable(s)) shapes.push_back(s);
  };
  // The paper's choices first: 3x2 for k=1, 7x5 for k=3 follow the pattern
  // (2k+1) x (2k-1) with a wider fallback.
  add(2 * k + 1, std::max(2, 2 * k - 1));
  if (wider) {
    add(2 * k + 1, 2 * k);
    add(2 * k + 1, 2 * k + 1);
    add(2 * k + 3, 2 * k + 1);
  }
  return shapes;
}

// The fresh attempt: encode (k, shape) into a throwaway solver with
// unconditional clauses and solve. IncrementalSynthesizer emits the same
// clauses through its activation-gated ClauseGroup.
SynthesisAttempt synthesizeForShape(const GridLcl& lcl, int k,
                                    tiles::TileShape shape,
                                    std::int64_t satConflictBudget) {
  sat::Solver solver;
  auto add = [&](const std::vector<int>& clause) { solver.addClause(clause); };
  SynthesisAttempt attempt;
  attempt.k = k;
  attempt.shape = shape;
  auto startTime = std::chrono::steady_clock::now();
  auto finish = [&]() {
    attempt.seconds = support::secondsSince(startTime);
    return attempt;
  };

  tiles::TileSet tileSet = tiles::enumerateTiles(k, shape.height, shape.width);
  attempt.tileCount = tileSet.size();

  ConstraintSystem constraints;
  try {
    constraints = buildConstraints(lcl, tileSet);
  } catch (const std::invalid_argument&) {
    attempt.failureReason = "window too large to encode";
    return finish();
  }

  auto label = oneHotLabels(solver, tileSet.size(), lcl.sigma(), add);
  attempt.clauseCount =
      encodeLcl(lcl, constraints.horizontal, constraints.vertical,
                constraints.crosses, label, add);

  sat::Result outcome = solver.solve(satConflictBudget);
  attempt.satConflicts = solver.conflicts();
  if (outcome == sat::Result::Unknown) {
    attempt.failureReason = "sat budget exhausted";
    return finish();
  }
  if (outcome == sat::Result::Unsat) {
    attempt.failureReason = "unsat";
    return finish();
  }

  SynthesizedRule rule;
  rule.k = k;
  rule.shape = shape;
  rule.labelOf.resize(static_cast<std::size_t>(tileSet.size()));
  for (int t = 0; t < tileSet.size(); ++t) {
    rule.labelOf[static_cast<std::size_t>(t)] =
        label[static_cast<std::size_t>(t)].decode(solver);
  }
  rule.tileSet = std::move(tileSet);
  attempt.success = true;
  attempt.rule = std::move(rule);
  return finish();
}

IncrementalSynthesizer::IncrementalSynthesizer(const GridLcl& lcl)
    : lcl_(lcl) {}

SynthesisAttempt IncrementalSynthesizer::attemptShape(
    int k, tiles::TileShape shape, std::int64_t satConflictBudget) {
  auto startTime = std::chrono::steady_clock::now();
  // Retire the previous instance: one unit clause kills its whole group,
  // including every learnt clause that mentioned its activation literal.
  if (activeGroup_.open()) activeGroup_.retire(solver_);
  activeGroup_ = sat::ClauseGroup(solver_);
  active_ = ActiveInstance{};
  active_.k = k;
  active_.shape = shape;
  active_.tileSet = tiles::enumerateTiles(k, shape.height, shape.width);

  ConstraintSystem constraints;
  try {
    constraints = buildConstraints(lcl_, active_.tileSet);
  } catch (const std::invalid_argument&) {
    SynthesisAttempt attempt;
    attempt.k = k;
    attempt.shape = shape;
    attempt.tileCount = active_.tileSet.size();
    attempt.failureReason = "window too large to encode";
    attempt.seconds = support::secondsSince(startTime);
    return attempt;
  }

  auto add = [&](const std::vector<int>& clause) {
    activeGroup_.addClause(solver_, clause);
  };
  active_.label =
      oneHotLabels(solver_, active_.tileSet.size(), lcl_.sigma(), add);
  active_.clauseCount =
      encodeLcl(lcl_, constraints.horizontal, constraints.vertical,
                constraints.crosses, active_.label, add);
  active_.encodable = true;
  return solveActive(satConflictBudget, startTime);
}

SynthesisAttempt IncrementalSynthesizer::resolveActive(
    std::int64_t satConflictBudget) {
  if (!active_.encodable) {
    throw std::logic_error(
        "IncrementalSynthesizer::resolveActive: no encoded instance");
  }
  return solveActive(satConflictBudget, std::chrono::steady_clock::now());
}

SynthesisAttempt IncrementalSynthesizer::solveActive(
    std::int64_t satConflictBudget,
    std::chrono::steady_clock::time_point startTime) {
  SynthesisAttempt attempt;
  attempt.k = active_.k;
  attempt.shape = active_.shape;
  attempt.tileCount = active_.tileSet.size();
  attempt.clauseCount = active_.clauseCount;
  auto finish = [&]() {
    attempt.seconds = support::secondsSince(startTime);
    return attempt;
  };

  const std::int64_t conflictsBefore = solver_.conflicts();
  sat::Result outcome =
      solver_.solve({activeGroup_.activation()}, satConflictBudget);
  attempt.satConflicts = solver_.conflicts() - conflictsBefore;
  if (outcome == sat::Result::Unknown) {
    attempt.failureReason = "sat budget exhausted";
    return finish();
  }
  if (outcome == sat::Result::Unsat) {
    attempt.failureReason = "unsat";
    return finish();
  }

  SynthesizedRule rule;
  rule.k = active_.k;
  rule.shape = active_.shape;
  rule.labelOf.resize(static_cast<std::size_t>(active_.tileSet.size()));
  for (int t = 0; t < active_.tileSet.size(); ++t) {
    rule.labelOf[static_cast<std::size_t>(t)] =
        active_.label[static_cast<std::size_t>(t)].decode(solver_);
  }
  rule.tileSet = active_.tileSet;  // copy: the instance stays live
  attempt.success = true;
  attempt.rule = std::move(rule);
  return finish();
}

SynthesisResult IncrementalSynthesizer::run(const SynthesisOptions& options) {
  static const telemetry::Counter attemptCounter =
      telemetry::counter("synth.attempts");
  static const telemetry::Counter successCounter =
      telemetry::counter("synth.successes");
  SynthesisResult result;
  for (int k = 1; k <= options.maxK; ++k) {
    // One span per ladder rung: the Chrome trace shows the k-climb of each
    // synthesis as a run of sibling spans under the classify span.
    telemetry::ScopedSpan rungSpan("synth/k=" + std::to_string(k));
    for (const tiles::TileShape& shape :
         candidateShapes(lcl_, k, options.tryWiderShapes)) {
      attemptCounter.increment();
      SynthesisAttempt attempt =
          attemptShape(k, shape, options.satConflictBudget);
      const bool success = attempt.success;
      if (success) {
        successCounter.increment();
        result.rule = std::move(attempt.rule);
        attempt.rule.reset();
      }
      result.attempts.push_back(std::move(attempt));
      if (success) {
        result.success = true;
        return result;
      }
    }
  }
  return result;
}

SynthesisResult synthesize(const GridLcl& lcl, const SynthesisOptions& options) {
  IncrementalSynthesizer synthesizer(lcl);
  return synthesizer.run(options);
}

}  // namespace lclgrid::synthesis
