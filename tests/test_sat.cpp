#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lcl/lcl_cnf.hpp"
#include "sat/cnf.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "support/numeric.hpp"

namespace lclgrid::sat {
namespace {

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.solve(), Result::Sat);
}

TEST(SatSolver, SingleUnit) {
  Solver solver;
  int x = solver.newVar();
  solver.addClause({x});
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_TRUE(solver.modelValue(x));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  Solver solver;
  int x = solver.newVar();
  solver.addClause({x});
  solver.addClause({-x});
  EXPECT_EQ(solver.solve(), Result::Unsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver solver;
  solver.newVar();
  solver.addClause({});
  EXPECT_EQ(solver.solve(), Result::Unsat);
}

TEST(SatSolver, TautologiesAreIgnored) {
  Solver solver;
  int x = solver.newVar();
  solver.addClause({x, -x});
  EXPECT_EQ(solver.solve(), Result::Sat);
}

TEST(SatSolver, SimpleImplicationChain) {
  Solver solver;
  int a = solver.newVar(), b = solver.newVar(), c = solver.newVar();
  solver.addClause({a});
  solver.addClause({-a, b});
  solver.addClause({-b, c});
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_TRUE(solver.modelValue(a));
  EXPECT_TRUE(solver.modelValue(b));
  EXPECT_TRUE(solver.modelValue(c));
}

TEST(SatSolver, XorChainForcesBacktracking) {
  // x1 xor x2 xor ... xor x8 = 1 encoded clause-wise with auxiliary parity
  // variables; satisfiable, requires search.
  Solver solver;
  const int n = 8;
  std::vector<int> x(n);
  for (int i = 0; i < n; ++i) x[i] = solver.newVar();
  // parity[i] = x0 xor ... xor xi
  std::vector<int> parity(n);
  parity[0] = x[0];
  for (int i = 1; i < n; ++i) {
    int p = solver.newVar();
    // p <-> parity[i-1] xor x[i]
    solver.addClause({-p, parity[i - 1], x[i]});
    solver.addClause({-p, -parity[i - 1], -x[i]});
    solver.addClause({p, -parity[i - 1], x[i]});
    solver.addClause({p, parity[i - 1], -x[i]});
    parity[i] = p;
  }
  solver.addClause({parity[n - 1]});
  ASSERT_EQ(solver.solve(), Result::Sat);
  bool total = false;
  for (int i = 0; i < n; ++i) total ^= solver.modelValue(x[i]);
  EXPECT_TRUE(total);
}

// Pigeonhole principle: n+1 pigeons into n holes, classic hard UNSAT family.
void buildPigeonhole(Solver& solver, int holes) {
  int pigeons = holes + 1;
  std::vector<std::vector<int>> var(
      static_cast<std::size_t>(pigeons),
      std::vector<int>(static_cast<std::size_t>(holes)));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      var[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)] =
          solver.newVar();
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> clause;
    for (int h = 0; h < holes; ++h) {
      clause.push_back(var[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]);
    }
    solver.addClause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.addClause(
            {-var[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
             -var[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]});
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver solver;
    buildPigeonhole(solver, holes);
    EXPECT_EQ(solver.solve(), Result::Unsat) << "holes=" << holes;
  }
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  Solver solver;
  buildPigeonhole(solver, 8);
  EXPECT_EQ(solver.solve(2), Result::Unknown);
}

TEST(SatSolver, UnknownLeavesSolverUsable) {
  // The documented budget-exhaustion contract: after Unknown the solver is
  // back at level 0 with every clause (original and learnt) retained, and
  // any later call -- newVar, addClause, re-solve with a bigger budget --
  // behaves as if the budgeted call had never been interrupted.
  Solver solver;
  buildPigeonhole(solver, 6);
  ASSERT_EQ(solver.solve(5), Result::Unknown);
  const int varsAfterUnknown = solver.numVars();
  const std::int64_t learntAfterUnknown = solver.learntClauses();
  EXPECT_GT(solver.conflicts(), 0);
  EXPECT_TRUE(solver.ok());  // not proven unsat yet

  // Re-solving resumes from the learnt state and still proves Unsat.
  EXPECT_EQ(solver.solve(), Result::Unsat);
  EXPECT_EQ(solver.numVars(), varsAfterUnknown);
  EXPECT_GE(solver.learntClauses(), learntAfterUnknown);
  EXPECT_TRUE(solver.conflictCore().empty());  // unsat without assumptions
}

TEST(SatSolver, UnknownThenGrowFormula) {
  // Interrupt a satisfiable search, then extend the formula; the extension
  // must constrain the eventual model exactly as on a fresh solver.
  Solver solver;
  const int n = 14;
  std::vector<int> x(static_cast<std::size_t>(n));
  for (int& v : x) v = solver.newVar();
  lclgrid::SplitMix64 rng(99);
  for (int c = 0; c < 58; ++c) {
    std::vector<int> clause;
    for (int j = 0; j < 3; ++j) {
      int var = static_cast<int>(rng.nextBelow(n)) + 1;
      clause.push_back(rng.nextBelow(2) ? var : -var);
    }
    solver.addClause(clause);
  }
  (void)solver.solve(1);  // probably Unknown; any result leaves level 0
  int y = solver.newVar();
  solver.addClause({y});
  solver.addClause({-y, x[0]});
  Result result = solver.solve();
  if (result == Result::Sat) {
    EXPECT_TRUE(solver.modelValue(y));
    EXPECT_TRUE(solver.modelValue(x[0]));
  }
}

TEST(SatSolver, BudgetedStagesAgreeWithSingleSolve) {
  // Budget-staged deepening (the family-sweep pattern): repeatedly re-solve
  // with a growing budget until decided; the verdict must match a fresh
  // unbudgeted solver on the same formula.
  for (int holes = 4; holes <= 6; ++holes) {
    Solver staged;
    buildPigeonhole(staged, holes);
    Result result = Result::Unknown;
    std::int64_t budget = 4;
    while (result == Result::Unknown) {
      result = staged.solve(budget);
      budget *= 2;
    }
    EXPECT_EQ(result, Result::Unsat) << "holes=" << holes;
  }
}

TEST(SatSolver, SolveIsRepeatableAfterSat) {
  // A Sat call unwinds its trail; the solver accepts further clauses and
  // the next model honours them.
  Solver solver;
  int a = solver.newVar(), b = solver.newVar();
  solver.addClause({a, b});
  ASSERT_EQ(solver.solve(), Result::Sat);
  ASSERT_EQ(solver.solve(), Result::Sat);  // idempotent
  solver.addClause({-a});
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_FALSE(solver.modelValue(a));
  EXPECT_TRUE(solver.modelValue(b));
}

TEST(SatSolver, ReserveVarsCreatesMissingVariables) {
  Solver solver;
  solver.newVar();
  solver.reserveVars(5);
  EXPECT_EQ(solver.numVars(), 5);
  solver.reserveVars(3);  // no-op when already larger
  EXPECT_EQ(solver.numVars(), 5);
  solver.addClause({5});
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_TRUE(solver.modelValue(5));
}

// --- assumption-based solving --------------------------------------------

TEST(SatAssumptions, SatUnderAssumptionsBindsThem) {
  Solver solver;
  int a = solver.newVar(), b = solver.newVar(), c = solver.newVar();
  solver.addClause({-a, b});
  solver.addClause({-b, c});
  ASSERT_EQ(solver.solve({a}, -1), Result::Sat);
  EXPECT_TRUE(solver.modelValue(a));
  EXPECT_TRUE(solver.modelValue(b));
  EXPECT_TRUE(solver.modelValue(c));
  // The assumption does not persist: the formula alone allows !a.
  ASSERT_EQ(solver.solve({-a}, -1), Result::Sat);
  EXPECT_FALSE(solver.modelValue(a));
}

TEST(SatAssumptions, UnsatUnderAssumptionsKeepsSolverOk) {
  Solver solver;
  int a = solver.newVar(), b = solver.newVar();
  solver.addClause({-a, b});
  ASSERT_EQ(solver.solve({a, -b}, -1), Result::Unsat);
  EXPECT_TRUE(solver.ok());
  // The core names a guilty subset of the assumptions.
  for (int lit : solver.conflictCore()) {
    EXPECT_TRUE(lit == a || lit == -b) << lit;
  }
  EXPECT_FALSE(solver.conflictCore().empty());
  // The same solver solves satisfiable assumption sets afterwards.
  ASSERT_EQ(solver.solve({a, b}, -1), Result::Sat);
  ASSERT_EQ(solver.solve({-a, -b}, -1), Result::Sat);
}

TEST(SatAssumptions, ContradictoryAssumptionsGiveBothInCore) {
  Solver solver;
  int a = solver.newVar();
  solver.newVar();
  ASSERT_EQ(solver.solve({a, -a}, -1), Result::Unsat);
  std::vector<int> core = solver.conflictCore();
  std::sort(core.begin(), core.end());
  EXPECT_EQ(core, (std::vector<int>{-a, a}));
  EXPECT_TRUE(solver.ok());
}

TEST(SatAssumptions, FormulaUnsatGivesEmptyCore) {
  Solver solver;
  int a = solver.newVar();
  solver.addClause({a});
  solver.addClause({-a});
  EXPECT_EQ(solver.solve({a}, -1), Result::Unsat);
  EXPECT_TRUE(solver.conflictCore().empty());
  EXPECT_FALSE(solver.ok());
}

TEST(SatAssumptions, AssumptionFalsifiedAtLevelZero) {
  Solver solver;
  int a = solver.newVar();
  solver.addClause({-a});  // unit: a is false at level 0
  ASSERT_EQ(solver.solve({a}, -1), Result::Unsat);
  EXPECT_EQ(solver.conflictCore(), std::vector<int>{a});
  EXPECT_TRUE(solver.ok());
}

TEST(SatAssumptions, LearntClausesCarryAcrossCalls) {
  // Solving the same hard branch twice must not re-derive everything: the
  // second call starts from the first call's learnt clauses.
  Solver solver;
  buildPigeonhole(solver, 6);
  int toggle = solver.newVar();  // fresh var so assumptions are non-trivial
  ASSERT_EQ(solver.solve({toggle}, -1), Result::Unsat);
  // The pigeonhole core is independent of the toggle assumption, so the
  // final conflict is formula-level.
  EXPECT_FALSE(solver.ok());
}

TEST(SatAssumptions, GroupSwitchingSelectsSubformula) {
  // Two contradictory "instances" coexist in one solver via ClauseGroups;
  // flipping the activation assumption flips the verdict.
  Solver solver;
  int x = solver.newVar();
  ClauseGroup forcesTrue(solver);
  forcesTrue.addClause(solver, {x});
  ClauseGroup forcesFalse(solver);
  forcesFalse.addClause(solver, {-x});

  ASSERT_EQ(solver.solve({forcesTrue.activation()}, -1), Result::Sat);
  EXPECT_TRUE(solver.modelValue(x));
  ASSERT_EQ(solver.solve({forcesFalse.activation()}, -1), Result::Sat);
  EXPECT_FALSE(solver.modelValue(x));
  // Both at once: unsat, and the core names only activation literals.
  ASSERT_EQ(
      solver.solve({forcesTrue.activation(), forcesFalse.activation()}, -1),
      Result::Unsat);
  for (int lit : solver.conflictCore()) {
    EXPECT_TRUE(lit == forcesTrue.activation() ||
                lit == forcesFalse.activation());
  }
  EXPECT_TRUE(solver.ok());
}

TEST(SatAssumptions, RetiredGroupStopsConstraining) {
  Solver solver;
  int x = solver.newVar();
  ClauseGroup group(solver);
  group.addClause(solver, {x});
  group.retire(solver);
  EXPECT_FALSE(group.open());
  // x is free again even when the stale activation literal is assumed --
  // retirement pinned the guard false, so that assumption is now unsat,
  // with the stale activation as the core.
  ASSERT_EQ(solver.solve({-x}, -1), Result::Sat);
  EXPECT_FALSE(solver.modelValue(x));
  ASSERT_EQ(solver.solve({group.activation()}, -1), Result::Unsat);
  EXPECT_EQ(solver.conflictCore(), std::vector<int>{group.activation()});
}

TEST(SatAssumptions, RetireCompactsTheClauseDatabase) {
  // A retired group's clauses must leave the live database immediately
  // (ROADMAP PR 3 headroom item), not linger until learnt-DB reduction.
  Solver solver;
  const int k = 8;
  std::vector<int> vars;
  for (int i = 0; i < k; ++i) vars.push_back(solver.newVar());
  // A persistent backbone that must survive compaction.
  solver.addClause({vars[0], vars[1]});
  const std::size_t backboneClauses = solver.liveClauses();

  ClauseGroup group(solver);
  for (int i = 0; i + 1 < k; ++i) {
    group.addClause(solver, {vars[i], vars[i + 1]});
    group.addClause(solver, {-vars[i], -vars[i + 1]});
  }
  const std::size_t withGroup = solver.liveClauses();
  const std::size_t withGroupLiterals = solver.liveLiterals();
  ASSERT_GT(withGroup, backboneClauses);

  ASSERT_EQ(solver.solve({group.activation()}, -1), Result::Sat);
  group.retire(solver);
  // Every group clause (and any learnt clause mentioning the guard) is
  // satisfied by the unit !guard and must be purged.
  EXPECT_LT(solver.liveClauses(), withGroup);
  EXPECT_LT(solver.liveLiterals(), withGroupLiterals);
  EXPECT_LE(solver.liveClauses(), backboneClauses);

  // The solver stays fully usable: the backbone still constrains, the
  // retired clauses do not.
  ASSERT_EQ(solver.solve({-vars[0]}, -1), Result::Sat);
  EXPECT_TRUE(solver.modelValue(vars[1]));
  ASSERT_EQ(solver.solve({vars[0], vars[1]}, -1), Result::Sat);
}

TEST(SatAssumptions, CompactionKeepsLadderVerdicts) {
  // Climb a retire-as-you-go ladder of contradictory rungs; after every
  // retire the next rung must still solve correctly and the database must
  // not accumulate dead rungs.
  Solver solver;
  int x = solver.newVar();
  int y = solver.newVar();
  std::size_t previousLive = 0;
  for (int rung = 0; rung < 6; ++rung) {
    ClauseGroup group(solver);
    const bool even = rung % 2 == 0;
    group.addClause(solver, {even ? x : -x});
    group.addClause(solver, {even ? -y : y});
    ASSERT_EQ(solver.solve({group.activation()}, -1), Result::Sat);
    EXPECT_EQ(solver.modelValue(x), even);
    EXPECT_EQ(solver.modelValue(y), !even);
    group.retire(solver);
    const std::size_t live = solver.liveClauses();
    if (rung > 0) {
      // Steady state: retiring rung r purges its clauses, so the live
      // count does not grow with the rung index.
      EXPECT_LE(live, previousLive + 2);
    }
    previousLive = live;
  }
  EXPECT_TRUE(solver.ok());
}

TEST(SatAssumptions, CommittedGroupConstrainsUnconditionally) {
  Solver solver;
  int x = solver.newVar();
  ClauseGroup group(solver);
  group.addClause(solver, {x});
  group.commit(solver);
  ASSERT_EQ(solver.solve(), Result::Sat);  // no assumptions needed
  EXPECT_TRUE(solver.modelValue(x));
  EXPECT_EQ(solver.solve({-x}, -1), Result::Unsat);
}

// Cross-check against brute force on random small 3-SAT instances.
bool bruteForceSat(int numVars, const std::vector<std::vector<int>>& clauses) {
  for (int assignment = 0; assignment < (1 << numVars); ++assignment) {
    bool allSatisfied = true;
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (int lit : clause) {
        int var = std::abs(lit) - 1;
        bool value = (assignment >> var) & 1;
        if ((lit > 0) == value) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        allSatisfied = false;
        break;
      }
    }
    if (allSatisfied) return true;
  }
  return false;
}

class RandomThreeSat : public ::testing::TestWithParam<int> {};

TEST_P(RandomThreeSat, AgreesWithBruteForce) {
  const int seed = GetParam();
  SplitMix64 rng(static_cast<std::uint64_t>(seed));
  const int numVars = 12;
  // Near the 3-SAT phase transition (~4.27 clauses/var) to get a mix of
  // satisfiable and unsatisfiable instances.
  const int numClauses = 51;
  std::vector<std::vector<int>> clauses;
  for (int i = 0; i < numClauses; ++i) {
    std::vector<int> clause;
    for (int j = 0; j < 3; ++j) {
      int var = static_cast<int>(rng.nextBelow(numVars)) + 1;
      bool negated = rng.nextBelow(2) == 1;
      clause.push_back(negated ? -var : var);
    }
    clauses.push_back(clause);
  }

  Solver solver;
  for (int i = 0; i < numVars; ++i) solver.newVar();
  for (const auto& clause : clauses) solver.addClause(clause);
  Result result = solver.solve();
  bool expected = bruteForceSat(numVars, clauses);
  EXPECT_EQ(result == Result::Sat, expected);

  if (result == Result::Sat) {
    // The model must actually satisfy every clause.
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (int lit : clause) {
        if (solver.modelValue(std::abs(lit)) == (lit > 0)) satisfied = true;
      }
      EXPECT_TRUE(satisfied);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomThreeSat, ::testing::Range(0, 40));

// --- randomized fuzz: the SAT core against a brute-force enumerator ------
//
// All fuzz below runs on fixed seeds (SplitMix64 streams) so CI failures
// reproduce deterministically.

std::vector<std::vector<int>> randomCnf(SplitMix64& rng, int numVars,
                                        int numClauses, int width = 3) {
  std::vector<std::vector<int>> clauses;
  clauses.reserve(static_cast<std::size_t>(numClauses));
  for (int i = 0; i < numClauses; ++i) {
    std::vector<int> clause;
    for (int j = 0; j < width; ++j) {
      int var = static_cast<int>(rng.nextBelow(
                    static_cast<std::uint64_t>(numVars))) + 1;
      clause.push_back(rng.nextBelow(2) ? -var : var);
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

class RandomCnfSizes : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfSizes, SolverAgreesWithBruteForceUpTo20Vars) {
  // Instance sizes climb to the brute-force ceiling n = 20; the clause/var
  // ratio sits near the phase transition so both verdicts occur.
  const int numVars = GetParam();
  SplitMix64 rng(0xF00D + static_cast<std::uint64_t>(numVars));
  const int rounds = numVars <= 14 ? 6 : 2;
  for (int round = 0; round < rounds; ++round) {
    const int numClauses = static_cast<int>(4.26 * numVars) + round;
    auto clauses = randomCnf(rng, numVars, numClauses);
    Solver solver;
    for (int i = 0; i < numVars; ++i) solver.newVar();
    for (const auto& clause : clauses) solver.addClause(clause);
    Result result = solver.solve();
    EXPECT_EQ(result == Result::Sat, bruteForceSat(numVars, clauses))
        << "vars=" << numVars << " round=" << round;
    if (result == Result::Sat) {
      for (const auto& clause : clauses) {
        bool satisfied = false;
        for (int lit : clause) {
          if (solver.modelValue(std::abs(lit)) == (lit > 0)) satisfied = true;
        }
        EXPECT_TRUE(satisfied);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomCnfSizes,
                         ::testing::Values(4, 8, 12, 16, 20));

class RandomAssumptionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssumptionFuzz, AssumptionSolvesMatchBruteForceAndCoresHold) {
  const int seed = GetParam();
  SplitMix64 rng(0xA55 + static_cast<std::uint64_t>(seed));
  const int numVars = 10;
  const int numClauses = 38;  // mildly constrained: both verdicts occur
  auto clauses = randomCnf(rng, numVars, numClauses);

  Solver solver;
  for (int i = 0; i < numVars; ++i) solver.newVar();
  for (const auto& clause : clauses) solver.addClause(clause);
  const bool formulaSat = bruteForceSat(numVars, clauses);

  // Many assumption sets against ONE live solver: every call must agree
  // with brute force on (formula && assumptions), and every Unsat core
  // must itself be (a) a subset of the assumptions and (b) sufficient.
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<int> assumptions;
    for (int v = 1; v <= numVars; ++v) {
      std::uint64_t coin = rng.nextBelow(4);
      if (coin == 0) assumptions.push_back(v);
      if (coin == 1) assumptions.push_back(-v);
    }
    auto withUnits = clauses;
    for (int lit : assumptions) withUnits.push_back({lit});
    const bool expected = bruteForceSat(numVars, withUnits);

    Result result = solver.solve(assumptions, -1);
    ASSERT_NE(result, Result::Unknown);
    EXPECT_EQ(result == Result::Sat, expected)
        << "seed=" << seed << " trial=" << trial;

    if (result == Result::Sat) {
      for (int lit : assumptions) {
        EXPECT_EQ(solver.modelValue(std::abs(lit)), lit > 0);
      }
      for (const auto& clause : clauses) {
        bool satisfied = false;
        for (int lit : clause) {
          if (solver.modelValue(std::abs(lit)) == (lit > 0)) satisfied = true;
        }
        EXPECT_TRUE(satisfied);
      }
    } else {
      const auto& core = solver.conflictCore();
      if (formulaSat) {
        EXPECT_FALSE(core.empty());
      }
      for (int lit : core) {
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), lit),
                  assumptions.end())
            << "core literal " << lit << " is not an assumption";
      }
      // The core alone already makes the formula unsat.
      auto withCore = clauses;
      for (int lit : core) withCore.push_back({lit});
      EXPECT_FALSE(bruteForceSat(numVars, withCore));
    }
    if (!solver.ok()) break;  // formula itself unsat: nothing more to vary
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssumptionFuzz, ::testing::Range(0, 12));

class IncrementalSessionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSessionFuzz, GrowingFormulaTracksFreshReference) {
  // One live solver accumulates clauses across interleaved addClause /
  // solve(assumptions) steps; every verdict is cross-checked against a
  // brute-force reference over the clauses added so far. The arena GC is
  // forced down to a tiny dead-fraction threshold so learnt-clause
  // reduction and database compaction collect (and remap every live
  // reference) many times within one session; the wider group/retire/core
  // interleaving lives in test_sat_arena.cpp's ArenaGcSessionFuzz.
  const int seed = GetParam();
  SplitMix64 rng(0xBEEF + static_cast<std::uint64_t>(seed));
  const int numVars = 9;
  Solver solver;
  solver.setGcDeadFraction(1e-9);
  for (int i = 0; i < numVars; ++i) solver.newVar();
  std::vector<std::vector<int>> mirror;

  for (int step = 0; step < 10; ++step) {
    const int burst = 1 + static_cast<int>(rng.nextBelow(4));
    for (const auto& clause : randomCnf(rng, numVars, burst)) {
      solver.addClause(clause);
      mirror.push_back(clause);
    }
    std::vector<int> assumptions;
    if (rng.nextBelow(2)) {
      int var = static_cast<int>(rng.nextBelow(numVars)) + 1;
      assumptions.push_back(rng.nextBelow(2) ? -var : var);
    }
    auto withUnits = mirror;
    for (int lit : assumptions) withUnits.push_back({lit});
    Result result = solver.solve(assumptions, -1);
    ASSERT_NE(result, Result::Unknown);
    EXPECT_EQ(result == Result::Sat, bruteForceSat(numVars, withUnits))
        << "seed=" << seed << " step=" << step;
    if (!solver.ok()) {
      // Globally unsat: stays unsat under every later extension.
      solver.addClause({1});
      EXPECT_EQ(solver.solve(), Result::Unsat);
      break;
    }
    // Force collection pressure between solves and check the stats stay
    // coherent across relocation.
    if (rng.nextBelow(2)) {
      solver.reduceLearntDb();
    } else {
      solver.compactDatabase();
    }
    const SolverStats stats = solver.snapshotStats();
    EXPECT_GE(stats.liveClauses, 0) << "seed=" << seed << " step=" << step;
    EXPECT_GE(stats.liveLiterals, 0) << "seed=" << seed << " step=" << step;
    EXPECT_GE(stats.arenaBytes, 0) << "seed=" << seed << " step=" << step;
    EXPECT_EQ(solver.watcherCount(), 2 * solver.liveClauses())
        << "seed=" << seed << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSessionFuzz,
                         ::testing::Range(0, 16));

TEST(SatSolver, GraphColouringTriangle) {
  // Triangle with 2 colours: UNSAT; with 3 colours: SAT.
  for (int colours = 2; colours <= 3; ++colours) {
    Solver solver;
    const std::vector<DomainVar> node = oneHotLabels(
        solver, 3, colours,
        [&](const std::vector<int>& clause) { solver.addClause(clause); });
    for (int u = 0; u < 3; ++u) {
      for (int v = u + 1; v < 3; ++v) {
        for (int c = 0; c < colours; ++c) {
          solver.addClause({node[static_cast<std::size_t>(u)].isNot(c),
                            node[static_cast<std::size_t>(v)].isNot(c)});
        }
      }
    }
    EXPECT_EQ(solver.solve() == Result::Sat, colours == 3);
  }
}

/// One one-hot variable over [0, domain) with its exactly-one clauses.
DomainVar oneHotVar(Solver& solver, int domain) {
  return oneHotLabels(solver, 1, domain, [&](const std::vector<int>& clause) {
    solver.addClause(clause);
  })[0];
}

TEST(CnfBuilder, DomainVarDecodes) {
  Solver solver;
  DomainVar dv = oneHotVar(solver, 5);
  solver.addClause({dv.is(3)});
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_EQ(dv.decode(solver), 3);
}

TEST(CnfBuilder, ExactlyOneExcludesPairs) {
  Solver solver;
  DomainVar dv = oneHotVar(solver, 4);
  solver.addClause({dv.is(1)});
  solver.addClause({dv.is(2)});
  EXPECT_EQ(solver.solve(), Result::Unsat);
}

TEST(Dimacs, ParseAndSolveRoundTrip) {
  const std::string text =
      "c example\n"
      "p cnf 3 3\n"
      "1 2 0\n"
      "-1 3 0\n"
      "-2 -3 0\n";
  Cnf cnf = parseDimacsString(text);
  EXPECT_EQ(cnf.numVars, 3);
  ASSERT_EQ(cnf.clauses.size(), 3u);
  Solver solver;
  loadInto(cnf, solver);
  EXPECT_EQ(solver.solve(), Result::Sat);

  std::string rendered = toDimacsString(cnf);
  Cnf reparsed = parseDimacsString(rendered);
  EXPECT_EQ(reparsed.clauses, cnf.clauses);
}

TEST(Dimacs, WriteParseWriteRoundTripFuzz) {
  // write -> parse -> write must be a fixed point: the reparse reproduces
  // the exact clause list and the second render is byte-identical. Fixed
  // seeds; clause widths 1..4 cover units and the common encodings.
  for (int seed = 0; seed < 25; ++seed) {
    SplitMix64 rng(0xD1AC5 + static_cast<std::uint64_t>(seed));
    Cnf cnf;
    cnf.numVars = 1 + static_cast<int>(rng.nextBelow(19));
    const int numClauses = static_cast<int>(rng.nextBelow(40));
    for (int i = 0; i < numClauses; ++i) {
      std::vector<int> clause;
      const int width = 1 + static_cast<int>(rng.nextBelow(4));
      for (int j = 0; j < width; ++j) {
        int var = static_cast<int>(
                      rng.nextBelow(static_cast<std::uint64_t>(cnf.numVars))) +
                  1;
        clause.push_back(rng.nextBelow(2) ? -var : var);
      }
      cnf.clauses.push_back(std::move(clause));
    }

    const std::string rendered = toDimacsString(cnf);
    Cnf reparsed = parseDimacsString(rendered);
    EXPECT_EQ(reparsed.numVars, cnf.numVars) << "seed=" << seed;
    EXPECT_EQ(reparsed.clauses, cnf.clauses) << "seed=" << seed;
    EXPECT_EQ(toDimacsString(reparsed), rendered) << "seed=" << seed;

    // And the solver agrees with brute force on the parsed instance.
    Solver solver;
    loadInto(reparsed, solver);
    EXPECT_EQ(solver.solve() == Result::Sat,
              bruteForceSat(cnf.numVars, cnf.clauses))
        << "seed=" << seed;
  }
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW(parseDimacsString("1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parseDimacsString("p cnf 1 1\n2 0\n"), std::runtime_error);
  EXPECT_THROW(parseDimacsString("p cnf 2 1\n1 2\n"), std::runtime_error);
}

namespace {

/// The parser's errors must name the failure, not surface a bare stoi
/// exception -- every message carries the "parseDimacs:" prefix plus a
/// distinguishing fragment.
void expectParseError(const std::string& text, const std::string& fragment) {
  try {
    parseDimacsString(text);
    FAIL() << "no error for: " << text;
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("parseDimacs:"), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "message \"" << what << "\" lacks \"" << fragment << "\"";
  }
}

}  // namespace

TEST(Dimacs, HeaderErrorsAreSpecific) {
  expectParseError("", "missing \"p cnf\" header");
  expectParseError("c only comments\n", "missing \"p cnf\" header");
  expectParseError("p\n", "truncated header");
  expectParseError("p cnf 3\n", "truncated header");
  expectParseError("p dnf 3 1\n1 0\n", "not \"cnf\"");
  expectParseError("p cnf three 1\n", "header variable count");
  expectParseError("p cnf 3 many\n", "header clause count");
  expectParseError("p cnf -3 1\n", "negative count");
  expectParseError("p cnf 3 -1\n", "negative count");
  expectParseError("p cnf 3 1\np cnf 3 1\n1 0\n", "duplicate");
  expectParseError("1 0\np cnf 3 1\n", "before \"p cnf\" header");
}

TEST(Dimacs, LiteralErrorsAreSpecific) {
  expectParseError("p cnf 3 1\n4 0\n", "out of range");
  expectParseError("p cnf 3 1\n-4 0\n", "out of range");
  expectParseError("p cnf 3 1\n99999999999999999999 0\n", "out of int range");
  expectParseError("p cnf 3 1\n1x 0\n", "trailing characters");
  expectParseError("p cnf 3 1\nfoo 0\n", "expected literal");
  expectParseError("p cnf 3 1\n1 2\n", "unterminated clause");
  expectParseError("p cnf 0 1\n1 0\n", "out of range");
}

TEST(Dimacs, AcceptsTolerantButWellFormedInput) {
  // Comments anywhere, a clause count that disagrees with the body, and an
  // empty clause are all tolerated -- errors are reserved for input the
  // parser cannot interpret unambiguously.
  const Cnf cnf = parseDimacsString(
      "c leading comment\n"
      "p cnf 2 1\n"
      "c mid-stream comment\n"
      "1 -2 0\n"
      "0\n"
      "2 0\n");
  EXPECT_EQ(cnf.numVars, 2);
  ASSERT_EQ(cnf.clauses.size(), 3u);
  EXPECT_EQ(cnf.clauses[0], (std::vector<int>{1, -2}));
  EXPECT_TRUE(cnf.clauses[1].empty());
  EXPECT_EQ(cnf.clauses[2], (std::vector<int>{2}));
}

TEST(SatSolver, StatisticsAdvance) {
  Solver solver;
  buildPigeonhole(solver, 5);
  EXPECT_EQ(solver.solve(), Result::Unsat);
  EXPECT_GT(solver.conflicts(), 0);
  EXPECT_GT(solver.decisions(), 0);
  EXPECT_GT(solver.propagations(), 0);
}

}  // namespace
}  // namespace lclgrid::sat
