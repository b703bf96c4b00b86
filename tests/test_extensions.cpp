#include <gtest/gtest.h>

#include "lcl/combinators.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/graph_view.hpp"
#include "local/ids.hpp"
#include "local/luby_mis.hpp"
#include "local/mis.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/rule_io.hpp"
#include "synthesis/synthesizer.hpp"

namespace lclgrid {
namespace {

// --- combinators -------------------------------------------------------------

TEST(Combinators, DisjointUnionAcceptsEitherFamily) {
  Torus2D torus(6);
  auto p = problems::vertexColouring(2);
  auto q = problems::vertexColouring(3);
  auto u = problems::disjointUnion(p, q);
  EXPECT_EQ(u.sigma(), 5);

  // A pure-P solution (chequerboard).
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 2;
  }
  EXPECT_TRUE(verify(torus, u, labels));

  // A pure-Q solution (diagonal 3-colouring, offset by sigma(P)).
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] =
        2 + (torus.xOf(v) + torus.yOf(v)) % 3;
  }
  EXPECT_TRUE(verify(torus, u, labels));

  // Mixing families anywhere is rejected.
  labels[7] = 0;
  EXPECT_FALSE(verify(torus, u, labels));
}

TEST(Combinators, DisjointUnionSolvableIffEitherIs) {
  // On an odd torus 2-colouring is infeasible but 3-colouring saves the
  // union -- exactly the role P1 plays in L_M.
  Torus2D torus(5);
  auto u = problems::disjointUnion(problems::vertexColouring(2),
                                   problems::vertexColouring(3));
  auto result = solveGlobally(torus, u);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(verify(torus, u, result.labels));
}

TEST(Combinators, RelabelPreservesSolutions) {
  Torus2D torus(6);
  auto p = problems::vertexColouring(4);
  auto shuffled = problems::relabel(p, {2, 3, 0, 1});
  auto result = solveGlobally(torus, shuffled);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(verify(torus, shuffled, result.labels));
  EXPECT_TRUE(p.isEdgeDecomposable());
  EXPECT_TRUE(shuffled.isEdgeDecomposable());
}

TEST(Combinators, RelabelRejectsNonBijections) {
  auto p = problems::vertexColouring(3);
  EXPECT_THROW(problems::relabel(p, {0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(problems::relabel(p, {0, 1}), std::invalid_argument);
}

TEST(Combinators, FlipOrientationMapsXToFourMinusX) {
  // Section 11: {0,1,3}-orientation == flipped {1,3,4}-orientation. Verify
  // behaviourally: a labelling solves flip({1,3,4}) iff it solves {0,1,3}.
  Torus2D torus(8);
  auto direct = problems::orientation({0, 1, 3});
  auto flipped = problems::flipOrientation(problems::orientation({1, 3, 4}));
  auto solved = solveGlobally(torus, direct, 3);
  ASSERT_TRUE(solved.feasible);
  EXPECT_TRUE(verify(torus, flipped, solved.labels));
  auto solvedFlipped = solveGlobally(torus, flipped, 5);
  ASSERT_TRUE(solvedFlipped.feasible);
  EXPECT_TRUE(verify(torus, direct, solvedFlipped.labels));
}

TEST(Combinators, RestrictLabelsMonotone) {
  // 4-colouring restricted to 3 labels behaves like 3-colouring: feasible
  // but (per Theorem 9) global.
  auto p = problems::vertexColouring(4);
  auto restricted = problems::restrictLabels(p, {true, true, true, false});
  EXPECT_EQ(restricted.sigma(), 3);
  Torus2D torus(6);
  auto result = solveGlobally(torus, restricted);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(verify(torus, restricted, result.labels));
}

// --- Luby randomised MIS ------------------------------------------------------

class LubyMis : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LubyMis, ComputesMaximalIndependentSets) {
  auto [n, k, seed] = GetParam();
  Torus2D torus(n);
  auto view = local::l1PowerView(torus, k);
  auto result = local::lubyMis(view, static_cast<std::uint64_t>(seed) + 1);
  EXPECT_TRUE(local::isMaximalIndependentSet(view, result.inSet));
  EXPECT_GT(result.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LubyMis,
    ::testing::Combine(::testing::Values(12, 20), ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2)));

TEST(LubyMisRounds, GrowLogarithmicallyAtMost) {
  // Expected O(log n) iterations; check a generous bound empirically.
  for (int n : {16, 64}) {
    Torus2D torus(n);
    auto view = local::l1PowerView(torus, 1);
    auto result = local::lubyMis(view, 7);
    EXPECT_LE(result.iterations, 40) << n;
  }
}

// --- rule serialization ---------------------------------------------------------

TEST(RuleIo, RoundTripPreservesBehaviour) {
  auto lcl = problems::maximalIndependentSet();
  auto synthesis = synthesis::synthesize(lcl, {.maxK = 1});
  ASSERT_TRUE(synthesis.success);

  std::string text = synthesis::serializeRule(*synthesis.rule);
  auto reloaded = synthesis::parseRuleString(text);
  EXPECT_EQ(reloaded.k, synthesis.rule->k);
  EXPECT_EQ(reloaded.shape, synthesis.rule->shape);
  EXPECT_EQ(reloaded.labelOf, synthesis.rule->labelOf);

  // Behavioural equality on a real torus.
  Torus2D torus(20);
  auto ids = local::randomIds(torus.size(), 9);
  synthesis::NormalFormAlgorithm original(*synthesis.rule);
  synthesis::NormalFormAlgorithm parsed(reloaded);
  auto runA = original.execute(torus, ids);
  auto runB = parsed.execute(torus, ids);
  ASSERT_TRUE(runA.solved);
  ASSERT_TRUE(runB.solved);
  EXPECT_EQ(runA.labels, runB.labels);
}

TEST(RuleIo, RejectsMalformedInput) {
  EXPECT_THROW(synthesis::parseRuleString("garbage"), std::runtime_error);
  EXPECT_THROW(synthesis::parseRuleString("lclgrid-rule v1\nk 0\n"),
               std::runtime_error);
  EXPECT_THROW(
      synthesis::parseRuleString(
          "lclgrid-rule v1\nk 1\nshape 3 2\ntiles 2\n0 1\n"),
      std::runtime_error);  // truncated tile list
}

TEST(RuleIo, FourColouringRuleSurvivesSerialization) {
  auto lcl = problems::vertexColouring(4);
  auto synthesis = synthesis::synthesize(lcl, {.maxK = 3});
  ASSERT_TRUE(synthesis.success);
  auto reloaded =
      synthesis::parseRuleString(synthesis::serializeRule(*synthesis.rule));
  Torus2D torus(26);
  synthesis::NormalFormAlgorithm algorithm(reloaded);
  auto run = algorithm.execute(torus, local::randomIds(torus.size(), 3));
  ASSERT_TRUE(run.solved);
  EXPECT_TRUE(verify(torus, lcl, run.labels));
}

}  // namespace
}  // namespace lclgrid
