#include <gtest/gtest.h>

#include "algorithms/edge_colouring.hpp"
#include "algorithms/four_colouring.hpp"
#include "algorithms/global_baseline.hpp"
#include "algorithms/orientations.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"
#include "local/row_anchors.hpp"
#include "local/ruling_set.hpp"

namespace lclgrid::algorithms {
namespace {

// --- edge colouring (Section 10) -------------------------------------------

class EdgeColouringOneDim : public ::testing::TestWithParam<int> {};

TEST_P(EdgeColouringOneDim, ThreeColoursOnCycles) {
  // Theorem 15, d = 1: 3-edge-colouring of the cycle in Theta(log* n).
  int n = GetParam();
  TorusD torus(1, n);
  auto run = edgeColouringGrid(torus, local::randomIds(n, 13));
  ASSERT_TRUE(run.solved) << run.failure;
  EXPECT_EQ(run.palette, 3);
  EXPECT_TRUE(isProperEdgeColouringD(torus, run.colour, 3));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EdgeColouringOneDim,
                         ::testing::Values(30, 61, 128, 501));

TEST(EdgeColouring, TwoDimensionalFiveColouring) {
  // Theorem 15, d = 2: 5-edge-colouring in Theta(log* n). The j,k-
  // independent set geometry needs n >= ~2 spacing (see DESIGN.md).
  TorusD torus(2, 224);
  auto run = edgeColouringGrid(torus, local::randomIds(
                                          static_cast<int>(torus.size()), 3));
  ASSERT_TRUE(run.solved) << run.failure;
  EXPECT_EQ(run.palette, 5);
  EXPECT_TRUE(isProperEdgeColouringD(torus, run.colour, 5));
}

TEST(EdgeColouring, RoundsFlatAcrossCycleSizes) {
  TorusD small(1, 64), large(1, 2048);
  auto runSmall = edgeColouringGrid(small, local::randomIds(64, 5));
  auto runLarge = edgeColouringGrid(large, local::randomIds(2048, 5));
  ASSERT_TRUE(runSmall.solved);
  ASSERT_TRUE(runLarge.solved);
  EXPECT_LE(runLarge.rounds, runSmall.rounds + 120);
}

TEST(EdgeColouring, VerifierCatchesBadColourings) {
  TorusD torus(2, 4);
  std::vector<int> colour(static_cast<std::size_t>(torus.size()) * 2, 0);
  EXPECT_FALSE(isProperEdgeColouringD(torus, colour, 5));
}

TEST(EdgeColouring, FourColoursImpossibleOnOddTorus) {
  // Theorem 21 for d=2 via the LCL feasibility oracle (SAT): see also the
  // lcl tests; here we check the parity argument's arithmetic directly.
  // n odd => n^2 * d / 2 is not an integer for colour-class sizes.
  for (int n : {3, 5, 7}) {
    long long edgesPerColour = static_cast<long long>(n) * n * 2;
    EXPECT_EQ(edgesPerColour % 2, 0);  // total edges even...
    EXPECT_EQ((static_cast<long long>(n) * n) % 2, 1);  // ...but nd/2 odd
  }
}

// --- row anchors (substrate of Section 10) ---------------------------------

class RowAnchorProperties
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RowAnchorProperties, SeparationAndDomination) {
  auto [n, spacing] = GetParam();
  TorusD torus(2, n);
  auto anchors = local::sparseRowAnchors(
      torus, 0, spacing, local::randomIds(static_cast<int>(torus.size()), 7));
  ASSERT_EQ(anchors.separation, spacing);
  // Check both properties row by row along axis 0.
  for (int y = 0; y < n; ++y) {
    std::vector<int> positions;
    for (int x = 0; x < n; ++x) {
      if (anchors.inSet[static_cast<std::size_t>(
              torus.id({x, y}))]) {
        positions.push_back(x);
      }
    }
    ASSERT_FALSE(positions.empty()) << "row " << y << " has no anchor";
    for (std::size_t i = 0; i < positions.size(); ++i) {
      int next = positions[(i + 1) % positions.size()];
      int gap = (next - positions[i] + n) % n;
      if (gap == 0) gap = n;
      EXPECT_GT(gap, anchors.separation);
      EXPECT_LE(gap, 2 * anchors.domination + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RowAnchorProperties,
    ::testing::Values(std::make_tuple(40, 6), std::make_tuple(64, 10),
                      std::make_tuple(96, 18)));

// --- ruling sets ------------------------------------------------------------

TEST(RulingSet, HierarchicalSeparationAndDomination) {
  Torus2D torus(48);
  auto ids = local::randomIds(torus.size(), 3);
  for (int target : {3, 7, 12}) {
    auto ruling = local::hierarchicalRulingSet(torus, target, ids);
    EXPECT_GE(ruling.separation, target);
    std::vector<int> anchors;
    for (int v = 0; v < torus.size(); ++v) {
      if (ruling.inSet[static_cast<std::size_t>(v)]) anchors.push_back(v);
    }
    ASSERT_FALSE(anchors.empty());
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      for (std::size_t j = i + 1; j < anchors.size(); ++j) {
        EXPECT_GT(torus.linf(anchors[i], anchors[j]), ruling.separation);
      }
    }
    for (int v = 0; v < torus.size(); ++v) {
      int closest = torus.n();
      for (int a : anchors) closest = std::min(closest, torus.linf(v, a));
      EXPECT_LE(closest, ruling.domination);
    }
  }
}

TEST(RulingSet, MisCompletionReachesExactDomination) {
  Torus2D torus(40);
  auto ids = local::randomIds(torus.size(), 17);
  auto mis = local::misOfLinfPower(torus, 5, ids);
  std::vector<int> anchors;
  for (int v = 0; v < torus.size(); ++v) {
    if (mis.inSet[static_cast<std::size_t>(v)]) anchors.push_back(v);
  }
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    for (std::size_t j = i + 1; j < anchors.size(); ++j) {
      EXPECT_GT(torus.linf(anchors[i], anchors[j]), 5);
    }
  }
  for (int v = 0; v < torus.size(); ++v) {
    int closest = torus.n();
    for (int a : anchors) closest = std::min(closest, torus.linf(v, a));
    EXPECT_LE(closest, 5);
  }
}

// --- orientations (Section 11) ----------------------------------------------

TEST(Orientations, PaperClassificationTable) {
  using enum OrientationClass;
  EXPECT_EQ(classifyOrientationPaper({2}), Constant);
  EXPECT_EQ(classifyOrientationPaper({0, 2, 4}), Constant);
  EXPECT_EQ(classifyOrientationPaper({1, 3, 4}), LogStar);
  EXPECT_EQ(classifyOrientationPaper({0, 1, 3}), LogStar);
  EXPECT_EQ(classifyOrientationPaper({0, 1, 3, 4}), LogStar);
  EXPECT_EQ(classifyOrientationPaper({1, 3}), Global);
  EXPECT_EQ(classifyOrientationPaper({0, 3, 4}), Global);
  EXPECT_EQ(classifyOrientationPaper({0, 4}), Global);
  EXPECT_EQ(classifyOrientationPaper({}), Unsolvable);
}

class OrientationSolvers
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OrientationSolvers, SolveAndVerifyAcrossClasses) {
  auto [n, which] = GetParam();
  std::set<int> xs[] = {{2}, {1, 3, 4}, {0, 1, 3}, {0, 3, 4}};
  const std::set<int>& x = xs[which];
  Torus2D torus(n);
  auto run = solveOrientation(torus, x, local::randomIds(torus.size(), 3));
  ASSERT_TRUE(run.solved) << run.failure;
  EXPECT_TRUE(verify(torus, problems::orientation(x), run.labels));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OrientationSolvers,
    ::testing::Combine(::testing::Values(12, 16), ::testing::Values(0, 1, 2, 3)));

TEST(Orientations, ConstantCaseUsesZeroRounds) {
  Torus2D torus(10);
  auto run = solveOrientation(torus, {2}, local::randomIds(torus.size(), 1));
  ASSERT_TRUE(run.solved);
  EXPECT_EQ(run.rounds, 0);
}

TEST(Orientations, GlobalCaseReportsInfeasibilityOnOddTori) {
  Torus2D torus(5);
  auto run = solveOrientation(torus, {1, 3}, local::randomIds(torus.size(), 1));
  EXPECT_FALSE(run.solved);
}

// --- global baseline ----------------------------------------------------------

TEST(GlobalBaseline, SolvesAndCountsDiameterRounds) {
  Torus2D torus(6);
  auto run = solveByGathering(torus, problems::vertexColouring(3));
  ASSERT_TRUE(run.solved);
  EXPECT_TRUE(verify(torus, problems::vertexColouring(3), run.labels));
  EXPECT_EQ(run.rounds, 6);
}

TEST(GlobalBaseline, RoundsGrowLinearly) {
  auto small = solveByGathering(Torus2D(6), problems::vertexColouring(3));
  auto large = solveByGathering(Torus2D(12), problems::vertexColouring(3));
  EXPECT_EQ(large.rounds, 2 * small.rounds);
}

// --- Section 8 pipeline -------------------------------------------------------

TEST(FourColouring, VerifierRejectsBadColourings) {
  TorusD torus(2, 8);
  std::vector<int> allSame(static_cast<std::size_t>(torus.size()), 1);
  EXPECT_FALSE(isProperColouringD(torus, allSame, 4));
}

TEST(FourColouring, PipelineReportsHonestOutcome) {
  // At laptop-scale ell the radius-assignment CSP of Section 8 is
  // infeasible (see DESIGN.md); the pipeline must either produce a verified
  // colouring or report the failure explicitly -- never a bad colouring.
  TorusD torus(2, 32);
  auto run = fourColouring(torus, local::randomIds(
                                      static_cast<int>(torus.size()), 3));
  if (run.solved) {
    EXPECT_TRUE(isProperColouringD(torus, run.colour, 4));
  } else {
    EXPECT_FALSE(run.failure.empty());
  }
}

}  // namespace
}  // namespace lclgrid::algorithms
