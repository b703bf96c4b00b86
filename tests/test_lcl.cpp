#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "lcl/global_solver.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/problems.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"

namespace lclgrid {
namespace {

using problems::edgeColourOfE;
using problems::edgeColourOfN;
using problems::edgeLabelFrom;

std::vector<int> chequerboard(const Torus2D& torus) {
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 2;
  }
  return labels;
}

TEST(GridLcl, TrivialityDetection) {
  EXPECT_FALSE(problems::vertexColouring(4).hasTrivialSolution());
  EXPECT_FALSE(problems::maximalIndependentSet().hasTrivialSolution());
  EXPECT_TRUE(problems::independentSet().hasTrivialSolution());
  EXPECT_EQ(problems::independentSet().trivialLabel(), 0);
  EXPECT_TRUE(problems::noHorizontalOnePair().hasTrivialSolution());
  EXPECT_TRUE(problems::weakColouring(3, 0).hasTrivialSolution());
  EXPECT_FALSE(problems::weakColouring(3, 1).hasTrivialSolution());
}

TEST(GridLcl, VertexColouringIsEdgeDecomposable) {
  EXPECT_TRUE(problems::vertexColouring(3).isEdgeDecomposable());
  EXPECT_TRUE(problems::vertexColouring(4).isEdgeDecomposable());
  // The pair projections are exactly "different labels".
  auto lcl = problems::vertexColouring(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(lcl.horizontalOk(a, b), a != b);
      EXPECT_EQ(lcl.verticalOk(a, b), a != b);
    }
  }
}

TEST(GridLcl, MisIsNotEdgeDecomposable) {
  // "0 needs some 1 neighbour" is inherently a cross constraint.
  EXPECT_FALSE(problems::maximalIndependentSet().isEdgeDecomposable());
}

TEST(GridLcl, EdgeColouringIsNotEdgeDecomposable) {
  // The west neighbour's E-edge and the south neighbour's N-edge interact,
  // which horizontal/vertical pair constraints cannot capture. (k = 3 would
  // be vacuous: a node cannot give its 4 incident edges distinct colours
  // from a palette of 3, so no tuple is allowed at all.)
  EXPECT_FALSE(problems::edgeColouring(4).isEdgeDecomposable());
}

TEST(GridLcl, ThreeEdgeColouringIsInfeasibleEverywhere) {
  // With fewer than 4 colours no cross is ever allowed: each node needs its
  // four incident edges pairwise distinct.
  auto lcl = problems::edgeColouring(3);
  bool anyAllowed = false;
  for (int c = 0; c < lcl.sigma() && !anyAllowed; ++c) {
    for (int s = 0; s < lcl.sigma() && !anyAllowed; ++s) {
      for (int w = 0; w < lcl.sigma() && !anyAllowed; ++w) {
        if (lcl.allows(c, 0, 0, s, w)) anyAllowed = true;
      }
    }
  }
  EXPECT_FALSE(anyAllowed);
}

TEST(Verifier, ChequerboardIsProper2Colouring) {
  Torus2D torus(6);
  auto lcl = problems::vertexColouring(2);
  EXPECT_TRUE(verify(torus, lcl, chequerboard(torus)));
}

TEST(Verifier, OddTorusChequerboardFails) {
  Torus2D torus(5);  // wraps badly: x+y parity is inconsistent across seam
  auto lcl = problems::vertexColouring(2);
  EXPECT_FALSE(verify(torus, lcl, chequerboard(torus)));
}

TEST(Verifier, DiagonalThreeColouring) {
  Torus2D torus(6);
  auto lcl = problems::vertexColouring(3);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 3;
  }
  EXPECT_TRUE(verify(torus, lcl, labels));
}

TEST(Verifier, ReportsViolationLocation) {
  Torus2D torus(4);
  auto lcl = problems::vertexColouring(2);
  auto labels = chequerboard(torus);
  labels[0] = 1;  // break the colouring at (0,0)
  auto violations = listViolations(torus, lcl, labels, 100);
  EXPECT_FALSE(violations.empty());
  bool mentionsOrigin = false;
  for (const auto& violation : violations) {
    if (violation.node == 0) mentionsOrigin = true;
  }
  EXPECT_TRUE(mentionsOrigin);
}

TEST(Verifier, RejectsOutOfAlphabetLabels) {
  Torus2D torus(4);
  auto lcl = problems::vertexColouring(2);
  auto labels = chequerboard(torus);
  labels[5] = 7;
  EXPECT_FALSE(verify(torus, lcl, labels));
}

TEST(Verifier, MisPatternOnTorus) {
  // Anchors on the even-sum diagonal pattern form a maximal independent set
  // when n is even.
  Torus2D torus(8);
  auto lcl = problems::maximalIndependentSet();
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] =
        (torus.xOf(v) + torus.yOf(v)) % 2 == 0 ? 1 : 0;
  }
  // Every other node on the even diagonal: that is NOT independent (adjacent
  // diagonal cells are at L1 distance 2) -- actually (x+y) even cells are
  // pairwise non-adjacent, and odd cells are dominated. Verify.
  EXPECT_TRUE(verify(torus, lcl, labels));
}

TEST(Verifier, MaximalMatchingHandBuilt) {
  Torus2D torus(4);
  auto lcl = problems::maximalMatching();
  // Match each node in even column x with its east neighbour in column x+1.
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) % 2 == 0) ? 2 : 4;
  }
  EXPECT_TRUE(verify(torus, lcl, labels));
}

TEST(Verifier, EdgeColouringHandBuilt) {
  // Even torus: colour E-edges by x parity (0/1), N-edges by y parity (2/3).
  Torus2D torus(6);
  const int k = 4;
  auto lcl = problems::edgeColouring(k);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    int eColour = torus.xOf(v) % 2;
    int nColour = 2 + torus.yOf(v) % 2;
    labels[static_cast<std::size_t>(v)] = edgeLabelFrom(eColour, nColour, k);
  }
  EXPECT_TRUE(verify(torus, lcl, labels));
}

TEST(Verifier, EdgeLabelHelpersRoundTrip) {
  const int k = 5;
  for (int e = 0; e < k; ++e) {
    for (int n = 0; n < k; ++n) {
      int label = edgeLabelFrom(e, n, k);
      EXPECT_EQ(edgeColourOfE(label, k), e);
      EXPECT_EQ(edgeColourOfN(label, k), n);
    }
  }
}

TEST(Orientation, InDegreeComputation) {
  using namespace problems;
  // All edges point east/north everywhere: every node has in-degree 2
  // (from its west and south neighbours).
  int allOut = orientationLabel(true, true);
  EXPECT_EQ(orientationInDegree(allOut, allOut, allOut), 2);
  // All edges point inwards at this node: in-degree 2 from own E/N edges
  // plus whatever the neighbours send -- with neighbours pointing away from
  // us (their E/N edges point at us? no: w's E-edge enters iff eOut(w)).
  int allIn = orientationLabel(false, false);
  EXPECT_EQ(orientationInDegree(allIn, allIn, allIn), 2);
  EXPECT_EQ(orientationInDegree(allIn, allOut, allOut), 4);
  EXPECT_EQ(orientationInDegree(allOut, allIn, allIn), 0);
}

TEST(Orientation, InputOrientationSolvesTwoInX) {
  Torus2D torus(5);
  auto lcl = problems::orientation({2});
  int allOut = problems::orientationLabel(true, true);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()),
                          allOut);
  EXPECT_TRUE(verify(torus, lcl, labels));
  EXPECT_TRUE(lcl.hasTrivialSolution());
}

TEST(GlobalSolver, TwoColouringFeasibilityByParity) {
  auto lcl = problems::vertexColouring(2);
  for (int n = 4; n <= 7; ++n) {
    Torus2D torus(n);
    auto result = solveGlobally(torus, lcl);
    EXPECT_EQ(result.feasible, n % 2 == 0) << n;
    if (result.feasible) {
      EXPECT_TRUE(verify(torus, lcl, result.labels));
    }
  }
}

TEST(GlobalSolver, ThreeColouringAlwaysFeasible) {
  auto lcl = problems::vertexColouring(3);
  for (int n : {4, 5, 6, 7}) {
    Torus2D torus(n);
    auto result = solveGlobally(torus, lcl);
    ASSERT_TRUE(result.feasible) << n;
    EXPECT_TRUE(verify(torus, lcl, result.labels));
  }
}

TEST(GlobalSolver, MisFeasibleAndVerified) {
  auto lcl = problems::maximalIndependentSet();
  Torus2D torus(5);
  auto result = solveGlobally(torus, lcl);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(verify(torus, lcl, result.labels));
}

TEST(GlobalSolver, SeededSolutionsVaryButVerify) {
  auto lcl = problems::vertexColouring(4);
  Torus2D torus(5);
  std::set<std::vector<int>> distinct;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto result = solveGlobally(torus, lcl, seed);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(verify(torus, lcl, result.labels));
    distinct.insert(result.labels);
  }
  EXPECT_GE(distinct.size(), 2u);
}

TEST(GlobalSolver, FourEdgeColouringParityObstruction) {
  // Theorem 21 (d=2): no 4-edge-colouring when n is odd.
  auto lcl = problems::edgeColouring(4);
  {
    Torus2D torus(3);
    EXPECT_FALSE(solveGlobally(torus, lcl).feasible);
  }
  {
    Torus2D torus(4);
    auto result = solveGlobally(torus, lcl);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(verify(torus, lcl, result.labels));
  }
}

TEST(GlobalSolver, BruteForceRoundsIsDiameter) {
  EXPECT_EQ(bruteForceRounds(8), 8);
  EXPECT_EQ(bruteForceRounds(9), 8);
}

class OrientationFeasibility
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(OrientationFeasibility, OneThreeOrientationParity) {
  // Lemma 24: no {1,3}-orientation for odd n; feasible for even n.
  auto [n, expectFeasible] = GetParam();
  Torus2D torus(n);
  auto lcl = problems::orientation({1, 3});
  auto result = solveGlobally(torus, lcl);
  EXPECT_EQ(result.feasible, expectFeasible);
  if (result.feasible) {
    EXPECT_TRUE(verify(torus, lcl, result.labels));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OrientationFeasibility,
    ::testing::Values(std::make_tuple(3, false), std::make_tuple(4, true),
                      std::make_tuple(5, false), std::make_tuple(6, true)));

TEST(RenderLabelling, ProducesGridText) {
  Torus2D torus(3);
  auto lcl = problems::vertexColouring(3);
  std::vector<int> labels(9, 0);
  std::string text = renderLabelling(torus, lcl, labels);
  EXPECT_EQ(text, "0 0 0\n0 0 0\n0 0 0\n");
}

}  // namespace
}  // namespace lclgrid
