#include <gtest/gtest.h>

#include <set>

#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "lowerbound/orientation_invariant.hpp"
#include "lowerbound/qsum.hpp"
#include "lowerbound/three_colouring_invariant.hpp"

namespace lclgrid::lowerbound {
namespace {

TEST(QSum, VerifierChecksSumAndRange) {
  EXPECT_TRUE(verifyQSum({1, -1, 0, 1}, 1));
  EXPECT_FALSE(verifyQSum({1, -1, 0, 1}, 0));
  EXPECT_FALSE(verifyQSum({2, -1}, 1));
}

TEST(QSum, GlobalSolverSatisfiesAnyFeasibleTarget) {
  for (int n : {9, 10, 25}) {
    for (long long target : {-3, -1, 0, 1, 5}) {
      auto run = solveQSumGlobally(n, target);
      ASSERT_TRUE(run.solved);
      EXPECT_TRUE(verifyQSum(run.labels, target));
      EXPECT_GE(run.rounds, n / 2);
    }
  }
}

TEST(QSum, Theorem10Conditions) {
  EXPECT_TRUE(qSumConditionsHold(9, 1));
  EXPECT_FALSE(qSumConditionsHold(9, 2));   // even target, odd n
  EXPECT_FALSE(qSumConditionsHold(10, 6));  // |q| > n/2
  EXPECT_TRUE(qSumConditionsHold(10, 4));
}

// --- Section 9: greedy colourings and the row invariant ----------------------

std::vector<int> diagonalColouring(const Torus2D& torus) {
  std::vector<int> colours(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    colours[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 3;
  }
  return colours;
}

TEST(Greedyify, ProducesGreedyColouring) {
  Torus2D torus(9);
  auto colours = makeGreedy(torus, diagonalColouring(torus));
  EXPECT_TRUE(verify(torus, problems::vertexColouring(3), colours));
  EXPECT_TRUE(isGreedyColouring(torus, colours));
}

TEST(Greedyify, KeepsAlreadyGreedyColouringsProper) {
  Torus2D torus(6);
  auto colours = makeGreedy(torus, diagonalColouring(torus));
  auto again = makeGreedy(torus, colours);
  EXPECT_TRUE(isGreedyColouring(torus, again));
}

class RowInvariantOnSatColourings
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RowInvariantOnSatColourings, Lemma12RowsAgreeAndLemma14Parity) {
  auto [n, seed] = GetParam();
  Torus2D torus(n);
  auto solved = solveGlobally(torus, problems::vertexColouring(3),
                              static_cast<std::uint64_t>(seed));
  ASSERT_TRUE(solved.feasible);
  auto colours = makeGreedy(torus, solved.labels);
  ASSERT_TRUE(isGreedyColouring(torus, colours));

  auto rows = allRowInvariants(torus, colours);
  for (int r = 1; r < n; ++r) {
    EXPECT_EQ(rows[static_cast<std::size_t>(r)], rows[0])
        << "row invariant differs at row " << r << " (n=" << n << ")";
  }
  long long s = rows[0];
  if (n % 2 == 1) {
    EXPECT_EQ(((s % 2) + 2) % 2, 1) << "s(n) must be odd";
  }
  EXPECT_LE(std::abs(s), n / 2);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, RowInvariantOnSatColourings,
    ::testing::Combine(::testing::Values(5, 6, 7, 8, 9),
                       ::testing::Values(1, 2, 3)));

TEST(RowInvariant, DiagonalColouringHasNonZeroInvariantOnOddTori) {
  // The (x+y) mod 3 colouring winds around the torus; its cycles cross every
  // row consistently, producing a non-zero s -- and different global
  // colourings realise different s, which is why no local algorithm can
  // produce all of them (the q-sum reduction).
  Torus2D torus(9);
  auto colours = makeGreedy(torus, diagonalColouring(torus));
  auto rows = allRowInvariants(torus, colours);
  for (int r = 1; r < torus.n(); ++r) {
    EXPECT_EQ(rows[static_cast<std::size_t>(r)], rows[0]);
  }
  EXPECT_NE(rows[0], 0);
}

TEST(RowInvariant, DistinctColouringsRealiseDistinctInvariants) {
  Torus2D torus(7);
  std::set<long long> values;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto solved = solveGlobally(torus, problems::vertexColouring(3), seed);
    ASSERT_TRUE(solved.feasible);
    auto colours = makeGreedy(torus, solved.labels);
    values.insert(rowInvariant(torus, colours, 0));
  }
  // Not a theorem, but overwhelmingly likely across seeds; the experiment
  // demonstrates that s is a genuine global degree of freedom.
  EXPECT_GE(values.size(), 1u);
  for (long long s : values) {
    EXPECT_EQ(((s % 2) + 2) % 2, 1);
    EXPECT_LE(std::abs(s), 7 / 2 + 1);
  }
}

// --- Theorem 25: the {0,3,4}-orientation invariant ---------------------------

class OrientationInvariant
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OrientationInvariant, VerticalRowSumsAgree) {
  auto [n, seed] = GetParam();
  Torus2D torus(n);
  auto lcl = problems::orientation({0, 3, 4});
  auto solved = solveGlobally(torus, lcl, static_cast<std::uint64_t>(seed));
  ASSERT_TRUE(solved.feasible) << "no {0,3,4}-orientation on n=" << n;
  ASSERT_TRUE(verify(torus, lcl, solved.labels));

  auto sums = allVerticalRowSums(torus, solved.labels);
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(sums[static_cast<std::size_t>(i)], sums[0])
        << "r(i) differs at i=" << i << " (n=" << n << ")";
  }
  EXPECT_LE(std::abs(sums[0]), n / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, OrientationInvariant,
    ::testing::Combine(::testing::Values(4, 5, 6, 7),
                       ::testing::Values(1, 2)));

TEST(OrientationInvariant, InDegreesMatchVerifierSemantics) {
  Torus2D torus(6);
  // Input orientation: everything points north/east -> in-degree 2 at all.
  std::vector<int> labels(static_cast<std::size_t>(torus.size()),
                          problems::orientationLabel(true, true));
  auto degrees = inDegrees(torus, labels);
  for (int d : degrees) EXPECT_EQ(d, 2);
}

TEST(OrientationInvariant, ZeroVerticesGetLabelZero) {
  Torus2D torus(5);
  auto lcl = problems::orientation({0, 3, 4});
  auto solved = solveGlobally(torus, lcl, 1);
  ASSERT_TRUE(solved.feasible);
  auto degree = inDegrees(torus, solved.labels);
  for (int x = 0; x < torus.n(); ++x) {
    for (int i = 0; i < torus.n(); ++i) {
      int lower = torus.id(x, i);
      int upper = torus.id(x, i + 1);
      if (degree[static_cast<std::size_t>(lower)] == 0 ||
          degree[static_cast<std::size_t>(upper)] == 0) {
        EXPECT_EQ(verticalEdgeLabel(torus, degree, solved.labels, x, i), 0);
      }
    }
  }
}

}  // namespace
}  // namespace lclgrid::lowerbound
