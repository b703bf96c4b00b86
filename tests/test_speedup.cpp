#include <gtest/gtest.h>

#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/graph_view.hpp"
#include "local/ids.hpp"
#include "local/mis.hpp"
#include "speedup/speedup.hpp"
#include "speedup/voronoi.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"

namespace lclgrid::speedup {
namespace {

std::vector<std::uint8_t> misAnchors(const Torus2D& torus, int k,
                                     std::uint64_t seed) {
  auto mis = local::computeMis(local::l1PowerView(torus, k),
                               local::randomIds(torus.size(), seed));
  return {mis.inSet.begin(), mis.inSet.end()};
}

TEST(Voronoi, EveryNodeFindsAnAnchor) {
  Torus2D torus(24);
  auto anchors = misAnchors(torus, 3, 5);
  auto tiling = buildVoronoi(torus, anchors, 3);
  for (int v = 0; v < torus.size(); ++v) {
    int anchor = tiling.anchorOf[static_cast<std::size_t>(v)];
    ASSERT_GE(anchor, 0);
    EXPECT_TRUE(anchors[static_cast<std::size_t>(anchor)]);
    auto [dx, dy] = tiling.offset[static_cast<std::size_t>(v)];
    EXPECT_EQ(torus.shift(v, dx, dy), anchor);
    EXPECT_LE(std::abs(dx) + std::abs(dy), 3);
  }
}

TEST(Voronoi, AnchorsMapToThemselves) {
  Torus2D torus(20);
  auto anchors = misAnchors(torus, 2, 9);
  auto tiling = buildVoronoi(torus, anchors, 2);
  for (int v = 0; v < torus.size(); ++v) {
    if (anchors[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(tiling.anchorOf[static_cast<std::size_t>(v)], v);
    }
  }
}

TEST(Voronoi, ThrowsWithoutCoverage) {
  Torus2D torus(16);
  std::vector<std::uint8_t> anchors(static_cast<std::size_t>(torus.size()), 0);
  anchors[0] = 1;
  EXPECT_THROW(buildVoronoi(torus, anchors, 2), std::invalid_argument);
}

class LocalIdUniqueness : public ::testing::TestWithParam<int> {};

TEST_P(LocalIdUniqueness, NoRepeatsWithinHalfK) {
  // The key property of the Theorem 2 proof: local coordinates never repeat
  // within L1 distance k/2 when anchors form an MIS of G^(k/2).
  int k = GetParam();
  Torus2D torus(6 * k);
  auto anchors = misAnchors(torus, k / 2, 11);
  auto tiling = buildVoronoi(torus, anchors, k / 2);
  auto ids = localIdentifiers(torus, tiling, k / 2);
  for (int v = 0; v < torus.size(); ++v) {
    for (int u : torus.l1Ball(v, k / 2)) {
      if (u == v) continue;
      EXPECT_NE(ids[static_cast<std::size_t>(u)],
                ids[static_cast<std::size_t>(v)])
          << "repeat at distance " << torus.l1(u, v) << " (k=" << k << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, LocalIdUniqueness, ::testing::Values(4, 6, 8));

TEST(Speedup, TransformsSynthesizedMisAlgorithm) {
  // Theorem 2 end-to-end: inner algorithm = the synthesized normal form for
  // MIS; B runs it with Voronoi local identifiers and the instance-size lie.
  auto lcl = problems::maximalIndependentSet();
  auto synthesis = synthesis::synthesize(lcl, {.maxK = 1});
  ASSERT_TRUE(synthesis.success);
  synthesis::NormalFormAlgorithm inner(*synthesis.rule);

  InnerAlgorithm innerFn = [&inner](const Torus2D& torus,
                                    const std::vector<std::uint64_t>& ids,
                                    int /*claimedN*/) {
    auto run = inner.execute(torus, ids);
    if (!run.solved) throw std::runtime_error(run.failure);
    return InnerRun{run.labels, run.rounds};
  };

  Torus2D torus(64);
  auto ids = local::randomIds(torus.size(), 21);
  auto result = speedUp(torus, ids, /*k=*/16, innerFn);
  ASSERT_TRUE(result.solved) << result.failure;
  EXPECT_TRUE(verify(torus, lcl, result.labels));
  EXPECT_GT(result.anchorRounds, 0);
  EXPECT_GT(result.innerRounds, 0);
}

TEST(Speedup, RejectsBadParameters) {
  Torus2D torus(32);
  auto ids = local::randomIds(torus.size(), 1);
  InnerAlgorithm trivial = [](const Torus2D& t, const std::vector<std::uint64_t>&,
                              int) {
    return InnerRun{std::vector<int>(static_cast<std::size_t>(t.size()), 0), 0};
  };
  EXPECT_THROW(speedUp(torus, ids, 3, trivial), std::invalid_argument);
  EXPECT_THROW(speedUp(torus, ids, 64, trivial), std::invalid_argument);
}

TEST(Speedup, GuaranteeFlagReflectsRuntimeBound) {
  Torus2D torus(48);
  auto ids = local::randomIds(torus.size(), 2);
  InnerAlgorithm constantTime = [](const Torus2D& t,
                                   const std::vector<std::uint64_t>&, int) {
    // A 1-round inner algorithm for the trivially solvable all-zero
    // independent-set problem.
    return InnerRun{std::vector<int>(static_cast<std::size_t>(t.size()), 0), 1};
  };
  auto result = speedUp(torus, ids, 24, constantTime);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(result.theoremGuarantee);  // 1 < 24/4 - 4
  EXPECT_TRUE(verify(torus, problems::independentSet(), result.labels));
}

}  // namespace
}  // namespace lclgrid::speedup
