// Bit-sliced verification engine properties (lcl/label_planes.hpp + the
// kernels verify(VerifyRequest) selects): LabelPlanes transposition
// round-trips, the cyclic shift helpers, PairNetwork equivalence with its
// predicate, plan synthesis expectations over the registry, and the
// headline contract -- with the kernel gate on or off, counts are
// bit-for-bit identical to the functional tier over the whole problem
// registry, on odd and even torus sides (word-tail handling) and at 1/2/8
// engine lanes -- and the
// byte-lane colouring kernel against the functional tier on every SIMD
// rung, with clashes on the seams and shard boundaries, in core and
// streamed.
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "helpers/problem_registry.hpp"
#include "helpers/verify_request.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"

using namespace lclgrid;

namespace {

/// Restores the process-wide kernel gate on scope exit, so a failing
/// assertion cannot leak a pinned kernel into later tests.
class GateGuard {
 public:
  GateGuard() : saved_(bitslice::enabled()) {}
  ~GateGuard() { bitslice::setEnabled(saved_); }

 private:
  bool saved_;
};

std::vector<int> randomLabels(long long count, int range, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, range - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

/// The reference of the tier tests: the exact count of the functional tier
/// at one lane, the independent per-node loop.
template <typename Torus, typename Lcl>
std::int64_t functionalCount(const Torus& torus, const Lcl& lcl,
                             std::span<const int> labels) {
  return verify(verifyRequest(torus, lcl, labels, /*count=*/true, 1,
                              TierPin::kFunctional))
      .violations;
}

/// Asserts the automatic tier's count and verdict at 1, 2 and 8 lanes.
template <typename Torus, typename Lcl>
void expectAutoMatches(const Torus& torus, const Lcl& lcl,
                       std::span<const int> labels, std::int64_t reference,
                       const std::string& what) {
  for (int threads : {1, 2, 8}) {
    ASSERT_EQ(verify(verifyRequest(torus, lcl, labels, /*count=*/true,
                                   threads))
                  .violations,
              reference)
        << what << " threads=" << threads;
    ASSERT_EQ(verify(verifyRequest(torus, lcl, labels, /*count=*/false,
                                   threads))
                  .feasible,
              reference == 0)
        << what << " threads=" << threads;
  }
}

}  // namespace

TEST(LabelPlanes, TransposeRoundTripsOnOddAndEvenWidths) {
  for (int n : {1, 3, 5, 63, 64, 65, 127, 128, 130}) {
    for (int planes : {1, 2, 3, 6}) {
      const long long rows = 3;
      LabelPlanes buffer(n, rows, planes);
      const std::vector<int> labels =
          randomLabels(rows * n, 1 << planes,
                       static_cast<std::uint32_t>(n * 31 + planes));
      buffer.setRows(labels, 0, rows);
      std::vector<int> back(static_cast<std::size_t>(rows * n), -1);
      buffer.toLabels(back);
      ASSERT_EQ(back, labels) << "n=" << n << " planes=" << planes;
    }
  }
}

TEST(LabelPlanes, TransposedTailBitsAreZero) {
  // The shift helpers rely on bits >= n being zero in every plane word.
  for (int n : {1, 5, 63, 65, 130}) {
    LabelPlanes buffer(n, 1, 3);
    const std::vector<int> labels = randomLabels(n, 8, 7u * n);
    buffer.setRows(labels, 0, 1);
    const std::size_t W = buffer.wordsPerRow();
    for (int b = 0; b < 3; ++b) {
      const std::uint64_t last = buffer.row(0)[b * W + (W - 1)];
      EXPECT_EQ(last & ~bitslice::rowTailMask(n), 0u) << "n=" << n;
    }
  }
}

TEST(LabelPlanes, CyclicShiftsMatchPerBitDefinition) {
  for (int n : {1, 2, 5, 63, 64, 65, 129}) {
    const std::size_t W = bitslice::wordsPerRow(n);
    const std::vector<int> bits = randomLabels(n, 2, 91u * n);
    std::vector<std::uint64_t> src(W, 0), up(W, 0), down(W, 0);
    bitslice::transposeRow(bits.data(), n, 1, src.data());
    bitslice::shiftUpCyclic(src.data(), up.data(), n);
    bitslice::shiftDownCyclic(src.data(), down.data(), n);
    for (int x = 0; x < n; ++x) {
      const int upBit = static_cast<int>((up[x >> 6] >> (x & 63)) & 1u);
      const int downBit = static_cast<int>((down[x >> 6] >> (x & 63)) & 1u);
      ASSERT_EQ(upBit, bits[static_cast<std::size_t>((x + 1) % n)])
          << "n=" << n << " x=" << x;
      ASSERT_EQ(downBit, bits[static_cast<std::size_t>((x + n - 1) % n)])
          << "n=" << n << " x=" << x;
    }
    // The shifted streams keep the tail-zero invariant.
    EXPECT_EQ(up[W - 1] & ~bitslice::rowTailMask(n), 0u);
    EXPECT_EQ(down[W - 1] & ~bitslice::rowTailMask(n), 0u);
  }
}

TEST(PairNetworkBitslice, EvalMatchesPredicateOnRandomStreams) {
  std::mt19937 rng(20260726);
  for (int sigma = 1; sigma <= 8; ++sigma) {
    for (int round = 0; round < 8; ++round) {
      // Random pair relation, including the all-true / all-false corners.
      std::vector<std::uint8_t> table(
          static_cast<std::size_t>(sigma) * sigma, 0);
      for (auto& entry : table) {
        entry = static_cast<std::uint8_t>(
            round == 0 ? 1 : (round == 1 ? 0 : rng() & 1u));
      }
      const auto ok = [&](int lo, int hi) {
        return table[static_cast<std::size_t>(lo) * sigma + hi] != 0;
      };
      const bitslice::PairNetwork net =
          bitslice::compilePairNetwork(sigma, ok);
      const int n = 130;  // odd tail, three words
      const std::size_t W = bitslice::wordsPerRow(n);
      const std::vector<int> lo = randomLabels(n, sigma, rng());
      const std::vector<int> hi = randomLabels(n, sigma, rng());
      std::vector<std::uint64_t> loP(net.planes * W, 0);
      std::vector<std::uint64_t> hiP(net.planes * W, 0);
      bitslice::transposeRow(lo.data(), n, net.planes, loP.data());
      bitslice::transposeRow(hi.data(), n, net.planes, hiP.data());
      std::vector<std::uint64_t> out(W, 0);
      net.eval(loP.data(), hiP.data(), W, out.data());
      for (int x = 0; x < n; ++x) {
        const bool got = ((out[x >> 6] >> (x & 63)) & 1u) != 0;
        ASSERT_EQ(got, ok(lo[static_cast<std::size_t>(x)],
                          hi[static_cast<std::size_t>(x)]))
            << "sigma=" << sigma << " round=" << round << " x=" << x;
      }
    }
  }
}

TEST(PlanSynthesisBitslice, RegistryPlanShapesAreAsDocumented) {
  // Decomposable sigma <= 8 compiles pair networks; non-decomposable
  // sigma <= 4 compiles the nibble LUT; everything else stays on the
  // row-pointer kernel.
  using Kind = bitslice::BitslicePlan::Kind;
  const GridLcl colouring = problems::vertexColouring(4);
  ASSERT_NE(colouring.table().bitslicePlan(), nullptr);
  EXPECT_EQ(colouring.table().bitslicePlan()->kind, Kind::kPairPlanes);
  EXPECT_TRUE(colouring.table().bitslicePlan()->h.notEqual);
  const GridLcl weak = problems::weakColouring(3, 1);
  ASSERT_NE(weak.table().bitslicePlan(), nullptr);
  EXPECT_EQ(weak.table().bitslicePlan()->kind, Kind::kNibbleLut);
  const GridLcl edges = problems::edgeColouring(3);  // sigma = 9
  EXPECT_EQ(edges.table().bitslicePlan(), nullptr);
  const GridLclD colouring3 = problems_d::vertexColouring(3, 4);
  EXPECT_NE(colouring3.table().bitslicePlanD(), nullptr);
  const GridLclD colouring2 = problems_d::vertexColouring(2, 4);
  // d = 2 delegates: the plan lives on the 2D table.
  EXPECT_EQ(colouring2.table().bitslicePlanD(), nullptr);
  ASSERT_NE(colouring2.table().as2d(), nullptr);
  EXPECT_NE(colouring2.table().as2d()->bitslicePlan(), nullptr);
}

TEST(PlanSynthesisBitslice, GateAndSizeFloorControlSelection) {
  GateGuard guard;
  const GridLcl lcl = problems::vertexColouring(4);
  const long long big = 1 << 20;
  bitslice::setEnabled(true);
  EXPECT_TRUE(verifier_detail::bitsliceSelectedD(lcl.asD(), big));
  // Below the setup floor the row-pointer kernel stays selected.
  EXPECT_FALSE(verifier_detail::bitsliceSelectedD(
      lcl.asD(), bitslice::kMinNodesForBitslice - 1));
  bitslice::setEnabled(false);
  EXPECT_FALSE(verifier_detail::bitsliceSelectedD(lcl.asD(), big));
}

TEST(BitsliceVerifier, DirectKernelMatchesTableOnTinyOddSides) {
  // Below the selection floor the kernels are driven directly: tiny and
  // odd sides are exactly where the word-tail and wrap handling live.
  auto registry = problemRegistry();
  for (int n : {1, 2, 3, 5, 7, 13}) {
    for (const GridLcl& lcl : registry) {
      if (lcl.table().bitslicePlan() == nullptr) continue;
      const std::vector<int> labels = randomLabels(
          static_cast<long long>(n) * n, lcl.sigma(),
          static_cast<std::uint32_t>(n * 7919));
      const std::int64_t reference = verifier_detail::tableViolationRows(
          lcl.table(), n, labels.data(), 0, n, /*stopAtFirst=*/false);
      ASSERT_EQ(verifier_detail::bitsliceViolationRows(
                    lcl.table(), n, n, labels.data(), 0, n,
                    /*stopAtFirst=*/false),
                reference)
          << lcl.name() << " n=" << n;
      ASSERT_EQ(verifier_detail::bitsliceViolationRows(
                    lcl.table(), n, n, labels.data(), 0, n,
                    /*stopAtFirst=*/true) > 0,
                reference > 0)
          << lcl.name() << " n=" << n;
    }
  }
}

TEST(BitsliceVerifierD, DirectLineKernelMatchesTableOnTinySides) {
  for (int dims : {1, 3}) {
    for (int side : {2, 3, 5}) {
      TorusD torus(dims, side);
      const GridLclD lcl = problems_d::vertexColouring(dims, 4);
      ASSERT_NE(lcl.table().bitslicePlanD(), nullptr);
      const std::vector<int> labels = randomLabels(
          torus.size(), lcl.sigma(),
          static_cast<std::uint32_t>(dims * 100 + side));
      const long long lines = torus.size() / torus.n();
      const std::int64_t reference = verifier_detail::tableViolationLinesD(
          lcl.table(), torus, labels.data(), 0, lines, /*stopAtFirst=*/false);
      LabelPlanes planes =
          verifier_detail::bitsliceMakePlanesD(torus, lcl.table());
      planes.setRows(labels, 0, lines);
      ASSERT_EQ(verifier_detail::bitsliceViolationLinesD(
                    lcl.table(), torus, planes, labels.data(), 0, lines,
                    /*stopAtFirst=*/false),
                reference)
          << "dims=" << dims << " side=" << side;
    }
  }
}

TEST(BitsliceVerifier, MatchesRowPointerKernelOverRegistry2D) {
  GateGuard guard;
  auto registry = problemRegistry();
  // Odd sides stress the word-tail handling; 64 and 65 straddle the word
  // boundary; 3 makes every neighbour wrap.
  for (int n : {3, 5, 33, 64, 65}) {
    Torus2D torus(n);
    for (const GridLcl& lcl : registry) {
      for (std::uint32_t seed = 1; seed <= 3; ++seed) {
        const std::vector<int> labels = randomLabels(
            torus.size(), lcl.sigma(),
            seed * 977u + static_cast<std::uint32_t>(n));
        const std::int64_t reference = functionalCount(torus, lcl, labels);
        for (bool gate : {false, true}) {
          bitslice::setEnabled(gate);
          expectAutoMatches(torus, lcl, labels, reference,
                            lcl.name() + " n=" + std::to_string(n) +
                                " seed=" + std::to_string(seed) +
                                " gate=" + std::to_string(gate));
        }
      }
    }
  }
}

TEST(BitsliceVerifier, FeasibleColouringCountsZero) {
  GateGuard guard;
  bitslice::setEnabled(true);
  for (int n : {4, 64, 68}) {  // multiples of 4: the diagonal colouring wraps
    Torus2D torus(n);
    const GridLcl lcl = problems::vertexColouring(4);
    std::vector<int> labels(static_cast<std::size_t>(torus.size()));
    for (int v = 0; v < torus.size(); ++v) {
      labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 4;
    }
    expectAutoMatches(torus, lcl, labels, 0, "n=" + std::to_string(n));
  }
}

TEST(BitsliceVerifier, ThreadedCountsAreBitIdentical2D) {
  GateGuard guard;
  bitslice::setEnabled(true);
  auto registry = problemRegistry();
  for (int n : {31, 64}) {
    Torus2D torus(n);
    for (const GridLcl& lcl : registry) {
      const std::vector<int> labels =
          randomLabels(torus.size(), lcl.sigma(),
                       1234u + static_cast<std::uint32_t>(n));
      expectAutoMatches(torus, lcl, labels,
                        functionalCount(torus, lcl, labels),
                        lcl.name() + " n=" + std::to_string(n));
    }
  }
}

TEST(BitsliceVerifierD, MatchesRowPointerKernelOnTorusD) {
  GateGuard guard;
  for (int dims : {1, 2, 3}) {
    std::vector<GridLclD> registry;
    registry.push_back(problems_d::vertexColouring(dims, 4));
    registry.push_back(problems_d::vertexColouring(dims, 3));
    registry.push_back(problems_d::xorParity(dims));
    registry.push_back(problems_d::monotoneAxis(dims, 0, 3));
    for (int side : {3, 4, 9, 17}) {
      TorusD torus(dims, side);
      for (const GridLclD& lcl : registry) {
        const std::vector<int> labels = randomLabels(
            torus.size(), lcl.sigma(),
            static_cast<std::uint32_t>(dims * 131 + side));
        const std::int64_t reference = functionalCount(torus, lcl, labels);
        for (bool gate : {false, true}) {
          bitslice::setEnabled(gate);
          expectAutoMatches(torus, lcl, labels, reference,
                            lcl.name() + " dims=" + std::to_string(dims) +
                                " side=" + std::to_string(side) +
                                " gate=" + std::to_string(gate));
        }
      }
    }
  }
}

TEST(BitsliceVerifierD, LargerOddTorusMatchesAcrossThreads) {
  // One bigger d = 3 instance so the staged line kernel crosses several
  // slabs per shard and the odd side exercises every wrap.
  GateGuard guard;
  TorusD torus(3, 17);
  const GridLclD lcl = problems_d::vertexColouring(3, 4);
  const std::vector<int> labels = randomLabels(torus.size(), 4, 555u);
  bitslice::setEnabled(true);
  expectAutoMatches(torus, lcl, labels, functionalCount(torus, lcl, labels),
                    "vc:4 d=3 n=17");
}

TEST(BitsliceVerifierD, ProgressiveStagedVerifyHandlesFeasibleAndNot) {
  // A serial d >= 3 verify request stages one outermost-axis block ahead
  // of the scan; a feasible labelling must survive the full staged sweep,
  // and a single violation in the last block must still be found. The
  // sharded runs stage everything first and must agree.
  GateGuard guard;
  bitslice::setEnabled(true);
  TorusD torus(3, 8);  // 4 | 8: the diagonal colouring wraps cleanly
  const GridLclD lcl = problems_d::vertexColouring(3, 4);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (long long v = 0; v < torus.size(); ++v) {
    int sum = 0;
    for (int a = 0; a < 3; ++a) sum += torus.coord(v, a);
    labels[static_cast<std::size_t>(v)] = sum % 4;
  }
  const auto feasible = [&](int threads) {
    const VerifyResult result =
        verify(verifyRequest(torus, lcl, labels, /*count=*/false, threads));
    EXPECT_EQ(result.tier, VerifyTier::kBitsliced);
    return result.feasible;
  };
  for (int threads : {1, 2, 8}) {
    EXPECT_TRUE(feasible(threads)) << "threads=" << threads;
  }
  const int last = labels.back();
  labels.back() = labels[labels.size() - 2];  // clash on the last line
  for (int threads : {1, 2, 8}) {
    EXPECT_FALSE(feasible(threads)) << "threads=" << threads;
  }
  labels.back() = last;
  labels[0] = labels[1];  // clash in the first block
  for (int threads : {1, 2, 8}) {
    EXPECT_FALSE(feasible(threads)) << "threads=" << threads;
  }
  labels[0] = 4;  // out of the alphabet, staged with the first block
  for (int threads : {1, 2, 8}) {
    EXPECT_FALSE(feasible(threads)) << "threads=" << threads;
  }
}

TEST(BitsliceVerifier, BatchEntriesAgreeWithSerialKernel) {
  GateGuard guard;
  Torus2D torus(33);
  const GridLcl lcl = problems::vertexColouring(4);
  std::vector<int> batch;
  std::vector<std::int64_t> expected;
  for (std::uint32_t seed = 0; seed < 4; ++seed) {
    const std::vector<int> labels =
        randomLabels(torus.size(), lcl.sigma(), 31u + seed);
    expected.push_back(functionalCount(torus, lcl, labels));
    batch.insert(batch.end(), labels.begin(), labels.end());
  }
  bitslice::setEnabled(true);
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(verify(verifyRequest(torus, lcl, batch, /*count=*/true, threads))
                  .violationsPerLabelling,
              expected)
        << "threads=" << threads;
  }
}

namespace {

/// Restores the SIMD tier cap on scope exit. simdTier() reports the
/// effective tier (min of cap and availability), which re-applied as a cap
/// reproduces the original dispatch exactly.
class TierGuard {
 public:
  TierGuard() : saved_(bitslice::simdTier()) {}
  ~TierGuard() { bitslice::setSimdTier(saved_); }

 private:
  bitslice::SimdTier saved_;
};

}  // namespace

TEST(SimdTier, CapNeverExceedsAvailabilityAndOrdersCorrectly) {
  TierGuard guard;
  bitslice::setSimdTier(bitslice::SimdTier::kScalar);
  EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kScalar);
  bitslice::setSimdTier(bitslice::SimdTier::kAvx2);
  EXPECT_LE(bitslice::simdTier(), bitslice::SimdTier::kAvx2);
  if (bitslice::avx2Available()) {
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kAvx2);
  }
  bitslice::setSimdTier(bitslice::SimdTier::kAvx512);
  if (bitslice::avx512Available()) {
    EXPECT_TRUE(bitslice::avx2Available());  // the subsets imply AVX2
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kAvx512);
  } else if (bitslice::avx2Available()) {
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kAvx2);
  } else {
    EXPECT_EQ(bitslice::simdTier(), bitslice::SimdTier::kScalar);
  }
}

TEST(SimdTier, NotEqualKernelCountsMatchAcrossTiers) {
  // Rows long enough that the AVX-512 worker takes full 8-word strides
  // (W = ceil(781 / 64) = 13 >= 12) with a ragged tail word; the forced
  // scalar pass is the reference the wide clones must reproduce exactly.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  Torus2D torus(781);
  const GridLcl lcl = problems::vertexColouring(4);
  ASSERT_TRUE(lcl.table().bitslicePlan()->h.notEqual);
  for (std::uint32_t seed : {11u, 12u}) {
    std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(), seed);
    bitslice::setSimdTier(bitslice::SimdTier::kScalar);
    const std::int64_t reference = countViolations(torus, lcl, labels);
    const bool feasible = verify(torus, lcl, labels);
    for (auto tier : {bitslice::SimdTier::kAvx2, bitslice::SimdTier::kAvx512}) {
      bitslice::setSimdTier(tier);
      ASSERT_EQ(countViolations(torus, lcl, labels), reference)
          << "tier=" << static_cast<int>(tier) << " seed=" << seed;
      ASSERT_EQ(verify(torus, lcl, labels), feasible)
          << "tier=" << static_cast<int>(tier) << " seed=" << seed;
    }
  }
}

TEST(SimdTier, NotEqualFeasibleAndSingleViolationAgreeAcrossTiers) {
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  Torus2D torus(768);  // 4 | 768: diagonal colouring wraps; W = 12 exactly
  const GridLcl lcl = problems::vertexColouring(4);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % 4;
  }
  for (auto tier : {bitslice::SimdTier::kScalar, bitslice::SimdTier::kAvx2,
                    bitslice::SimdTier::kAvx512}) {
    bitslice::setSimdTier(tier);
    EXPECT_EQ(countViolations(torus, lcl, labels), 0)
        << "tier=" << static_cast<int>(tier);
    EXPECT_TRUE(verify(torus, lcl, labels)) << static_cast<int>(tier);
  }
  labels[1] = labels[0];  // one clash: two violated nodes (0<->1 edge sides)
  bitslice::setSimdTier(bitslice::SimdTier::kScalar);
  const std::int64_t reference = countViolations(torus, lcl, labels);
  EXPECT_GT(reference, 0);
  for (auto tier : {bitslice::SimdTier::kAvx2, bitslice::SimdTier::kAvx512}) {
    bitslice::setSimdTier(tier);
    EXPECT_EQ(countViolations(torus, lcl, labels), reference)
        << "tier=" << static_cast<int>(tier);
    EXPECT_FALSE(verify(torus, lcl, labels)) << static_cast<int>(tier);
  }
}

TEST(SimdTier, NibbleKernelCountsMatchAcrossTiers) {
  // weakColouring(3, 1) compiles the nibble LUT (non-decomposable,
  // sigma <= 4). 131 nodes per row = 16 full byte-words + 3 tail lanes for
  // the AVX2 gather, one full 64-lane stride + tail for AVX-512.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  const GridLcl lcl = problems::weakColouring(3, 1);
  ASSERT_EQ(lcl.table().bitslicePlan()->kind,
            bitslice::BitslicePlan::Kind::kNibbleLut);
  for (int n : {67, 131}) {
    Torus2D torus(n);
    for (std::uint32_t seed : {21u, 22u, 23u}) {
      std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(),
                                             seed + static_cast<unsigned>(n));
      bitslice::setSimdTier(bitslice::SimdTier::kScalar);
      const std::int64_t reference = countViolations(torus, lcl, labels);
      const bool feasible = verify(torus, lcl, labels);
      for (auto tier :
           {bitslice::SimdTier::kAvx2, bitslice::SimdTier::kAvx512}) {
        bitslice::setSimdTier(tier);
        ASSERT_EQ(countViolations(torus, lcl, labels), reference)
            << "tier=" << static_cast<int>(tier) << " n=" << n
            << " seed=" << seed;
        ASSERT_EQ(verify(torus, lcl, labels), feasible)
            << "tier=" << static_cast<int>(tier) << " n=" << n
            << " seed=" << seed;
      }
    }
  }
}

TEST(SimdTier, GenericPairPlanesUnaffectedByTierCap) {
  // Problems off the notEqual fast path stay on the minterm evaluator at
  // every tier -- the cap must not change their counts either.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  Torus2D torus(257);
  const GridLcl lcl = problems::maximalIndependentSet();
  const std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(), 7u);
  bitslice::setSimdTier(bitslice::SimdTier::kScalar);
  const std::int64_t reference = countViolations(torus, lcl, labels);
  bitslice::setSimdTier(bitslice::SimdTier::kAvx512);
  EXPECT_EQ(countViolations(torus, lcl, labels), reference);
}

TEST(SimdTier, TransposeReportsTheRowsUnsignedMaxAtEveryTier) {
  // The reported max is the bit-sliced tier's alphabet check, so it must
  // be exact wherever the largest label sits: in an AVX2 word, an SSE2
  // step or the scalar tail. A label outside the planes leaves every
  // other label's plane bits intact.
  TierGuard guard;
  for (auto tier : {bitslice::SimdTier::kScalar, bitslice::SimdTier::kAvx2,
                    bitslice::SimdTier::kAvx512}) {
    bitslice::setSimdTier(tier);
    for (int n : {1, 15, 16, 63, 64, 65, 84, 130}) {
      const std::vector<int> base =
          randomLabels(n, 4, 17u * static_cast<std::uint32_t>(n));
      const unsigned baseMax = static_cast<unsigned>(
          *std::max_element(base.begin(), base.end()));
      std::vector<std::uint64_t> planes(2 * bitslice::wordsPerRow(n), 0);
      ASSERT_EQ(bitslice::transposeRow(base.data(), n, 2, planes.data()),
                baseMax);
      for (int bad : {-1, 4, 300, INT_MIN, INT_MAX}) {
        for (int x = 0; x < n; ++x) {
          std::vector<int> labels = base;
          labels[static_cast<std::size_t>(x)] = bad;
          ASSERT_EQ(
              bitslice::transposeRow(labels.data(), n, 2, planes.data()),
              std::max(baseMax, static_cast<unsigned>(bad)))
              << "tier=" << static_cast<int>(tier) << " n=" << n
              << " x=" << x << " bad=" << bad;
          std::vector<int> back(static_cast<std::size_t>(n), -1);
          bitslice::untransposeRow(planes.data(), n, 2, back.data());
          back[static_cast<std::size_t>(x)] = bad;
          ASSERT_EQ(back, labels) << "tier=" << static_cast<int>(tier)
                                  << " n=" << n << " x=" << x;
        }
      }
    }
  }
}

// --- the byte-lane colouring kernel ------------------------------------------
// vc:2..vc:8 (one to three planes) run the byte-lane kernel. A pinned
// bit-sliced request must answer exactly like the functional tier on every
// SimdTier rung, at 1/2/8 lanes, in count and verify mode. The widths sit
// on and around the 16/32/64-label steps of the rungs; 781 adds twelve full
// words and a 13-lane tail.

namespace {

constexpr int kColouringWidths[] = {1,  2,  3,   15,  16,  17,  31,  32,
                                    33, 63, 64,  65,  127, 128, 129, 781};
constexpr bitslice::SimdTier kRungs[] = {bitslice::SimdTier::kScalar,
                                         bitslice::SimdTier::kAvx2,
                                         bitslice::SimdTier::kAvx512};
/// Rows per shard of the threaded runs, so clashes can sit on the rows
/// either side of a shard boundary.
constexpr std::int64_t kColouringGrain = 4;

VerifyResult runColouring(const Torus2D& torus, const GridLcl& lcl,
                          std::span<const int> labels, bool count,
                          int threads, TierPin pin) {
  VerifyRequest request;
  request.problem = &lcl;
  request.torus = &torus;
  request.labels = labels;
  request.options.countViolations = count;
  request.options.engine.threads = threads;
  request.options.engine.grain = kColouringGrain;
  request.options.tier = pin;
  return verify(request);
}

/// label = (x + y) mod k: a proper k-colouring unless n = 1 (mod k), where
/// the x and y seams clash.
std::vector<int> diagonalColouring(int n, int k) {
  std::vector<int> labels(static_cast<std::size_t>(n) * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      labels[static_cast<std::size_t>(y) * n + x] = (x + y) % k;
    }
  }
  return labels;
}

/// Runs the pinned bit-sliced tier on every rung and lane count against
/// the functional tier, in both modes.
void expectColouringMatchesFunctional(const Torus2D& torus, const GridLcl& lcl,
                                      const std::vector<int>& labels,
                                      const std::string& what) {
  TierGuard guard;
  for (bool count : {false, true}) {
    const VerifyResult reference =
        runColouring(torus, lcl, labels, count, 1, TierPin::kFunctional);
    for (bitslice::SimdTier rung : kRungs) {
      bitslice::setSimdTier(rung);
      for (int threads : {1, 2, 8}) {
        const VerifyResult result = runColouring(torus, lcl, labels, count,
                                                 threads, TierPin::kBitsliced);
        ASSERT_EQ(result.feasible, reference.feasible)
            << what << " count=" << count << " rung="
            << static_cast<int>(rung) << " threads=" << threads;
        if (count) {
          ASSERT_EQ(result.violations, reference.violations)
              << what << " rung=" << static_cast<int>(rung)
              << " threads=" << threads;
        }
      }
    }
  }
}

/// Sites of planted clashes on an n x n torus: the x seam (n - 1 <-> 0) on
/// the first, a middle and the last row, the y seam (row n - 1 <-> row 0),
/// and the rows either side of the first two shard boundaries. Each pair
/// is (node, node whose label it copies).
std::vector<std::pair<int, int>> seamClashes(int n) {
  const auto at = [n](int x, int y) { return y * n + x; };
  std::vector<std::pair<int, int>> sites = {
      {at(n - 1, 0), at(0, 0)},
      {at(n - 1, n / 2), at(0, n / 2)},
      {at(n - 1, n - 1), at(0, n - 1)},
      {at(n / 3, n - 1), at(n / 3, 0)},
      {at(0, n - 1), at(0, 0)}};
  for (int boundary = static_cast<int>(kColouringGrain);
       boundary < n && boundary <= 2 * kColouringGrain;
       boundary += static_cast<int>(kColouringGrain)) {
    sites.push_back({at(n - 1, boundary), at(n - 1, boundary - 1)});
    sites.push_back({at(n / 2, boundary - 1), at(n / 2, boundary)});
  }
  return sites;
}

std::string tempLabellingPath(int n, int k) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
         "/lclgrid_colouring_" + std::to_string(::getpid()) + "_" +
         std::to_string(n) + "_" + std::to_string(k) + ".lcllab";
}

}  // namespace

TEST(ColouringKernel, PinnedMatchesFunctionalOnEveryWidthRungAndLaneCount) {
  for (int k = 2; k <= 8; ++k) {
    const GridLcl lcl = problems::vertexColouring(k);
    const bitslice::BitslicePlan& plan = *lcl.table().bitslicePlan();
    ASSERT_TRUE(plan.h.notEqual && plan.v.notEqual) << lcl.name();
    ASSERT_EQ(plan.planes, bitslice::planeCount(k));
    for (int n : kColouringWidths) {
      const Torus2D torus(n);
      std::vector<int> planted = diagonalColouring(n, k);
      planted[static_cast<std::size_t>(n) * (n / 2) + n / 3] =
          planted[static_cast<std::size_t>(n) * (n / 2) + (n / 3 + 1) % n];
      const std::vector<std::vector<int>> labellings = {
          diagonalColouring(n, k), planted,
          randomLabels(torus.size(), k,
                       static_cast<std::uint32_t>(k * 1000 + n))};
      for (std::size_t i = 0; i < labellings.size(); ++i) {
        expectColouringMatchesFunctional(
            torus, lcl, labellings[i],
            lcl.name() + " n=" + std::to_string(n) +
                " labelling=" + std::to_string(i));
      }
    }
  }
}

TEST(ColouringKernel, SeamAndShardBoundaryClashesMatchFunctional) {
  const GridLcl lcl = problems::vertexColouring(4);
  // n != 1 (mod 4), so the diagonal colouring is proper before planting.
  for (int n : {15, 64, 66, 127, 130}) {
    const Torus2D torus(n);
    const std::vector<int> proper = diagonalColouring(n, 4);
    ASSERT_EQ(countViolations(torus, lcl, proper), 0) << n;
    std::vector<int> all = proper;
    for (const auto& [node, copied] : seamClashes(n)) {
      std::vector<int> labels = proper;
      labels[static_cast<std::size_t>(node)] =
          labels[static_cast<std::size_t>(copied)];
      all[static_cast<std::size_t>(node)] =
          all[static_cast<std::size_t>(copied)];
      ASSERT_GE(countViolations(torus, lcl, labels), 2)
          << "n=" << n << " node=" << node;
      expectColouringMatchesFunctional(
          torus, lcl, labels,
          "n=" + std::to_string(n) + " node=" + std::to_string(node));
    }
    expectColouringMatchesFunctional(torus, lcl, all,
                                     "n=" + std::to_string(n) + " all");
  }
}

TEST(ColouringKernel, StreamedLabellingsMatchFunctional) {
  // The same labellings from LCLLABv1 files, in slabs of three rows so the
  // passes cross slab boundaries, at 1 and 4 lanes on every rung.
  GateGuard gate;
  TierGuard guard;
  bitslice::setEnabled(true);
  for (int k : {2, 4, 8}) {
    const GridLcl lcl = problems::vertexColouring(k);
    for (int n : {16, 33, 65, 129}) {
      const Torus2D torus(n);
      ASSERT_TRUE(verifier_detail::bitsliceSelectedD(lcl.asD(), torus.size()));
      std::vector<int> planted = diagonalColouring(n, k);
      for (const auto& [node, copied] : seamClashes(n)) {
        planted[static_cast<std::size_t>(node)] =
            planted[static_cast<std::size_t>(copied)];
      }
      for (const std::vector<int>& labels :
           {diagonalColouring(n, k), planted}) {
        const std::string path = tempLabellingPath(n, k);
        writeLabellingFile(path, k, 2, n, labels);
        for (bool count : {false, true}) {
          const VerifyResult reference =
              runColouring(torus, lcl, labels, count, 1, TierPin::kFunctional);
          for (bitslice::SimdTier rung : kRungs) {
            bitslice::setSimdTier(rung);
            for (int threads : {1, 4}) {
              VerifyRequest request;
              request.problem = &lcl;
              request.labellingPath = path;
              request.options.countViolations = count;
              request.options.engine.threads = threads;
              request.options.window.rows = 3;
              const VerifyResult result = verify(request);
              EXPECT_EQ(result.feasible, reference.feasible)
                  << lcl.name() << " n=" << n << " count=" << count
                  << " rung=" << static_cast<int>(rung)
                  << " threads=" << threads;
              if (count) {
                EXPECT_EQ(result.violations, reference.violations)
                    << lcl.name() << " n=" << n
                    << " rung=" << static_cast<int>(rung)
                    << " threads=" << threads;
              }
            }
          }
        }
        std::remove(path.c_str());
      }
    }
  }
}
