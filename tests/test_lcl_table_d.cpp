// Property tests for the d-dimensional compiled constraint-table core
// (LclTableD / GridLclD) and the TorusD verification stack:
//  * table == predicate agreement over all of sigma^(2d+1) tuples for
//    small alphabets at d = 1/2/3,
//  * the d = 2 delegation is bit-for-bit the existing LclTable (shared
//    rows, equal strides, equal derived data),
//  * per-axis pair projections and decomposability vs. brute force over
//    the raw predicate,
//  * disjointUnion / remap composition vs. predicate composition,
//  * serial TorusD verification vs. a step-based reference, and
//  * parallel-verify determinism: counts bit-identical at 1/2/8 threads.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"
#include "grid/torusd.hpp"
#include "helpers/verify_request.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/lcl_table.hpp"
#include "lcl/lcl_table_d.hpp"
#include "lcl/problems.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"

namespace lclgrid {
namespace {

/// d-dimensional problems at small parameters: every compiled problem the
/// d-dimensional front end ships, at d = 1, 2 and 3, plus dependency-mask
/// variety (full masks, two-slot masks, an asymmetric axis).
std::vector<GridLclD> problemRegistryD() {
  std::vector<GridLclD> registry;
  for (int dims = 1; dims <= 3; ++dims) {
    for (int colours = 2; colours <= 3; ++colours) {
      registry.push_back(problems_d::vertexColouring(dims, colours));
    }
    registry.push_back(problems_d::xorParity(dims));
    for (int axis = 0; axis < dims; ++axis) {
      registry.push_back(problems_d::monotoneAxis(dims, axis, 3));
    }
  }
  return registry;
}

/// Calls f(c, nbrs) for every tuple of sigma^(2d+1).
template <typename F>
void forEachTuple(int dims, int sigma, F&& f) {
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  while (true) {
    for (int c = 0; c < sigma; ++c) f(c, nbrs);
    int slot = 0;
    while (slot < 2 * dims && ++nbrs[static_cast<std::size_t>(slot)] == sigma) {
      nbrs[static_cast<std::size_t>(slot)] = 0;
      ++slot;
    }
    if (slot == 2 * dims) break;
  }
}

std::vector<int> randomLabels(long long count, int sigma,
                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, sigma - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

TEST(LclTableD, TableAgreesWithPredicateOnAllTuples) {
  for (const GridLclD& lcl : problemRegistryD()) {
    ASSERT_TRUE(lcl.hasTable()) << lcl.name();
    const LclTableD& table = lcl.table();
    forEachTuple(lcl.dims(), lcl.sigma(), [&](int c, const std::vector<int>& nbrs) {
      EXPECT_EQ(table.allows(c, nbrs), lcl.predicate()(c, nbrs))
          << lcl.name() << " at c=" << c;
    });
  }
}

TEST(LclTableD, Dim2DelegationIsBitForBitTheLclTable) {
  // The same relation compiled through both front ends: the d = 2 table
  // must *be* the 2D table -- shared rows, equal strides in the slot
  // mapping [E, W, N, S], and equal derived data.
  const GridLcl flat = problems::vertexColouring(3);
  const GridLclD lifted = problems_d::vertexColouring(2, 3);
  ASSERT_TRUE(lifted.hasTable());
  const LclTableD& tableD = lifted.table();
  const LclTable& table2d = flat.table();

  ASSERT_NE(tableD.as2d(), nullptr);
  const LclTable& delegated = *tableD.as2d();
  EXPECT_TRUE(delegated.sameContent(table2d));
  EXPECT_EQ(delegated.fingerprint(), table2d.fingerprint());
  EXPECT_EQ(tableD.fingerprint(), table2d.fingerprint());

  // The D view shares the delegated rows rather than copying them.
  EXPECT_EQ(tableD.rowData(), delegated.rowData());
  ASSERT_EQ(tableD.rowCount(), table2d.rowCount());
  for (std::size_t i = 0; i < table2d.rowCount(); ++i) {
    EXPECT_EQ(tableD.rowData()[i], table2d.rowData()[i]);
  }
  EXPECT_EQ(tableD.slotStrides()[0], table2d.strideE());
  EXPECT_EQ(tableD.slotStrides()[1], table2d.strideW());
  EXPECT_EQ(tableD.slotStrides()[2], table2d.strideN());
  EXPECT_EQ(tableD.slotStrides()[3], table2d.strideS());

  EXPECT_EQ(tableD.trivialLabel(), table2d.trivialLabel());
  EXPECT_EQ(tableD.edgeDecomposable(), table2d.edgeDecomposable());
  const int s = table2d.sigma();
  for (int lo = 0; lo < s; ++lo) {
    for (int up = 0; up < s; ++up) {
      EXPECT_EQ(tableD.pairOk(0, lo, up), table2d.horizontalOk(lo, up));
      EXPECT_EQ(tableD.pairOk(1, lo, up), table2d.verticalOk(lo, up));
    }
  }

  // Every query agrees with the flat table's (n, e, s, w) convention.
  forEachTuple(2, s, [&](int c, const std::vector<int>& nbrs) {
    EXPECT_EQ(tableD.allows(c, nbrs),
              table2d.allows(c, nbrs[2], nbrs[0], nbrs[3], nbrs[1]));
  });
}

TEST(LclTableD, GridLclViewSharesTheCompiledTable) {
  // GridLcl::asD() is built once per problem and shared by copies; it
  // views the 2D table's rows instead of compiling its own.
  const GridLcl flat = problems::weakColouring(3, 1);
  const GridLclD& view = flat.asD();
  EXPECT_EQ(view.dims(), 2);
  EXPECT_EQ(view.sigma(), flat.sigma());
  ASSERT_TRUE(view.hasTable());
  EXPECT_EQ(view.table().as2d(), &flat.table());
  EXPECT_EQ(view.table().rowData(), flat.table().rowData());
  EXPECT_EQ(view.table().fingerprint(), flat.table().fingerprint());
  const GridLcl copy = flat;
  EXPECT_EQ(&copy.asD(), &view);
  // Beyond the table cap the view carries the predicate alone.
  const GridLcl wide("wide", 70, kDepE, [](int c, int, int e, int, int) {
    return c != e;
  });
  ASSERT_FALSE(wide.hasTable());
  EXPECT_FALSE(wide.asD().hasTable());
  const int eastClash[4] = {5, 0, 0, 0};  // slots [E, W, N, S]
  const int westClash[4] = {0, 5, 0, 0};
  EXPECT_FALSE(wide.asD().allows(5, eastClash));
  EXPECT_TRUE(wide.asD().allows(5, westClash));
}

TEST(LclTableD, Dim2CompileMatchesFromTable2D) {
  const GridLcl flat = problems::maximalIndependentSet();
  const LclTableD wrapped =
      LclTableD::fromTable2D(std::make_shared<const LclTable>(flat.table()));
  const LclTableD compiled = LclTableD::compile(
      2, flat.sigma(), wrapped.deps(), [&](int c, std::span<const int> nbrs) {
        return flat.predicate()(c, nbrs[2], nbrs[0], nbrs[3], nbrs[1]);
      });
  EXPECT_TRUE(wrapped.sameContent(compiled));
  EXPECT_EQ(wrapped.fingerprint(), compiled.fingerprint());
}

TEST(LclTableD, PairProjectionsMatchBruteForce) {
  for (const GridLclD& lcl : problemRegistryD()) {
    const int s = lcl.sigma();
    const int d = lcl.dims();
    const LclTableD& table = lcl.table();
    // Brute force over the raw predicate: a pair (lower, upper) along axis
    // a participates iff it occurs in some allowed tuple, viewed from
    // either endpoint.
    std::vector<std::uint8_t> ref(
        static_cast<std::size_t>(d) * s * s, 0);
    auto refAt = [&](int axis, int lo, int up) -> std::uint8_t& {
      return ref[(static_cast<std::size_t>(axis) * s + lo) * s + up];
    };
    forEachTuple(d, s, [&](int c, const std::vector<int>& nbrs) {
      if (!lcl.predicate()(c, nbrs)) return;
      for (int a = 0; a < d; ++a) {
        refAt(a, c, nbrs[static_cast<std::size_t>(2 * a)]) = 1;
        refAt(a, nbrs[static_cast<std::size_t>(2 * a + 1)], c) = 1;
      }
    });
    for (int a = 0; a < d; ++a) {
      for (int lo = 0; lo < s; ++lo) {
        for (int up = 0; up < s; ++up) {
          EXPECT_EQ(table.pairOk(a, lo, up), refAt(a, lo, up) != 0)
              << lcl.name() << " axis " << a << " pair (" << lo << "," << up
              << ")";
        }
      }
    }
    // Decomposability vs. brute force: the projections reproduce the
    // relation exactly.
    bool decomposable = true;
    forEachTuple(d, s, [&](int c, const std::vector<int>& nbrs) {
      bool byPairs = true;
      for (int a = 0; a < d && byPairs; ++a) {
        byPairs = refAt(a, c, nbrs[static_cast<std::size_t>(2 * a)]) &&
                  refAt(a, nbrs[static_cast<std::size_t>(2 * a + 1)], c);
      }
      if (byPairs != lcl.predicate()(c, nbrs)) decomposable = false;
    });
    EXPECT_EQ(table.edgeDecomposable(), decomposable) << lcl.name();
  }
}

TEST(LclTableD, TrivialLabelMatchesConstantProbe) {
  for (const GridLclD& lcl : problemRegistryD()) {
    int expected = -1;
    std::vector<int> constant(static_cast<std::size_t>(2 * lcl.dims()), 0);
    for (int c = 0; c < lcl.sigma() && expected < 0; ++c) {
      std::fill(constant.begin(), constant.end(), c);
      if (lcl.predicate()(c, constant)) expected = c;
    }
    EXPECT_EQ(lcl.trivialLabel(), expected) << lcl.name();
    EXPECT_EQ(lcl.hasTrivialSolution(), expected >= 0) << lcl.name();
  }
}

TEST(LclTableD, DisjointUnionComposesFamilies) {
  for (int dims = 1; dims <= 3; ++dims) {
    const GridLclD p = problems_d::vertexColouring(dims, 2);
    const GridLclD q = problems_d::xorParity(dims);
    const LclTableD u = LclTableD::disjointUnion(p.table(), q.table());
    const int sigmaP = p.sigma();
    EXPECT_EQ(u.sigma(), sigmaP + q.sigma());
    EXPECT_EQ(u.dims(), dims);
    forEachTuple(dims, u.sigma(), [&](int c, const std::vector<int>& nbrs) {
      bool inP = c < sigmaP;
      bool consistent = true;
      for (int nbr : nbrs) consistent = consistent && ((nbr < sigmaP) == inP);
      bool expected = false;
      if (consistent) {
        std::vector<int> sub = nbrs;
        for (int& nbr : sub) nbr -= inP ? 0 : sigmaP;
        expected = inP ? p.predicate()(c, sub)
                       : q.predicate()(c - sigmaP, sub);
      }
      EXPECT_EQ(u.allows(c, nbrs), expected)
          << "d=" << dims << " c=" << c;
    });
  }
}

TEST(LclTableD, RemapPermutesAndRestrictsLabels) {
  for (int dims = 1; dims <= 3; ++dims) {
    const GridLclD p = problems_d::vertexColouring(dims, 3);
    // A swap of labels 0 and 2 plus a duplicate of label 1.
    const std::vector<int> toOld = {2, 1, 0, 1};
    const LclTableD r = LclTableD::remap(p.table(), toOld);
    EXPECT_EQ(r.sigma(), 4);
    forEachTuple(dims, 4, [&](int c, const std::vector<int>& nbrs) {
      std::vector<int> old = nbrs;
      for (int& nbr : old) nbr = toOld[static_cast<std::size_t>(nbr)];
      EXPECT_EQ(r.allows(c, nbrs),
                p.predicate()(toOld[static_cast<std::size_t>(c)], old));
    });
  }
}

TEST(LclTableD, ForbiddenIterationCoversComplement) {
  for (const GridLclD& lcl : problemRegistryD()) {
    const LclTableD& table = lcl.table();
    long long forbidden = 0;
    table.forEachForbidden([&](int c, std::span<const int> nbrs) {
      EXPECT_FALSE(lcl.predicate()(c, std::vector<int>(nbrs.begin(), nbrs.end())))
          << lcl.name();
      ++forbidden;
    });
    long long allowed = 0;
    table.forEachAllowed(
        [&](int, std::span<const int>) { ++allowed; });
    EXPECT_EQ(forbidden, table.forbiddenRowCount()) << lcl.name();
    EXPECT_EQ(forbidden + allowed,
              static_cast<long long>(table.rowCount()) * lcl.sigma())
        << lcl.name();
  }
}

TEST(LclTableD, FingerprintSeparatesRegistryAndTracksContent) {
  const auto registry = problemRegistryD();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    for (std::size_t j = i + 1; j < registry.size(); ++j) {
      const LclTableD& a = registry[i].table();
      const LclTableD& b = registry[j].table();
      EXPECT_EQ(a.sameContent(b), a.fingerprint() == b.fingerprint())
          << registry[i].name() << " vs " << registry[j].name();
    }
  }
  // Identity remap preserves content and fingerprint.
  const LclTableD& p = registry[0].table();
  std::vector<int> identity(static_cast<std::size_t>(p.sigma()));
  for (int c = 0; c < p.sigma(); ++c) identity[static_cast<std::size_t>(c)] = c;
  const LclTableD r = LclTableD::remap(p, identity);
  EXPECT_TRUE(r.sameContent(p));
  EXPECT_EQ(r.fingerprint(), p.fingerprint());
}

// --- TorusD verification ---------------------------------------------------

/// Step-based reference count, independent of the table kernels.
std::int64_t referenceCount(const TorusD& torus, const GridLclD& lcl,
                            const std::vector<int>& labels) {
  const int dims = torus.dims();
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::int64_t bad = 0;
  for (long long v = 0; v < torus.size(); ++v) {
    const int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= lcl.sigma()) {
      ++bad;
      continue;
    }
    for (int a = 0; a < dims; ++a) {
      nbrs[static_cast<std::size_t>(2 * a)] =
          labels[static_cast<std::size_t>(torus.step(v, a, true))];
      nbrs[static_cast<std::size_t>(2 * a + 1)] =
          labels[static_cast<std::size_t>(torus.step(v, a, false))];
    }
    if (!lcl.predicate()(c, nbrs)) ++bad;
  }
  return bad;
}

TEST(VerifierD, TableKernelMatchesReferenceAcrossDims) {
  std::uint32_t seed = 1234;
  for (int dims = 1; dims <= 4; ++dims) {
    const int n = dims <= 2 ? 7 : (dims == 3 ? 5 : 4);
    const TorusD torus(dims, n);
    const std::vector<GridLclD> lcls = {
        problems_d::vertexColouring(dims, 3), problems_d::xorParity(dims),
        problems_d::monotoneAxis(dims, dims - 1, 3)};
    for (const GridLclD& lcl : lcls) {
      const auto labels = randomLabels(torus.size(), lcl.sigma(), seed++);
      const std::int64_t expected = referenceCount(torus, lcl, labels);
      EXPECT_EQ(verify(verifyRequest(torus, lcl, labels, true)).violations,
                expected)
          << lcl.name() << " n=" << n;
      EXPECT_EQ(verify(verifyRequest(torus, lcl, labels, false)).feasible,
                expected == 0)
          << lcl.name();
      EXPECT_EQ(listViolations(torus, lcl, labels,
                               static_cast<int>(torus.size()))
                    .size(),
                static_cast<std::size_t>(expected))
          << lcl.name();
    }
  }
}

TEST(VerifierD, FeasibleColouringVerifies) {
  // (sum of coords) mod k is a proper colouring when k | n and k >= 3
  // (every +-1 step changes the sum by +-1 mod k != 0).
  const TorusD torus(3, 6);
  const GridLclD lcl = problems_d::vertexColouring(3, 3);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (long long v = 0; v < torus.size(); ++v) {
    const auto coords = torus.coords(v);
    labels[static_cast<std::size_t>(v)] =
        (coords[0] + coords[1] + coords[2]) % 3;
  }
  EXPECT_TRUE(verify(verifyRequest(torus, lcl, labels, false)).feasible);
  EXPECT_EQ(verify(verifyRequest(torus, lcl, labels, true)).violations, 0);
}

TEST(VerifierD, FunctionalFallbackAndOutOfRangeLabels) {
  const TorusD torus(3, 4);
  // sigma = 70 exceeds the 64-label table cap: functional path.
  GridLclD big("big-colouring-d3", 3, 70, LclTableD::fullDeps(3),
               [](int c, std::span<const int> nbrs) {
                 for (int nbr : nbrs) {
                   if (nbr == c) return false;
                 }
                 return true;
               });
  EXPECT_FALSE(big.hasTable());
  const auto labels = randomLabels(torus.size(), big.sigma(), 99);
  EXPECT_EQ(verify(verifyRequest(torus, big, labels, true)).violations,
            referenceCount(torus, big, labels));

  // Out-of-alphabet labels force the compiled problem off the table path.
  const GridLclD small = problems_d::vertexColouring(3, 3);
  auto bad = randomLabels(torus.size(), small.sigma(), 100);
  bad[5] = 42;
  EXPECT_EQ(verify(verifyRequest(torus, small, bad, true)).violations,
            referenceCount(torus, small, bad));
  EXPECT_FALSE(verify(verifyRequest(torus, small, bad, false)).feasible);
}

TEST(VerifierD, TableFirstProblemRejectsOutOfRangeLabels) {
  // A table-first GridLclD has no raw predicate; its fallback predicate
  // must reject out-of-alphabet labels instead of indexing the table with
  // them (the verifier feeds garbage labels through the predicate path).
  const GridLclD p = problems_d::vertexColouring(3, 2);
  const GridLclD q = problems_d::xorParity(3);
  const GridLclD u("union",
                   LclTableD::disjointUnion(p.table(), q.table()));
  const std::vector<int> garbage = {1000000, 0, 0, 0, 0, 0};
  EXPECT_FALSE(u.allows(0, std::span<const int>(garbage)));
  EXPECT_FALSE(u.predicate()(1000000, std::vector<int>(6, 0)));

  const TorusD torus(3, 4);
  auto labels = randomLabels(torus.size(), u.sigma(), 4242);
  labels[7] = 1000000;
  EXPECT_FALSE(verify(verifyRequest(torus, u, labels, false)).feasible);
  EXPECT_GE(verify(verifyRequest(torus, u, labels, true)).violations, 1);
}

TEST(VerifierD, BatchesMatchSingleCalls) {
  const TorusD torus(3, 4);
  const GridLclD lcl = problems_d::vertexColouring(3, 3);
  const int batchSize = 5;
  std::vector<int> batch;
  std::vector<std::int64_t> expectedCounts;
  for (int i = 0; i < batchSize; ++i) {
    const auto labels = randomLabels(torus.size(), lcl.sigma(), 2000 + i);
    batch.insert(batch.end(), labels.begin(), labels.end());
    expectedCounts.push_back(
        verify(verifyRequest(torus, lcl, labels, true)).violations);
  }
  EXPECT_EQ(verify(verifyRequest(torus, lcl, batch, true))
                .violationsPerLabelling,
            expectedCounts);
  const auto feasible =
      verify(verifyRequest(torus, lcl, batch, false)).feasiblePerLabelling;
  ASSERT_EQ(feasible.size(), static_cast<std::size_t>(batchSize));
  for (int i = 0; i < batchSize; ++i) {
    EXPECT_EQ(feasible[static_cast<std::size_t>(i)] != 0,
              expectedCounts[static_cast<std::size_t>(i)] == 0);
  }
  std::vector<int> ragged(batch.begin(), batch.end() - 1);
  EXPECT_THROW(verify(verifyRequest(torus, lcl, ragged, true)),
               std::invalid_argument);
}

TEST(VerifierD, DimensionMismatchThrows) {
  const TorusD torus(3, 4);
  const GridLclD lcl = problems_d::vertexColouring(2, 3);
  const std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);
  EXPECT_THROW(verify(verifyRequest(torus, lcl, labels, true)),
               std::invalid_argument);
  EXPECT_THROW(verify(verifyRequest(torus, lcl, labels, false)),
               std::invalid_argument);
}

TEST(VerifierD, ParallelCountsBitIdenticalAt128Threads) {
  std::uint32_t seed = 777;
  for (int dims = 2; dims <= 3; ++dims) {
    const int n = dims == 2 ? 10 : 6;
    const TorusD torus(dims, n);
    const std::vector<GridLclD> lcls = {
        problems_d::vertexColouring(dims, 3), problems_d::xorParity(dims),
        problems_d::monotoneAxis(dims, 0, 3)};
    for (const GridLclD& lcl : lcls) {
      const auto labels = randomLabels(torus.size(), lcl.sigma(), seed++);
      const std::int64_t serial = referenceCount(torus, lcl, labels);
      for (int threads : {1, 2, 8}) {
        engine::ThreadPool pool(threads);
        for (bool count : {true, false}) {
          VerifyRequest request =
              verifyRequest(torus, lcl, labels, count, threads);
          // Explicit grain pins chunk boundaries across thread counts.
          request.options.engine.grain = 2;
          request.options.engine.pool = &pool;
          const VerifyResult result = verify(request);
          EXPECT_EQ(result.feasible, serial == 0)
              << lcl.name() << " threads=" << threads;
          if (count) {
            EXPECT_EQ(result.violations, serial)
                << lcl.name() << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(VerifierD, ParallelBatchesBitIdenticalAt128Threads) {
  const TorusD torus(3, 4);
  const GridLclD lcl = problems_d::xorParity(3);
  const int batchSize = 6;
  std::vector<int> batch;
  for (int i = 0; i < batchSize; ++i) {
    const auto labels = randomLabels(torus.size(), lcl.sigma(), 3000 + i);
    batch.insert(batch.end(), labels.begin(), labels.end());
  }
  std::vector<std::int64_t> serialCounts;
  std::vector<std::uint8_t> serialFeasible;
  const std::size_t nodes = static_cast<std::size_t>(torus.size());
  for (int i = 0; i < batchSize; ++i) {
    serialCounts.push_back(referenceCount(
        torus, lcl,
        std::vector<int>(batch.begin() + static_cast<long>(i * nodes),
                         batch.begin() + static_cast<long>((i + 1) * nodes))));
    serialFeasible.push_back(serialCounts.back() == 0 ? 1 : 0);
  }
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    VerifyRequest request = verifyRequest(torus, lcl, batch, true, threads);
    request.options.engine.grain = 1;
    request.options.engine.pool = &pool;
    EXPECT_EQ(verify(request).violationsPerLabelling, serialCounts)
        << "threads=" << threads;
    request.options.countViolations = false;
    EXPECT_EQ(verify(request).feasiblePerLabelling, serialFeasible)
        << "threads=" << threads;
  }
  // A one-labelling request takes the sharded-single path.
  const std::span<const int> one(batch.data(), nodes);
  for (int threads : {2, 8}) {
    engine::ThreadPool pool(threads);
    VerifyRequest request = verifyRequest(torus, lcl, one, true, threads);
    request.options.engine.pool = &pool;
    EXPECT_EQ(verify(request).violations, serialCounts[0])
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lclgrid
