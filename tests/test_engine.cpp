// Engine determinism and runtime tests: the work-stealing pool's loops, the
// sharded verifier's bit-identity with the functional tier at one lane
// across lane counts, fingerprint-keyed sweep caching, and the JSON report
// schema.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "helpers/verify_request.hpp"
#include "lcl/problems.hpp"

using namespace lclgrid;

namespace {

/// Same family as tests/test_lcl_table.cpp: every concrete problem class of
/// the paper with a compiled table.
std::vector<GridLcl> problemRegistry() {
  std::vector<GridLcl> registry;
  for (int k = 2; k <= 5; ++k) registry.push_back(problems::vertexColouring(k));
  registry.push_back(problems::maximalIndependentSet());
  registry.push_back(problems::independentSet());
  registry.push_back(problems::maximalMatching());
  registry.push_back(problems::edgeColouring(3));
  registry.push_back(problems::edgeColouring(4));
  registry.push_back(problems::orientation({2}));
  registry.push_back(problems::orientation({1, 3}));
  registry.push_back(problems::orientation({0, 4}));
  registry.push_back(problems::orientation({0, 1, 3}));
  registry.push_back(problems::noHorizontalOnePair());
  registry.push_back(problems::weakColouring(3, 1));
  registry.push_back(problems::weakColouring(2, 4));
  return registry;
}

std::vector<int> randomLabels(int count, int sigma, std::uint32_t seed,
                              bool withGarbage = false) {
  std::mt19937 rng(seed);
  // Occasionally out-of-alphabet labels exercise the functional fallback
  // and the out-of-range handling of the table path's precondition.
  std::uniform_int_distribution<int> dist(withGarbage ? -1 : 0,
                                          withGarbage ? sigma : sigma - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

/// The reference of the bit-identity tests: the exact count of the
/// functional tier at one lane.
std::int64_t functionalCount(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels) {
  return verify(verifyRequest(torus, lcl, labels, /*count=*/true, 1,
                              TierPin::kFunctional))
      .violations;
}

}  // namespace

TEST(ThreadPool, LanesMatchConstruction) {
  engine::ThreadPool one(1);
  EXPECT_EQ(one.lanes(), 1);
  engine::ThreadPool four(4);
  EXPECT_EQ(four.lanes(), 4);
  EXPECT_GE(engine::defaultThreads(), 1);
}

TEST(ThreadPool, OneLaneRequestsResolveToNoPool) {
  // One lane runs inline on every host: no private pool, no global pool.
  EXPECT_EQ(engine::PoolHandle({.threads = 1}).pool(), nullptr);
  engine::ThreadPool one(1);
  EXPECT_EQ(engine::PoolHandle({.threads = 4, .pool = &one}).pool(), nullptr);
  engine::ThreadPool two(2);
  EXPECT_EQ(engine::PoolHandle({.threads = 1, .pool = &two}).pool(), &two);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    const std::int64_t items = 1013;  // prime: uneven chunking
    std::vector<std::atomic<int>> hits(items);
    for (auto& h : hits) h.store(0);
    pool.parallelFor(0, items, /*grain=*/7,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         hits[static_cast<std::size_t>(i)].fetch_add(1);
                       }
                     });
    for (std::int64_t i = 0; i < items; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ReduceIsDeterministicAcrossThreadCounts) {
  // A deliberately non-commutative combine: with a fixed explicit grain the
  // chunk-order reduction must give one answer for every thread count.
  auto runWith = [](int threads) {
    engine::ThreadPool pool(threads);
    return pool.parallelReduce(
        0, 1000, /*grain=*/13, std::uint64_t{1},
        [](std::int64_t begin, std::int64_t end) {
          std::uint64_t h = 0;
          for (std::int64_t i = begin; i < end; ++i) {
            h = h * 1099511628211ULL + static_cast<std::uint64_t>(i);
          }
          return h;
        },
        [](std::uint64_t a, std::uint64_t b) {
          return a * 31 + b;  // order-sensitive on purpose
        });
  };
  const std::uint64_t serial = runWith(1);
  EXPECT_EQ(runWith(2), serial);
  EXPECT_EQ(runWith(8), serial);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  // The drain contract of submit(): every task submitted before the
  // destructor runs, even if the pool is torn down immediately after.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    {
      engine::ThreadPool pool(3);
      for (int i = 0; i < 8; ++i) {
        pool.submit([&ran]() { ran.fetch_add(1); });
      }
    }
    ASSERT_EQ(ran.load(), 8) << "round " << round;
  }
}

TEST(ThreadPool, SubmitSwallowsTaskExceptions) {
  std::atomic<int> ran{0};
  {
    engine::ThreadPool pool(2);
    pool.submit([]() { throw std::runtime_error("detached boom"); });
    pool.submit([&ran]() { ran.fetch_add(1); });
    // Destruction joins: the throwing task must neither terminate the
    // process nor lose the task behind it.
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  engine::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(0, 100, 1,
                       [](std::int64_t begin, std::int64_t) {
                         if (begin == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ran{0};
  pool.parallelFor(0, 10, 1,
                   [&](std::int64_t, std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(EngineVerifier, CountsBitIdenticalToSerialForRegistry) {
  for (const GridLcl& lcl : problemRegistry()) {
    for (int n : {3, 4, 5, 8}) {
      Torus2D torus(n);
      for (std::uint32_t seed : {1u, 2u}) {
        const bool garbage = seed == 2u;
        auto labels =
            randomLabels(torus.size(), lcl.sigma(), seed * 977, garbage);
        const std::int64_t serial = functionalCount(torus, lcl, labels);
        for (int threads : {1, 2, 8}) {
          engine::ThreadPool pool(threads);
          for (bool count : {true, false}) {
            VerifyRequest request =
                verifyRequest(torus, lcl, labels, count, threads);
            request.options.engine.pool = &pool;
            const VerifyResult result = verify(request);
            EXPECT_EQ(result.feasible, serial == 0)
                << lcl.name() << " n=" << n << " threads=" << threads;
            if (count) {
              EXPECT_EQ(result.violations, serial)
                  << lcl.name() << " n=" << n << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(EngineVerifier, BatchesBitIdenticalToSerialForRegistry) {
  const int batchSize = 5;
  for (const GridLcl& lcl : problemRegistry()) {
    for (int n : {4, 8}) {
      Torus2D torus(n);
      std::vector<int> batch;
      for (int i = 0; i < batchSize; ++i) {
        auto labels = randomLabels(torus.size(), lcl.sigma(),
                                   static_cast<std::uint32_t>(100 * n + i),
                                   /*withGarbage=*/i == 3);
        batch.insert(batch.end(), labels.begin(), labels.end());
      }
      std::vector<std::uint8_t> serialFeasible;
      std::vector<std::int64_t> serialCounts;
      const std::size_t nodes = static_cast<std::size_t>(torus.size());
      for (int i = 0; i < batchSize; ++i) {
        serialCounts.push_back(functionalCount(
            torus, lcl,
            std::span<const int>(batch).subspan(
                static_cast<std::size_t>(i) * nodes, nodes)));
        serialFeasible.push_back(serialCounts.back() == 0 ? 1 : 0);
      }
      for (int threads : {1, 2, 8}) {
        engine::ThreadPool pool(threads);
        VerifyRequest request =
            verifyRequest(torus, lcl, batch, /*count=*/false, threads);
        request.options.engine.pool = &pool;
        EXPECT_EQ(verify(request).feasiblePerLabelling, serialFeasible)
            << lcl.name() << " n=" << n << " threads=" << threads;
        request.options.countViolations = true;
        EXPECT_EQ(verify(request).violationsPerLabelling, serialCounts)
            << lcl.name() << " n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(EngineVerifier, SingleLabellingBatchUsesRowSharding) {
  // A batch of one labelling on a big torus is a single labelling: it
  // still parallelises (by rows), and reports through the aggregate fields.
  GridLcl lcl = problems::maximalIndependentSet();
  Torus2D torus(32);
  auto labels = randomLabels(torus.size(), lcl.sigma(), 21);
  const std::int64_t serial = functionalCount(torus, lcl, labels);
  for (int threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    for (bool count : {true, false}) {
      VerifyRequest request = verifyRequest(torus, lcl, labels, count, threads);
      request.options.engine.pool = &pool;
      const VerifyResult result = verify(request);
      EXPECT_EQ(result.labellings, 1);
      EXPECT_TRUE(result.feasiblePerLabelling.empty());
      EXPECT_TRUE(result.violationsPerLabelling.empty());
      EXPECT_EQ(result.feasible, serial == 0) << "threads=" << threads;
      if (count) {
        EXPECT_EQ(result.violations, serial) << "threads=" << threads;
      }
    }
  }
}

TEST(EngineVerifier, SizeMismatchThrowsLikeSerial) {
  GridLcl lcl = problems::independentSet();
  Torus2D torus(4);
  std::vector<int> wrong(torus.size() - 1, 0);
  for (int threads : {1, 2, 8}) {
    EXPECT_THROW(verify(verifyRequest(torus, lcl, wrong, true, threads)),
                 std::invalid_argument);
    EXPECT_THROW(verify(verifyRequest(torus, lcl, wrong, false, threads)),
                 std::invalid_argument);
  }
}

TEST(LclTableFingerprint, EqualContentHashesEqual) {
  GridLcl a = problems::vertexColouring(3);
  GridLcl b = problems::vertexColouring(3);
  EXPECT_EQ(a.table().fingerprint(), b.table().fingerprint());
}

TEST(LclTableFingerprint, RegistryProblemsArePairwiseDistinct) {
  // One pair of registry entries is the same relation under two names:
  // "differ from all 4 neighbours with 2 labels" IS proper 2-colouring.
  // The fingerprint is content-based, so it must identify them -- and
  // separate everything else.
  auto sameRelation = [](const GridLcl& a, const GridLcl& b) {
    return (a.name() == "vertex-2-colouring" &&
            b.name() == "weak-2-colouring-4") ||
           (a.name() == "weak-2-colouring-4" &&
            b.name() == "vertex-2-colouring");
  };
  auto registry = problemRegistry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    for (std::size_t j = i + 1; j < registry.size(); ++j) {
      if (sameRelation(registry[i], registry[j])) {
        EXPECT_EQ(registry[i].table().fingerprint(),
                  registry[j].table().fingerprint());
      } else {
        EXPECT_NE(registry[i].table().fingerprint(),
                  registry[j].table().fingerprint())
            << registry[i].name() << " vs " << registry[j].name();
      }
    }
  }
}

namespace {

engine::SweepOptions tinySweepOptions(int threads) {
  engine::SweepOptions options;
  options.oracle.synthesis.maxK = 1;
  options.oracle.synthesis.tryWiderShapes = false;
  options.oracle.probeSizes = {4};
  options.engine.threads = threads;
  return options;
}

}  // namespace

TEST(FamilySweep, CacheRunsOracleOncePerFingerprint) {
  // Two copies of the same relation plus one distinct problem: the oracle
  // must run exactly twice, with the duplicate served from the cache.
  std::vector<GridLcl> family = {problems::independentSet(),
                                 problems::independentSet(),
                                 problems::noHorizontalOnePair()};
  for (int threads : {1, 2, 8}) {
    auto report = engine::sweepFamily(family, tinySweepOptions(threads));
    EXPECT_EQ(report.oracleRuns, 2) << "threads=" << threads;
    EXPECT_EQ(report.cacheHits, 1) << "threads=" << threads;
    ASSERT_EQ(report.entries.size(), 3u);
    EXPECT_FALSE(report.entries[0].cacheHit);
    EXPECT_TRUE(report.entries[1].cacheHit);
    EXPECT_FALSE(report.entries[2].cacheHit);
    // The cached entry shares the exact report of its runner.
    EXPECT_EQ(report.entries[1].report.get(), report.entries[0].report.get());
    ASSERT_NE(report.entries[0].report, nullptr);
    ASSERT_NE(report.entries[2].report, nullptr);
    // Both problems are trivially solvable => O(1).
    EXPECT_EQ(report.entries[0].report->complexity,
              synthesis::GridComplexity::Constant);
    EXPECT_EQ(report.entries[2].report->complexity,
              synthesis::GridComplexity::Constant);
  }
}

TEST(FamilySweep, CacheOffRunsEveryProblem) {
  std::vector<GridLcl> family = {problems::independentSet(),
                                 problems::independentSet()};
  auto options = tinySweepOptions(2);
  options.cacheByFingerprint = false;
  auto report = engine::sweepFamily(family, options);
  EXPECT_EQ(report.oracleRuns, 2);
  EXPECT_EQ(report.cacheHits, 0);
}

TEST(FamilySweep, VerdictsMatchSerialAcrossThreadCounts) {
  std::vector<GridLcl> family = {
      problems::independentSet(), problems::orientation({2}),
      problems::maximalIndependentSet(), problems::orientation({1, 3, 4})};
  auto options = tinySweepOptions(1);
  options.oracle.probeSizes = {3, 4};
  auto serial = engine::sweepFamily(family, options);
  for (int threads : {2, 8}) {
    auto aligned = tinySweepOptions(threads);
    aligned.oracle.probeSizes = {3, 4};
    auto parallel = engine::sweepFamily(family, aligned);
    ASSERT_EQ(parallel.entries.size(), serial.entries.size());
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(parallel.entries[i].report->complexity,
                serial.entries[i].report->complexity)
          << family[i].name() << " threads=" << threads;
      EXPECT_EQ(parallel.entries[i].fingerprint,
                serial.entries[i].fingerprint);
    }
  }
}

TEST(FamilySweep, JsonFollowsRepoSchema) {
  std::vector<GridLcl> family = {problems::independentSet()};
  auto options = tinySweepOptions(1);
  auto report = engine::sweepFamily(family, options);
  const std::string json = engine::sweepReportJson(report, options);
  EXPECT_NE(json.find("\"name\":\"family_sweep\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"config\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"results\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"threads\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"complexity\":\"O(1)\""), std::string::npos) << json;
}
