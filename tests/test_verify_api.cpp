// The verify(VerifyRequest) front door (lcl/verify_api.hpp): bit-identity
// of every request shape (serial and threaded, single and batch, 2D and
// d-dimensional, in-core and streaming) with the functional tier at one
// lane -- the independent per-node loop --, tier pinning incl. its error
// paths, out-of-alphabet labels on every kernel shape (the poison matrix),
// uncompiled 2D problems against a brute-force loop, the malformed-request
// diagnostics, the Torus2D helpers, and the classify() front door with its
// cross-call ReportCache.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engine/family_sweep.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "helpers/verify_request.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"
#include "support/lru_cache.hpp"
#include "support/telemetry.hpp"

using namespace lclgrid;

namespace {

std::vector<GridLcl> problemRegistry() {
  std::vector<GridLcl> registry;
  registry.push_back(problems::vertexColouring(4));
  registry.push_back(problems::maximalIndependentSet());
  registry.push_back(problems::maximalMatching());
  registry.push_back(problems::edgeColouring(4));
  registry.push_back(problems::orientation({2}));
  registry.push_back(problems::noHorizontalOnePair());
  registry.push_back(problems::weakColouring(3, 1));
  return registry;
}

std::vector<int> randomLabels(int sigma, std::size_t count,
                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> label(0, sigma - 1);
  std::vector<int> labels(count);
  for (int& value : labels) value = label(rng);
  return labels;
}

std::string tempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

}  // namespace

TEST(VerifyApi, MatchesSerialAndThreadedOverloadsAcrossRegistry) {
  const Torus2D torus(8);
  int seed = 1;
  for (const GridLcl& problem : problemRegistry()) {
    const std::vector<int> labels = randomLabels(
        problem.sigma(), static_cast<std::size_t>(torus.size()), seed++);
    const std::int64_t expectCount =
        verify(verifyRequest(torus, problem, labels, /*count=*/true, 1,
                             TierPin::kFunctional))
            .violations;
    const bool expectFeasible = expectCount == 0;
    // The Torus2D helpers are the serial default request.
    EXPECT_EQ(verify(torus, problem, labels), expectFeasible);
    EXPECT_EQ(countViolations(torus, problem, labels), expectCount);
    for (int threads : {1, 2, 8}) {
      VerifyRequest request;
      request.problem = &problem;
      request.torus = &torus;
      request.labels = labels;
      request.options.engine.threads = threads;

      VerifyResult decided = verify(request);
      EXPECT_EQ(decided.feasible, expectFeasible)
          << problem.name() << " threads=" << threads;
      EXPECT_EQ(decided.labellings, 1);
      EXPECT_EQ(decided.fingerprint, problem.table().fingerprint());
      EXPECT_GE(decided.nanos, 0);

      request.options.countViolations = true;
      VerifyResult counted = verify(request);
      EXPECT_EQ(counted.violations, expectCount)
          << problem.name() << " threads=" << threads;
      EXPECT_EQ(counted.feasible, expectCount == 0);
    }
  }
}

TEST(VerifyApi, TierPinsAgreeAndReportTheirTier) {
  const Torus2D torus(16);  // above the bit-slice node floor
  const GridLcl problem = problems::vertexColouring(4);
  const std::vector<int> labels =
      randomLabels(4, static_cast<std::size_t>(torus.size()), 7);
  const std::int64_t expect =
      verify(verifyRequest(torus, problem, labels, /*count=*/true, 1,
                           TierPin::kFunctional))
          .violations;
  for (int threads : {1, 4}) {
    for (TierPin pin : {TierPin::kAuto, TierPin::kFunctional, TierPin::kTable,
                        TierPin::kBitsliced}) {
      VerifyRequest request;
      request.problem = &problem;
      request.torus = &torus;
      request.labels = labels;
      request.options.countViolations = true;
      request.options.engine.threads = threads;
      request.options.tier = pin;
      const VerifyResult result = verify(request);
      EXPECT_EQ(result.violations, expect)
          << "pin=" << static_cast<int>(pin) << " threads=" << threads;
      switch (pin) {
        case TierPin::kFunctional:
          EXPECT_EQ(result.tier, VerifyTier::kFunctional);
          break;
        case TierPin::kTable:
          EXPECT_EQ(result.tier, VerifyTier::kTable);
          break;
        case TierPin::kBitsliced:
          EXPECT_EQ(result.tier, VerifyTier::kBitsliced);
          break;
        case TierPin::kAuto:
          break;  // whatever the engine selects
      }
    }
  }
}

TEST(VerifyApi, PinnedTableRejectsOutOfRangeLabels) {
  const Torus2D torus(4);
  const GridLcl problem = problems::maximalIndependentSet();
  std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);
  labels[3] = 99;  // out of range: only the functional tier may run
  VerifyRequest request;
  request.problem = &problem;
  request.torus = &torus;
  request.labels = labels;
  request.options.tier = TierPin::kTable;
  EXPECT_THROW(verify(request), std::invalid_argument);
  request.options.tier = TierPin::kBitsliced;
  EXPECT_THROW(verify(request), std::invalid_argument);
  request.options.tier = TierPin::kFunctional;
  const VerifyResult functional = verify(request);
  EXPECT_EQ(functional.tier, VerifyTier::kFunctional);
}

namespace {

// --- the poison matrix -------------------------------------------------------
// The automatic bit-sliced tier checks the alphabet inside its row
// transpose instead of scanning first. Every kernel shape must then match
// the functional tier on labellings carrying one out-of-alphabet label,
// whatever the label, wherever it sits, in either mode and at any thread
// count.

/// Shard items (rows / lines) per chunk of the threaded runs, so the
/// matrix can plant labels on a shard's first and last row.
constexpr std::int64_t kPoisonGrain = 4;

template <typename Torus, typename Lcl>
VerifyResult runPoisoned(const Torus& torus, const Lcl& lcl,
                         std::span<const int> labels, bool count, int threads,
                         TierPin pin) {
  VerifyRequest request;
  if constexpr (std::is_same_v<Lcl, GridLcl>) {
    request.problem = &lcl;
    request.torus = &torus;
  } else {
    request.problemD = &lcl;
    request.torusD = &torus;
  }
  request.labels = labels;
  request.options.countViolations = count;
  request.options.engine.threads = threads;
  request.options.engine.grain = kPoisonGrain;
  request.options.tier = pin;
  return verify(request);
}

/// A feasible colouring-style labelling: label = (sum of coordinates) mod
/// modulus, proper whenever modulus divides the side and is at least 2.
std::vector<int> diagonalLabels(long long nodes, int n, int dims,
                                int modulus) {
  std::vector<int> labels(static_cast<std::size_t>(nodes));
  for (long long v = 0; v < nodes; ++v) {
    long long rest = v;
    int sum = 0;
    for (int a = 0; a < dims; ++a) {
      sum += static_cast<int>(rest % n);
      rest /= n;
    }
    labels[static_cast<std::size_t>(v)] = sum % modulus;
  }
  return labels;
}

std::int64_t counterValue(const char* name) {
  for (const auto& counter : telemetry::snapshotMetrics().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

template <typename Torus, typename Lcl>
void checkPoisonMatrix(const Torus& torus, const Lcl& lcl,
                       const std::vector<int>& feasible) {
  ASSERT_EQ(runPoisoned(torus, lcl, feasible, true, 1, TierPin::kFunctional)
                .violations,
            0)
      << lcl.name();
  const long long n = torus.n();
  // Node 0, the first and last row of the second shard (x inside the AVX2
  // word and inside the SSE2 tail when the row is long enough), the last
  // node (the scalar tail).
  const std::vector<long long> sites = {0, kPoisonGrain * n + 70 % n,
                                        (2 * kPoisonGrain - 1) * n + 37 % n,
                                        torus.size() - 1};
  // The second row aliases a valid byte (or saturates to 0) when narrowed
  // to byte lanes: only the unsigned max of the raw labels tells them apart.
  for (int bad : {-1, lcl.sigma(), INT_MIN, INT_MAX, 256, 257, 259, -253,
                  0x10003, INT_MIN + 1}) {
    for (long long site : sites) {
      std::vector<int> labels = feasible;
      labels[static_cast<std::size_t>(site)] = bad;
      for (bool count : {false, true}) {
        const VerifyResult reference =
            runPoisoned(torus, lcl, labels, count, 1, TierPin::kFunctional);
        ASSERT_FALSE(reference.feasible);
        for (int threads : {1, 2, 8}) {
          const std::int64_t fallbacks =
              counterValue("verify.range_fallbacks");
          const std::int64_t sliced = counterValue("verify.calls.bitsliced");
          const VerifyResult result =
              runPoisoned(torus, lcl, labels, count, threads, TierPin::kAuto);
          const auto where = [&] {
            return lcl.name() + " bad=" + std::to_string(bad) +
                   " site=" + std::to_string(site) +
                   " count=" + std::to_string(count) +
                   " threads=" + std::to_string(threads);
          };
          EXPECT_FALSE(result.feasible) << where();
          if (!count) continue;
          EXPECT_EQ(result.violations, reference.violations) << where();
          // The discarded bit-sliced pass is counted; the answer is the
          // functional tier's.
          EXPECT_EQ(result.tier, VerifyTier::kFunctional) << where();
          EXPECT_EQ(counterValue("verify.range_fallbacks") - fallbacks, 1)
              << where();
          EXPECT_EQ(counterValue("verify.calls.bitsliced"), sliced)
              << where();
        }
      }
    }
  }
}

}  // namespace

TEST(VerifyPoison, OutOfAlphabetLabelsMatchFunctionalOnEveryKernelShape) {
  // 84 = one AVX2 word + an SSE2 step + a scalar tail per row, and a
  // multiple of 2, 3 and 4 so the diagonal labellings wrap.
  const Torus2D torus(84);
  const GridLcl independent = problems::independentSet();
  ASSERT_EQ(independent.table().bitslicePlan()->kind,
            bitslice::BitslicePlan::Kind::kPairPlanes);
  ASSERT_FALSE(independent.table().bitslicePlan()->h.notEqual);
  const GridLcl weak = problems::weakColouring(3, 1);
  ASSERT_EQ(weak.table().bitslicePlan()->kind,
            bitslice::BitslicePlan::Kind::kNibbleLut);
  // vc:3 keeps label 3 inside its two planes: only the max check sees it.
  for (const GridLcl& lcl :
       {problems::vertexColouring(3), problems::vertexColouring(4), weak,
        independent}) {
    ASSERT_TRUE(verifier_detail::bitsliceSelectedD(lcl.asD(), torus.size()))
        << lcl.name();
    checkPoisonMatrix(torus, lcl,
                      diagonalLabels(torus.size(), torus.n(), 2, lcl.sigma()));
  }
  // d = 3 stages the labelling into planes before the line kernel.
  const TorusD torusD(3, 21);
  const GridLclD colouring = problems_d::vertexColouring(3, 3);
  ASSERT_NE(colouring.table().bitslicePlanD(), nullptr);
  checkPoisonMatrix(torusD, colouring,
                    diagonalLabels(torusD.size(), torusD.n(), 3, 3));
}

TEST(VerifyPoison, PinsRejectOutOfRangeLabelsBehindARealViolation) {
  // A pinned tier must throw on any out-of-range label, even in verify
  // mode with a real violation ahead of it that an early exit would stop
  // at.
  const Torus2D torus(84);
  const GridLcl problem = problems::vertexColouring(4);
  std::vector<int> labels = diagonalLabels(torus.size(), torus.n(), 2, 4);
  labels[1] = labels[0];
  labels.back() = 4;
  for (bool count : {false, true}) {
    for (int threads : {1, 2, 8}) {
      for (TierPin pin : {TierPin::kTable, TierPin::kBitsliced}) {
        EXPECT_THROW(runPoisoned(torus, problem, labels, count, threads, pin),
                     std::invalid_argument)
            << "count=" << count << " threads=" << threads
            << " pin=" << static_cast<int>(pin);
      }
    }
  }
}

TEST(VerifyApi, BatchMatchesBatchOverloads) {
  const Torus2D torus(6);
  const GridLcl problem = problems::edgeColouring(4);
  const std::size_t nodes = static_cast<std::size_t>(torus.size());
  std::vector<int> batch;
  for (int i = 0; i < 4; ++i) {
    const std::vector<int> labels = randomLabels(problem.sigma(), nodes,
                                                 100 + static_cast<std::uint32_t>(i));
    batch.insert(batch.end(), labels.begin(), labels.end());
  }
  std::vector<std::uint8_t> expectVerdicts;
  std::vector<std::int64_t> expectCounts;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::int64_t count =
        verify(verifyRequest(torus, problem,
                             std::span<const int>(batch).subspan(i * nodes,
                                                                 nodes),
                             /*count=*/true, 1, TierPin::kFunctional))
            .violations;
    expectCounts.push_back(count);
    expectVerdicts.push_back(count == 0 ? 1 : 0);
  }
  for (int threads : {1, 2, 8}) {
    VerifyRequest request;
    request.problem = &problem;
    request.torus = &torus;
    request.labels = batch;
    request.options.engine.threads = threads;
    VerifyResult decided = verify(request);
    EXPECT_EQ(decided.labellings, 4);
    EXPECT_EQ(decided.feasiblePerLabelling, expectVerdicts);
    bool allFeasible = true;
    for (std::uint8_t verdict : expectVerdicts) allFeasible &= verdict != 0;
    EXPECT_EQ(decided.feasible, allFeasible);

    request.options.countViolations = true;
    VerifyResult counted = verify(request);
    EXPECT_EQ(counted.violationsPerLabelling, expectCounts);
    std::int64_t total = 0;
    for (std::int64_t count : expectCounts) total += count;
    EXPECT_EQ(counted.violations, total);
  }
}

TEST(VerifyApi, TorusDMatchesOverloads) {
  const TorusD torus(3, 4);
  const GridLclD problem = problems_d::xorParity(3);
  const std::vector<int> labels = randomLabels(
      problem.sigma(), static_cast<std::size_t>(torus.size()), 42);
  const std::int64_t expect =
      verify(verifyRequest(torus, problem, labels, /*count=*/true, 1,
                           TierPin::kFunctional))
          .violations;
  for (int threads : {1, 2, 8}) {
    VerifyRequest request;
    request.problemD = &problem;
    request.torusD = &torus;
    request.labels = labels;
    request.options.countViolations = true;
    request.options.engine.threads = threads;
    const VerifyResult result = verify(request);
    EXPECT_EQ(result.violations, expect) << "threads=" << threads;
  }
}

TEST(VerifyApi, StreamRequestsMatchStreamOverloads) {
  const Torus2D torus(12);
  const GridLcl problem = problems::vertexColouring(3);
  const std::vector<int> labels = randomLabels(
      problem.sigma(), static_cast<std::size_t>(torus.size()), 9);
  const std::string path = tempPath("verify_api_stream");
  writeLabellingFile(path, problem.sigma(), 2, torus.n(), labels);
  const StreamLabelling file(path);
  const std::int64_t expect =
      verify(verifyRequest(torus, problem, labels, /*count=*/true, 1,
                           TierPin::kFunctional))
          .violations;

  VerifyRequest request;
  request.problem = &problem;
  request.file = &file;
  request.options.countViolations = true;
  for (int threads : {1, 2, 8}) {
    request.options.engine.threads = threads;
    VerifyResult viaFile = verify(request);
    EXPECT_EQ(viaFile.violations, expect) << "threads=" << threads;
    EXPECT_EQ(viaFile.tier, VerifyTier::kStream);
  }

  VerifyRequest viaPathRequest;
  viaPathRequest.problem = &problem;
  viaPathRequest.labellingPath = path;
  viaPathRequest.options.countViolations = true;
  viaPathRequest.options.window.rows = 4;
  EXPECT_EQ(verify(viaPathRequest).violations, expect);

  // Streaming accepts only the automatic tier.
  request.options.tier = TierPin::kTable;
  EXPECT_THROW(verify(request), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(VerifyApi, UncompiledProblemsMatchBruteForceInCoreAndStreamed) {
  // sigma = 70 is beyond the 64-label table cap, so the problem runs on the
  // functional tier. Label steps of +1 east and +2 north (mod 6) tell all
  // four directions apart, so a wrong neighbour order changes the counts.
  constexpr int kSigma = 70;
  const auto step6 = [](int from, int to) { return ((to - from) % 6 + 6) % 6; };
  const GridLcl problem(
      "directional-steps-70", kSigma, kDepAll,
      [step6](int c, int n, int e, int s, int w) {
        return step6(c, e) == 1 && step6(w, c) == 1 && step6(c, n) == 2 &&
               step6(s, c) == 2;
      });
  ASSERT_FALSE(problem.hasTable());
  const Torus2D torus(12);
  const std::size_t nodes = static_cast<std::size_t>(torus.size());
  std::vector<int> feasible(nodes);
  for (int v = 0; v < torus.size(); ++v) {
    feasible[static_cast<std::size_t>(v)] =
        (torus.xOf(v) + 2 * torus.yOf(v)) % 6;
  }
  // Out of alphabet in-core: -1 and 1000 cannot be stored in the file's
  // 7 planes, so the writer rejects that labelling; 70 and 127 can, and
  // stream as out-of-alphabet labels.
  std::vector<int> poisoned = feasible;
  poisoned[0] = kSigma;
  poisoned[17] = -1;
  poisoned[nodes - 1] = 1000;
  std::vector<int> storable = feasible;
  storable[0] = kSigma;
  storable[nodes - 1] = 127;
  std::vector<int> swapped = feasible;  // the pattern mirrored east-west
  for (int v = 0; v < torus.size(); ++v) {
    swapped[static_cast<std::size_t>(v)] =
        (6 - torus.xOf(v) % 6 + 2 * torus.yOf(v)) % 6;
  }
  const std::string path = tempPath("verify_api_uncompiled");
  EXPECT_THROW(writeLabellingFile(path, kSigma, 2, torus.n(), poisoned),
               std::invalid_argument);
  for (const std::vector<int>& labels :
       {feasible, poisoned, storable, swapped,
        randomLabels(kSigma, nodes, 11)}) {
    std::int64_t expect = 0;
    for (int v = 0; v < torus.size(); ++v) {
      const int c = labels[static_cast<std::size_t>(v)];
      const auto at = [&](Dir d) {
        return labels[static_cast<std::size_t>(torus.step(v, d))];
      };
      if (c < 0 || c >= kSigma ||
          !problem.allows(c, at(Dir::North), at(Dir::East), at(Dir::South),
                          at(Dir::West))) {
        ++expect;
      }
    }
    const bool streams = labels != poisoned;
    std::optional<StreamLabelling> file;
    if (streams) {
      writeLabellingFile(path, kSigma, 2, torus.n(), labels);
      file.emplace(path);
    }
    for (bool count : {false, true}) {
      for (int threads : {1, 2, 8}) {
        std::vector<VerifyResult> results = {
            verify(verifyRequest(torus, problem, labels, count, threads))};
        EXPECT_EQ(results[0].tier, VerifyTier::kFunctional);
        if (streams) {
          results.push_back(
              verify(verifyRequest(*file, problem, {}, count, threads)));
          EXPECT_EQ(results[1].tier, VerifyTier::kStream);
        }
        for (const VerifyResult& result : results) {
          EXPECT_EQ(result.feasible, expect == 0)
              << "count=" << count << " threads=" << threads;
          EXPECT_EQ(result.fingerprint, 0u);
          if (count) {
            EXPECT_EQ(result.violations, expect) << "threads=" << threads;
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(VerifyApi, MalformedRequestsThrow) {
  const Torus2D torus(4);
  const TorusD torusD(3, 3);
  const GridLcl problem = problems::independentSet();
  const GridLclD problemD = problems_d::xorParity(3);
  std::vector<int> labels(static_cast<std::size_t>(torus.size()), 0);

  VerifyRequest ambiguous;
  ambiguous.problem = &problem;
  ambiguous.problemD = &problemD;
  ambiguous.torus = &torus;
  ambiguous.labels = labels;
  EXPECT_THROW(verify(ambiguous), std::invalid_argument);

  VerifyRequest noProblem;
  noProblem.torus = &torus;
  noProblem.labels = labels;
  EXPECT_THROW(verify(noProblem), std::invalid_argument);

  VerifyRequest noInstance;
  noInstance.problem = &problem;
  EXPECT_THROW(verify(noInstance), std::invalid_argument);

  // Inline labels left empty are a malformed request, not a feasible one.
  for (int threads : {1, 2}) {
    EXPECT_THROW(verify(verifyRequest(torus, problem, {}, false, threads)),
                 std::invalid_argument);
    EXPECT_THROW(verify(verifyRequest(torusD, problemD, {}, true, threads)),
                 std::invalid_argument);
  }

  // The Torus2D helpers take exactly one labelling.
  for (std::size_t size : {static_cast<std::size_t>(torus.size()) + 1,
                           2 * static_cast<std::size_t>(torus.size())}) {
    const std::vector<int> wrongSize(size, 0);
    try {
      (void)verify(torus, problem, wrongSize);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "verifier: labelling size mismatch");
    }
    EXPECT_THROW((void)countViolations(torus, problem, wrongSize),
                 std::invalid_argument);
  }
}

TEST(ClassifyApi, GridMatchesOracleAndCaches) {
  const GridLcl problem = problems::vertexColouring(2);
  synthesis::OracleOptions oracle;
  oracle.probeSizes = {4, 5};
  const synthesis::OracleReport direct = synthesis::classifyOnGrid(problem, oracle);

  engine::ReportCache cache(8, "");
  engine::ClassifyOptions options;
  options.oracle = oracle;
  options.reportCache = &cache;
  const engine::ClassifyResult fresh = engine::classify(problem, options);
  EXPECT_EQ(fresh.problem, problem.name());
  EXPECT_FALSE(fresh.cacheHit);
  EXPECT_EQ(fresh.complexity, synthesis::gridComplexityName(direct.complexity));
  ASSERT_NE(fresh.grid, nullptr);
  EXPECT_EQ(fresh.grid->complexity, direct.complexity);
  EXPECT_EQ(fresh.fingerprint, problem.table().fingerprint());

  const engine::ClassifyResult cached = engine::classify(problem, options);
  EXPECT_TRUE(cached.cacheHit);
  EXPECT_EQ(cached.complexity, fresh.complexity);
  EXPECT_EQ(cached.grid, fresh.grid);  // the very report object, shared
  EXPECT_GE(cache.stats().hits, 1);
}

TEST(ClassifyApi, CycleMatchesCycleClassifier) {
  const cycle::CycleLcl problem(
      "cycle-2col", 2, 1, [](const std::vector<int>& window) {
        return window[1] != window[0] && window[1] != window[2];
      });
  const cycle::Classification direct = cycle::classifyCycleLcl(problem);
  const engine::ClassifyResult result = engine::classify(problem);
  EXPECT_EQ(result.complexity, cycle::complexityName(direct.complexity));
  ASSERT_TRUE(result.cycle.has_value());
  EXPECT_EQ(result.cycle->complexity, direct.complexity);
  EXPECT_EQ(result.grid, nullptr);
  EXPECT_FALSE(result.cacheHit);
}

TEST(LruCache, EvictsLeastRecentlyUsedAndReportsStats) {
  support::LruCache<int, std::string> cache(2, "");
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1).value(), "one");  // 1 becomes most recent
  cache.put(3, "three");                   // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  const support::LruStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);
}

TEST(LruCache, EvictionCallbackFiresOnOverflowOnly) {
  support::LruCache<int, int> cache(1, "");
  std::vector<std::pair<int, int>> evicted;
  cache.setEvictionCallback(
      [&evicted](const int& key, const int& value) {
        evicted.emplace_back(key, value);
      });
  cache.put(1, 10);
  cache.put(2, 20);  // evicts (1, 10)
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], std::make_pair(1, 10));
  cache.erase(2);  // NOT an eviction
  cache.put(3, 30);
  cache.clear();  // NOT an eviction
  EXPECT_EQ(evicted.size(), 1u);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  support::LruCache<int, int> cache(0, "");
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}
