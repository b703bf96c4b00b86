// Property tests for the compiled constraint-table core: for every problem
// in the library the LclTable must agree with the raw constructor predicate
// on all of sigma^5, and the derived data (projections, decomposability,
// trivial labels) must match the seed's brute-force definitions. Also
// covers the table-composing combinators, the batched verifier and the
// compiled cycle window tables.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cycle/cycle_lcl.hpp"
#include "helpers/problem_registry.hpp"
#include "helpers/verify_request.hpp"
#include "lcl/combinators.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/problems.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"

namespace lclgrid {
namespace {

/// Reference projection data computed with the seed's sigma^5 brute force
/// over the raw predicate (no table involved).
struct ReferenceProjections {
  bool edgeDecomposable = false;
  std::vector<std::uint8_t> hPairs;
  std::vector<std::uint8_t> vPairs;
};

ReferenceProjections bruteForceProjections(const GridLcl& lcl) {
  const int s = lcl.sigma();
  const auto& ok = lcl.predicate();
  ReferenceProjections ref;
  ref.hPairs.assign(static_cast<std::size_t>(s) * s, 0);
  ref.vPairs.assign(static_cast<std::size_t>(s) * s, 0);
  for (int c = 0; c < s; ++c) {
    for (int n = 0; n < s; ++n) {
      for (int e = 0; e < s; ++e) {
        for (int so = 0; so < s; ++so) {
          for (int w = 0; w < s; ++w) {
            if (!ok(c, n, e, so, w)) continue;
            ref.hPairs[static_cast<std::size_t>(w) * s + c] = 1;
            ref.hPairs[static_cast<std::size_t>(c) * s + e] = 1;
            ref.vPairs[static_cast<std::size_t>(so) * s + c] = 1;
            ref.vPairs[static_cast<std::size_t>(c) * s + n] = 1;
          }
        }
      }
    }
  }
  ref.edgeDecomposable = true;
  for (int c = 0; c < s && ref.edgeDecomposable; ++c) {
    for (int n = 0; n < s && ref.edgeDecomposable; ++n) {
      for (int e = 0; e < s && ref.edgeDecomposable; ++e) {
        for (int so = 0; so < s && ref.edgeDecomposable; ++so) {
          for (int w = 0; w < s; ++w) {
            bool byPairs = ref.hPairs[static_cast<std::size_t>(w) * s + c] &&
                           ref.hPairs[static_cast<std::size_t>(c) * s + e] &&
                           ref.vPairs[static_cast<std::size_t>(so) * s + c] &&
                           ref.vPairs[static_cast<std::size_t>(c) * s + n];
            if (byPairs != ok(c, n, e, so, w)) {
              ref.edgeDecomposable = false;
              break;
            }
          }
        }
      }
    }
  }
  return ref;
}

/// Asserts table agreement with an arbitrary reference over all of sigma^5.
template <typename Reference>
void expectAgreesEverywhere(const GridLcl& lcl, Reference&& reference) {
  const int s = lcl.sigma();
  long long mismatches = 0;
  for (int c = 0; c < s; ++c) {
    for (int n = 0; n < s; ++n) {
      for (int e = 0; e < s; ++e) {
        for (int so = 0; so < s; ++so) {
          for (int w = 0; w < s; ++w) {
            if (lcl.allows(c, n, e, so, w) != reference(c, n, e, so, w)) {
              ++mismatches;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << lcl.name();
}

TEST(LclTable, EveryRegistryProblemCompiles) {
  for (const GridLcl& lcl : problemRegistry()) {
    EXPECT_TRUE(lcl.hasTable()) << lcl.name();
    EXPECT_EQ(lcl.table().sigma(), lcl.sigma()) << lcl.name();
  }
}

TEST(LclTable, TableAgreesWithPredicateOnSigmaToTheFive) {
  for (const GridLcl& lcl : problemRegistry()) {
    ASSERT_TRUE(lcl.hasTable()) << lcl.name();
    const auto& ok = lcl.predicate();
    expectAgreesEverywhere(
        lcl, [&ok](int c, int n, int e, int s, int w) {
          return ok(c, n, e, s, w);
        });
  }
}

TEST(LclTable, ProjectionsMatchBruteForce) {
  for (const GridLcl& lcl : problemRegistry()) {
    ReferenceProjections ref = bruteForceProjections(lcl);
    EXPECT_EQ(lcl.isEdgeDecomposable(), ref.edgeDecomposable) << lcl.name();
    const int s = lcl.sigma();
    for (int a = 0; a < s; ++a) {
      for (int b = 0; b < s; ++b) {
        EXPECT_EQ(lcl.horizontalOk(a, b),
                  ref.hPairs[static_cast<std::size_t>(a) * s + b] != 0)
            << lcl.name() << " h(" << a << "," << b << ")";
        EXPECT_EQ(lcl.verticalOk(a, b),
                  ref.vPairs[static_cast<std::size_t>(a) * s + b] != 0)
            << lcl.name() << " v(" << a << "," << b << ")";
      }
    }
  }
}

TEST(LclTable, TrivialLabelMatchesPredicateScan) {
  for (const GridLcl& lcl : problemRegistry()) {
    const auto& ok = lcl.predicate();
    int expected = -1;
    for (int c = 0; c < lcl.sigma(); ++c) {
      if (ok(c, c, c, c, c)) {
        expected = c;
        break;
      }
    }
    EXPECT_EQ(lcl.trivialLabel(), expected) << lcl.name();
    EXPECT_EQ(lcl.hasTrivialSolution(), expected >= 0) << lcl.name();
  }
}

TEST(LclTable, ForbiddenIterationMatchesRowCounts) {
  for (const GridLcl& lcl : problemRegistry()) {
    const LclTable& table = lcl.table();
    long long forbidden = 0;
    table.forEachForbidden(
        [&forbidden](int, int, int, int, int) { ++forbidden; });
    long long allowed = 0;
    table.forEachAllowed([&allowed](int, int, int, int, int) { ++allowed; });
    EXPECT_EQ(forbidden, table.forbiddenRowCount()) << lcl.name();
    EXPECT_EQ(allowed + forbidden,
              static_cast<long long>(table.rowCount()) * table.sigma())
        << lcl.name();
  }
}

TEST(LclTable, OutOfRangeArgumentsFallBackToPredicateSemantics) {
  auto lcl = problems::vertexColouring(3);
  const auto& ok = lcl.predicate();
  // The raw colouring predicate happily accepts garbage labels; allows()
  // must keep agreeing with it rather than reading out of the table.
  EXPECT_EQ(lcl.allows(7, 0, 1, 2, 0), ok(7, 0, 1, 2, 0));
  EXPECT_EQ(lcl.allows(0, -1, 1, 2, 0), ok(0, -1, 1, 2, 0));
}

// --- combinators compose tables directly ----------------------------------

TEST(TableCombinators, DisjointUnionMatchesSemantics) {
  GridLcl p = problems::vertexColouring(3);
  GridLcl q = problems::independentSet();
  GridLcl u = problems::disjointUnion(p, q);
  ASSERT_TRUE(u.hasTable());
  const int sigmaP = p.sigma();
  expectAgreesEverywhere(u, [&](int c, int n, int e, int s, int w) {
    bool cIsP = c < sigmaP;
    for (int other : {n, e, s, w}) {
      if ((other < sigmaP) != cIsP) return false;
    }
    if (cIsP) return p.allows(c, n, e, s, w);
    return q.allows(c - sigmaP, n - sigmaP, e - sigmaP, s - sigmaP,
                    w - sigmaP);
  });
}

TEST(TableCombinators, RelabelMatchesSemantics) {
  GridLcl p = problems::maximalMatching();
  std::vector<int> permutation = {4, 2, 0, 1, 3};
  GridLcl r = problems::relabel(p, permutation);
  ASSERT_TRUE(r.hasTable());
  // allows under new names == allows of the pre-images.
  std::vector<int> inverse(permutation.size());
  for (std::size_t old = 0; old < permutation.size(); ++old) {
    inverse[static_cast<std::size_t>(permutation[old])] =
        static_cast<int>(old);
  }
  expectAgreesEverywhere(r, [&](int c, int n, int e, int s, int w) {
    auto back = [&inverse](int label) {
      return inverse[static_cast<std::size_t>(label)];
    };
    return p.allows(back(c), back(n), back(e), back(s), back(w));
  });
}

TEST(TableCombinators, FlipOrientationMatchesSemantics) {
  GridLcl p = problems::orientation({1, 3});
  GridLcl f = problems::flipOrientation(p);
  ASSERT_TRUE(f.hasTable());
  expectAgreesEverywhere(f, [&](int c, int n, int e, int s, int w) {
    return p.allows(c ^ 3, n ^ 3, e ^ 3, s ^ 3, w ^ 3);
  });
  // Flipping {1,3} gives the {4-x : x in X} = {1,3} problem again: same
  // feasibility structure (the Section 11 complexity-equivalence argument).
  EXPECT_EQ(f.hasTrivialSolution(), p.hasTrivialSolution());
}

TEST(TableCombinators, RestrictLabelsMatchesSmallerProblem) {
  GridLcl big = problems::vertexColouring(4);
  GridLcl restricted =
      problems::restrictLabels(big, {true, true, true, false});
  ASSERT_TRUE(restricted.hasTable());
  GridLcl expected = problems::vertexColouring(3);
  expectAgreesEverywhere(restricted, [&](int c, int n, int e, int s, int w) {
    return expected.allows(c, n, e, s, w);
  });
}

// --- label-name hygiene ----------------------------------------------------

TEST(GridLclNames, LabelNameBoundsChecked) {
  auto lcl = problems::maximalMatching();
  EXPECT_EQ(lcl.labelName(-1), "?");
  EXPECT_EQ(lcl.labelName(lcl.sigma()), "?");
  EXPECT_EQ(lcl.labelName(127), "?");
  EXPECT_EQ(lcl.labelName(1), "N");
}

TEST(GridLclNames, UnnamedLabelsRenderAsNumbers) {
  auto lcl = problems::vertexColouring(3);
  EXPECT_EQ(lcl.labelName(2), "2");
  EXPECT_EQ(lcl.labelName(3), "?");
  EXPECT_EQ(lcl.labelName(-5), "?");
}

TEST(GridLclNames, SetLabelNamesValidatesArity) {
  auto lcl = problems::vertexColouring(3);
  EXPECT_THROW(lcl.setLabelNames({"a", "b"}), std::invalid_argument);
  EXPECT_THROW(lcl.setLabelNames({"a", "b", "c", "d"}), std::invalid_argument);
  EXPECT_NO_THROW(lcl.setLabelNames({"a", "b", "c"}));
  EXPECT_EQ(lcl.labelName(1), "b");
}

// --- batched verification ---------------------------------------------------

std::vector<int> diagonalColouring(const Torus2D& torus, int k) {
  std::vector<int> labels(static_cast<std::size_t>(torus.size()));
  for (int v = 0; v < torus.size(); ++v) {
    labels[static_cast<std::size_t>(v)] = (torus.xOf(v) + torus.yOf(v)) % k;
  }
  return labels;
}

TEST(BatchVerifier, CountMatchesListViolations) {
  Torus2D torus(6);
  auto lcl = problems::vertexColouring(3);
  auto labels = diagonalColouring(torus, 3);
  EXPECT_EQ(countViolations(torus, lcl, labels), 0);
  labels[7] = labels[8];  // one broken node breaks its whole neighbourhood
  auto reported = listViolations(torus, lcl, labels, torus.size());
  EXPECT_EQ(countViolations(torus, lcl, labels),
            static_cast<std::int64_t>(reported.size()));
  EXPECT_FALSE(verify(torus, lcl, labels));
}

TEST(BatchVerifier, BatchOverManyLabellings) {
  Torus2D torus(5);
  auto lcl = problems::vertexColouring(3);
  auto good = diagonalColouring(torus, 3);  // 5 % 3 != 0... check via verify
  bool goodFeasible = verify(torus, lcl, good);
  auto bad = good;
  bad[0] = bad[1];

  std::vector<int> batch;
  batch.insert(batch.end(), good.begin(), good.end());
  batch.insert(batch.end(), bad.begin(), bad.end());
  batch.insert(batch.end(), good.begin(), good.end());

  const VerifyResult decided =
      verify(verifyRequest(torus, lcl, batch, /*count=*/false));
  EXPECT_EQ(decided.labellings, 3);
  const std::vector<std::uint8_t>& feasible = decided.feasiblePerLabelling;
  ASSERT_EQ(feasible.size(), 3u);
  EXPECT_EQ(feasible[0] != 0, goodFeasible);
  EXPECT_EQ(feasible[1], 0);
  EXPECT_EQ(feasible[2] != 0, goodFeasible);
  EXPECT_FALSE(decided.feasible);

  const std::vector<std::int64_t> counts =
      verify(verifyRequest(torus, lcl, batch, /*count=*/true))
          .violationsPerLabelling;
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], countViolations(torus, lcl, good));
  EXPECT_EQ(counts[1], countViolations(torus, lcl, bad));
  EXPECT_GT(counts[1], 0);
}

TEST(BatchVerifier, RejectsMisalignedBatch) {
  Torus2D torus(4);
  auto lcl = problems::vertexColouring(2);
  std::vector<int> batch(torus.size() + 1, 0);
  EXPECT_THROW(verify(verifyRequest(torus, lcl, batch, /*count=*/false)),
               std::invalid_argument);
}

TEST(BatchVerifier, OutOfAlphabetLabelsStillRejected) {
  Torus2D torus(4);
  auto lcl = problems::vertexColouring(2);
  auto labels = diagonalColouring(torus, 2);
  labels[5] = 9;
  EXPECT_FALSE(verify(torus, lcl, labels));
  EXPECT_GE(countViolations(torus, lcl, labels), 1);
}

TEST(BatchVerifier, TinyToriWrapCorrectly) {
  // n = 1 and n = 2 wrap every direction onto the same one or two nodes;
  // the row-pointer kernel must agree with the step-based reference.
  auto lcl = problems::vertexColouring(2);
  for (int n : {1, 2, 3}) {
    Torus2D torus(n);
    std::vector<int> labels(static_cast<std::size_t>(torus.size()));
    for (int pattern = 0; pattern < (1 << torus.size()); ++pattern) {
      for (int v = 0; v < torus.size(); ++v) {
        labels[static_cast<std::size_t>(v)] = (pattern >> v) & 1;
      }
      EXPECT_EQ(verify(torus, lcl, labels),
                listViolations(torus, lcl, labels, 1).empty())
          << "n=" << n << " pattern=" << pattern;
    }
  }
}

// --- compiled cycle window tables ------------------------------------------

TEST(CycleWindowTable, AgreesWithPredicateOnAllWindows) {
  std::vector<cycle::CycleLcl> registry = {
      cycle::cycleColouring(2),      cycle::cycleColouring(3),
      cycle::cycleMaximalIndependentSet(), cycle::cycleMaximalMatching(),
      cycle::cycleDominatingMarks(2), cycle::cycleExactSpacing(3)};
  for (const auto& lcl : registry) {
    ASSERT_TRUE(lcl.hasWindowTable()) << lcl.name();
    const auto& table = lcl.windowTable();
    std::vector<int> window(static_cast<std::size_t>(lcl.windowLength()), 0);
    for (long long code = 0; code < table.windowCount(); ++code) {
      long long rest = code;
      for (int i = 0; i < lcl.windowLength(); ++i) {
        window[static_cast<std::size_t>(i)] = static_cast<int>(rest % lcl.sigma());
        rest /= lcl.sigma();
      }
      EXPECT_EQ(table.allowsCode(code), lcl.allowsWindow(window))
          << lcl.name() << " code=" << code;
      EXPECT_EQ(table.encode(window), code) << lcl.name();
    }
  }
}

TEST(CycleWindowTable, RollingVerifierMatchesWindowByWindow) {
  auto lcl = cycle::cycleExactSpacing(3);
  // All rotations of the feasible countdown pattern, plus corruptions.
  std::vector<int> labels = {2, 1, 0, 2, 1, 0, 2, 1, 0};
  EXPECT_TRUE(lcl.verifyCycle(labels));
  EXPECT_EQ(lcl.firstViolation(labels), -1);
  labels[4] = 0;
  EXPECT_FALSE(lcl.verifyCycle(labels));
  int violation = lcl.firstViolation(labels);
  ASSERT_GE(violation, 0);
  // The reported window must genuinely be infeasible.
  std::vector<int> window(static_cast<std::size_t>(lcl.windowLength()));
  for (int offset = 0; offset < lcl.windowLength(); ++offset) {
    window[static_cast<std::size_t>(offset)] =
        labels[static_cast<std::size_t>(
            (violation + offset) % static_cast<int>(labels.size()))];
  }
  EXPECT_FALSE(lcl.allowsWindow(window));
}

TEST(CycleWindowTable, OutOfAlphabetCycleLabelsRejected) {
  auto lcl = cycle::cycleColouring(3);
  std::vector<int> labels = {0, 1, 2, 0, 1, 5};
  EXPECT_FALSE(lcl.verifyCycle(labels));
}

// --- fingerprint properties (the family-sweep cache key) --------------------

TEST(Fingerprint, EqualTablesHashEqualAcrossConstructionPaths) {
  // Equal content => equal fingerprint, regardless of how the table was
  // built: a re-compile of the same predicate, the identity remap, and a
  // repeated disjointUnion must all collide with their originals exactly.
  for (const GridLcl& lcl : problemRegistry()) {
    const LclTable& table = lcl.table();
    LclTable recompiled =
        LclTable::compile(lcl.sigma(), lcl.deps(), lcl.predicate());
    EXPECT_TRUE(table.sameContent(recompiled)) << lcl.name();
    EXPECT_EQ(table.fingerprint(), recompiled.fingerprint()) << lcl.name();

    std::vector<int> identity(static_cast<std::size_t>(lcl.sigma()));
    for (int i = 0; i < lcl.sigma(); ++i) {
      identity[static_cast<std::size_t>(i)] = i;
    }
    LclTable remapped = LclTable::remap(table, identity);
    EXPECT_TRUE(table.sameContent(remapped)) << lcl.name();
    EXPECT_EQ(table.fingerprint(), remapped.fingerprint()) << lcl.name();
  }

  const GridLcl independent = problems::independentSet();
  const GridLcl maximal = problems::maximalIndependentSet();
  const LclTable& p = independent.table();
  const LclTable& q = maximal.table();
  EXPECT_EQ(LclTable::disjointUnion(p, q).fingerprint(),
            LclTable::disjointUnion(p, q).fingerprint());
}

TEST(Fingerprint, NearCollidingTablesAreDistinguished) {
  // The cache's collision guard: tables that differ in exactly one tuple
  // (the hardest near-collision to separate) must differ in sameContent --
  // and, for FNV-1a over the rows, in fingerprint as well. sweepFamily
  // compares sameContent behind the hash, so even an engineered 64-bit
  // collision could never alias two different relations.
  const int sigma = 3;
  const std::uint8_t deps = kDepN | kDepE;
  auto base = [](int c, int n, int e, int, int) {
    return (c + n + e) % 3 != 0;
  };
  LclTable baseTable = LclTable::compile(sigma, deps, base);
  LclTable baseAgain = LclTable::compile(sigma, deps, base);
  ASSERT_TRUE(baseTable.sameContent(baseAgain));

  for (int fc = 0; fc < sigma; ++fc) {
    for (int fn = 0; fn < sigma; ++fn) {
      for (int fe = 0; fe < sigma; ++fe) {
        auto flipped = [&](int c, int n, int e, int s, int w) {
          bool value = base(c, n, e, s, w);
          if (c == fc && n == fn && e == fe) return !value;
          return value;
        };
        LclTable flippedTable = LclTable::compile(sigma, deps, flipped);
        EXPECT_FALSE(baseTable.sameContent(flippedTable))
            << "flip at (" << fc << "," << fn << "," << fe << ")";
        EXPECT_NE(baseTable.fingerprint(), flippedTable.fingerprint())
            << "flip at (" << fc << "," << fn << "," << fe << ")";
      }
    }
  }
}

TEST(Fingerprint, DepsMaskIsPartOfTheContent) {
  // The same relation compiled under different dependency masks stores
  // different rows; the guard must separate them too (documented on
  // LclTable::fingerprint).
  const int sigma = 2;
  auto alwaysTrue = [](int, int, int, int, int) { return true; };
  LclTable narrow = LclTable::compile(sigma, kDepN, alwaysTrue);
  LclTable wide = LclTable::compile(sigma, kDepN | kDepE, alwaysTrue);
  EXPECT_FALSE(narrow.sameContent(wide));
  EXPECT_NE(narrow.fingerprint(), wide.fingerprint());
}

}  // namespace
}  // namespace lclgrid
