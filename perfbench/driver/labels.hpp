// Seeded labellings with a planted, known number of violations.
//
// A base labelling is valid by construction (a proper colouring, so it
// satisfies both vc:4 and weak:3:1); planting then rewrites a seeded set of
// sites. Only nodes within distance 1 of a rewritten node can change their
// verdict, so the expected violation count is the number of violating nodes
// in the union of those closed neighbourhoods, decided by a direct
// evaluation of the problem's definition -- independent of the library's
// tables and kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

enum class Problem { kVc4, kWeak31 };

/// The problem's definition, evaluated directly: true iff a node with
/// centre c and neighbours n, e, s, w violates it.
inline bool violates(Problem problem, int c, int n, int e, int s, int w) {
  if (problem == Problem::kVc4) {
    return c == n || c == e || c == s || c == w;
  }
  // weak:3:1 -- at least one neighbour differs from the centre.
  return c == n && c == e && c == s && c == w;
}

struct Labelling {
  int n = 0;
  std::vector<int> labels;      // row-major, x fastest
  std::int64_t expected = 0;    // planted, known violation count
};

/// Fills `labels` (size n*n) with a seeded valid labelling of `problem`
/// and plants `sites` seeded faults; returns the exact violation count.
/// n must be even (vc:4) or a multiple of 3 (weak:3:1). `threads` only
/// speeds up the base fill; the result does not depend on it.
std::int64_t makeLabelling(Problem problem, int n, std::uint64_t seed,
                           std::uint64_t stream, std::int64_t sites,
                           int* labels, int threads = 1);

Labelling makeLabelling(Problem problem, int n, std::uint64_t seed,
                        std::uint64_t stream, std::int64_t sites);

}  // namespace perfbench
