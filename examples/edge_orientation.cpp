// Edge labellings on grids: the (2d+1)-edge-colouring algorithm of Section
// 10 on a cycle (d = 1), and X-orientations across all three complexity
// classes of Theorem 22.
#include <cstdio>

#include "algorithms/edge_colouring.hpp"
#include "algorithms/orientations.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"

using namespace lclgrid;
using namespace lclgrid::algorithms;

int main() {
  // (2d+1)-edge-colouring for d = 1: 3 colours on a directed cycle.
  {
    TorusD cycle(1, 120);
    auto run = edgeColouringGrid(cycle, local::randomIds(120, 9));
    std::printf("3-edge-colouring of a 120-cycle: %s in %d rounds "
                "(k=%d, spacing=%d)\n",
                run.solved ? "solved" : run.failure.c_str(), run.rounds, run.k,
                run.rowSpacing);
    if (run.solved) {
      std::printf("  first 30 edge colours: ");
      for (int e = 0; e < 30; ++e) std::printf("%d", run.colour[e]);
      std::printf("...\n  verified: %s\n\n",
                  isProperEdgeColouringD(cycle, run.colour, 3) ? "yes" : "NO");
    }
  }

  // X-orientations, one per complexity class.
  Torus2D torus(16);
  auto ids = local::randomIds(torus.size(), 21);
  for (std::set<int> x : {std::set<int>{2}, {1, 3, 4}, {0, 3, 4}}) {
    auto run = solveOrientation(torus, x, ids);
    std::printf("%-20s class=%-14s rounds=%-5d %s\n",
                problems::orientationSetName(x).c_str(),
                orientationClassName(run.algorithmClass).c_str(), run.rounds,
                run.solved
                    ? (verify(torus, problems::orientation(x), run.labels)
                           ? "verified"
                           : "VERIFY FAILED")
                    : run.failure.c_str());
  }

  // A global case on an odd torus: no {1,3}-orientation exists (Lemma 24).
  Torus2D odd(5);
  auto infeasible =
      solveOrientation(odd, {1, 3}, local::randomIds(odd.size(), 3));
  std::printf("{1,3} on n=5: %s (Lemma 24: impossible for odd n)\n",
              infeasible.solved ? "solved (?!)" : infeasible.failure.c_str());
  return 0;
}
