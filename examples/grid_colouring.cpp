// Grid colouring showcase: synthesize the 4-colouring normal form (the
// paper's flagship example, k = 3 with 2079 tiles), run it on a torus, show
// the colouring, and contrast it with the global 3-colouring baseline.
#include <cstdio>

#include "algorithms/global_baseline.hpp"
#include "lcl/problems.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"

using namespace lclgrid;

int main() {
  std::printf("Synthesizing the 4-colouring normal form (k=3, 7x5 tiles)...\n");
  auto synthesis =
      synthesis::synthesize(problems::vertexColouring(4), {.maxK = 3});
  if (!synthesis.success) {
    std::printf("synthesis failed\n");
    return 1;
  }
  for (const auto& attempt : synthesis.attempts) {
    std::printf("  k=%d %dx%d: %s (%lld tiles, %.2fs)\n", attempt.k,
                attempt.shape.height, attempt.shape.width,
                attempt.success ? "SAT" : attempt.failureReason.c_str(),
                attempt.tileCount, attempt.seconds);
  }

  synthesis::NormalFormAlgorithm algorithm(*synthesis.rule);
  Torus2D torus(26);
  auto run = algorithm.execute(torus, local::randomIds(torus.size(), 11));
  if (!run.solved) {
    std::printf("run failed: %s\n", run.failure.c_str());
    return 1;
  }
  auto lcl = problems::vertexColouring(4);
  std::printf("\n4-colouring of a %dx%d torus in %d rounds (verified: %s):\n\n%s\n",
              torus.n(), torus.n(), run.rounds,
              verify(torus, lcl, run.labels) ? "yes" : "NO",
              renderLabelling(torus, lcl, run.labels).c_str());

  // The global baseline for the 3-colouring problem -- correct, optimal for
  // a global problem, and linear in n.
  auto baseline =
      algorithms::solveByGathering(torus, problems::vertexColouring(3));
  std::printf("3-colouring needs the global baseline: %d rounds (Theta(n)).\n",
              baseline.rounds);
  std::printf("4-colouring rounds stay put as n grows; try editing the size.\n");
  return 0;
}
