// E15 -- the randomised side (Section 12): the paper notes that randomised
// complexities on grids collapse similarly (nothing between omega(log* n)
// and o(sqrt(log n))). This bench compares the deterministic S_k (iterated
// Linial + KW + greedy, Theta(log* n) with poly(Delta) constants) against
// Luby's randomised MIS (O(log n) iterations, tiny constants) as the
// symmetry-breaking engine of the normal form.
#include <cstdio>

#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/graph_view.hpp"
#include "local/ids.hpp"
#include "local/luby_mis.hpp"
#include "local/mis.hpp"
#include "support/numeric.hpp"
#include "support/table.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"

using namespace lclgrid;

int main() {
  std::printf("E15: deterministic vs randomised symmetry breaking (Section 12)\n\n");

  std::printf("MIS of G^(3) (the 4-colouring anchors):\n");
  AsciiTable table({"n", "log* n", "deterministic rounds",
                    "Luby rounds (seed avg of 3)", "Luby iterations"});
  for (int n : {24, 48, 96, 192}) {
    Torus2D torus(n);
    auto view = local::l1PowerView(torus, 3);
    auto det = local::computeMis(view, local::randomIds(torus.size(), 5));
    long long lubyRounds = 0, lubyIters = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto luby = local::lubyMis(view, seed);
      if (!local::isMaximalIndependentSet(view, luby.inSet)) {
        std::printf("LUBY OUTPUT INVALID at n=%d!\n", n);
        return 1;
      }
      lubyRounds += luby.gridRounds;
      lubyIters += luby.iterations;
    }
    table.addRow({fmtInt(n), fmtInt(logStar(n)), fmtInt(det.gridRounds),
                  fmtInt(lubyRounds / 3), fmtInt(lubyIters / 3)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("4-colouring normal form with a randomised S_k:\n");
  auto synthesis = synthesis::synthesize(problems::vertexColouring(4), {.maxK = 3});
  if (synthesis.success) {
    synthesis::NormalFormAlgorithm algorithm(*synthesis.rule);
    AsciiTable nf({"n", "rounds (A' + Luby S_3)", "verified"});
    for (int n : {32, 64}) {
      Torus2D torus(n);
      auto view = local::l1PowerView(torus, 3);
      auto luby = local::lubyMis(view, 11);
      std::vector<std::uint8_t> anchors(luby.inSet.begin(), luby.inSet.end());
      auto run = algorithm.executeOnAnchors(torus, anchors);
      nf.addRow({fmtInt(n),
                 run.solved ? fmtInt(run.rounds + luby.gridRounds) : run.failure,
                 run.solved && verify(torus, problems::vertexColouring(4),
                                      run.labels)
                     ? "yes"
                     : "NO"});
    }
    std::printf("%s\n", nf.render().c_str());
  }
  std::printf(
      "Shape check: the deterministic pipeline pays poly(Delta) constants\n"
      "for its Theta(log* n) guarantee; Luby needs only ~O(log n) cheap\n"
      "iterations, and A' is agnostic to which anchor engine produced its\n"
      "input -- the normal form composes with either (Section 12's theme:\n"
      "randomisation changes constants and the gap location, not the\n"
      "structure).\n");
  return 0;
}
