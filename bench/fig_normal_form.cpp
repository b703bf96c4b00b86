// E12 -- the normal form A' o S_k (Figure 1 / Theorem 2): the problem-
// independent S_k component (MIS of G^(k)) runs in O(log* n) rounds -- flat
// across sizes -- while A' is a constant-radius lookup. Also runs the
// Theorem 2 speed-up transformer end to end: Voronoi local coordinates feed
// the inner algorithm an instance-size lie, and the output still verifies.
#include <cstdio>

#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/graph_view.hpp"
#include "local/ids.hpp"
#include "local/mis.hpp"
#include "speedup/speedup.hpp"
#include "support/numeric.hpp"
#include "support/table.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"

using namespace lclgrid;

int main() {
  std::printf("E12: the normal form A' o S_k and the Theorem 2 speed-up\n\n");

  std::printf("S_k: MIS of G^(k) rounds across sizes (problem-independent part):\n");
  AsciiTable sk({"n", "log* n", "k=1 rounds", "k=2 rounds", "k=3 rounds"});
  for (int n : {16, 32, 64, 128}) {
    Torus2D torus(n);
    std::vector<std::string> row = {fmtInt(n), fmtInt(logStar(n))};
    for (int k : {1, 2, 3}) {
      auto mis = local::computeMis(local::l1PowerView(torus, k),
                                   local::randomIds(torus.size(), 17));
      row.push_back(fmtInt(mis.gridRounds));
    }
    sk.addRow(row);
  }
  std::printf("%s\n", sk.render().c_str());

  std::printf("A' component: constant radius lookup (4-colouring rule, k=3):\n");
  auto synthesis = synthesis::synthesize(problems::vertexColouring(4), {.maxK = 3});
  if (synthesis.success) {
    synthesis::NormalFormAlgorithm algorithm(*synthesis.rule);
    Torus2D torus(48);
    auto run = algorithm.execute(torus, local::randomIds(torus.size(), 3));
    std::printf(
        "  window %dx%d, |tiles| = %d, A' radius = %d rounds, total = %d "
        "(of which S_k = %d)\n\n",
        synthesis.rule->shape.height, synthesis.rule->shape.width,
        synthesis.rule->tileSet.size(), run.localRadius, run.rounds,
        run.misRounds);
  }

  std::printf("Theorem 2 transformer (inner = synthesized MIS algorithm):\n");
  auto misSynthesis =
      synthesis::synthesize(problems::maximalIndependentSet(), {.maxK = 1});
  if (misSynthesis.success) {
    synthesis::NormalFormAlgorithm inner(*misSynthesis.rule);
    speedup::InnerAlgorithm innerFn =
        [&inner](const Torus2D& torus, const std::vector<std::uint64_t>& ids,
                 int) {
          auto run = inner.execute(torus, ids);
          return speedup::InnerRun{run.labels, run.rounds};
        };
    AsciiTable sp({"n", "k (lie)", "anchor rounds", "inner rounds T(k)",
                   "verified", "T(k) < k/4-4"});
    for (int n : {48, 64, 96}) {
      Torus2D torus(n);
      auto result = speedup::speedUp(torus, local::randomIds(torus.size(), 9),
                                     16, innerFn);
      bool ok = result.solved &&
                verify(torus, problems::maximalIndependentSet(), result.labels);
      sp.addRow({fmtInt(n), fmtInt(result.k), fmtInt(result.anchorRounds),
                 fmtInt(result.innerRounds), ok ? "yes" : "NO",
                 result.theoremGuarantee ? "yes" : "no (see DESIGN.md)"});
    }
    std::printf("%s\n", sp.render().c_str());
  }
  std::printf(
      "Shape check: S_k rounds are flat in n for every k (the log* n column\n"
      "does not move at these scales); the transformer output verifies even\n"
      "though the universal T(k) < k/4-4 certificate needs larger k -- the\n"
      "concrete inner algorithm only requires locally-proper colours.\n");
  return 0;
}
