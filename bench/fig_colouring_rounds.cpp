// E6 -- Theorem 4 vs Theorem 9 as a round-complexity figure: the
// synthesized normal-form 4-colouring (Theta(log* n): flat in n) against
// the brute-force global 3-colouring (Theta(n): linear in n). The explicit
// Section 8 construction is reported separately: at laptop-scale ell its
// radius-assignment CSP is infeasible (see DESIGN.md), which the pipeline
// reports honestly.
#include <cstdio>

#include "algorithms/four_colouring.hpp"
#include "lcl/global_solver.hpp"
#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"
#include "support/numeric.hpp"
#include "support/table.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/synthesizer.hpp"

using namespace lclgrid;

int main() {
  std::printf("E6: 4-colouring rounds (Theta(log* n)) vs global 3-colouring (Theta(n))\n\n");

  auto fourCol = problems::vertexColouring(4);
  auto synthesis = synthesis::synthesize(fourCol, {.maxK = 3});
  if (!synthesis.success) {
    std::printf("synthesis failed -- cannot run the experiment\n");
    return 1;
  }
  synthesis::NormalFormAlgorithm algorithm(*synthesis.rule);

  AsciiTable table({"n", "log* n", "4-col normal form: rounds", "verified",
                    "3-col brute force: rounds"});
  for (int n : {24, 32, 48, 64, 96, 128}) {
    Torus2D torus(n);
    auto run = algorithm.execute(torus, local::randomIds(torus.size(), 7));
    bool ok = run.solved && verify(torus, fourCol, run.labels);
    table.addRow({fmtInt(n), fmtInt(logStar(n)), fmtInt(run.rounds),
                  ok ? "yes" : "NO", fmtInt(bruteForceRounds(n))});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Section 8 explicit construction (d = 2), honest parameter report:\n");
  AsciiTable sec8({"n", "ell ladder outcome", "note"});
  for (int n : {32, 64}) {
    TorusD torus(2, n);
    auto run = algorithms::fourColouring(
        torus, local::randomIds(static_cast<int>(torus.size()), 7));
    sec8.addRow({fmtInt(n),
                 run.solved ? ("solved, ell=" + fmtInt(run.ell)) : run.failure,
                 run.solved ? (run.radiusByBacktracking ? "radii by backtracking"
                                                        : "greedy radii")
                            : "paper needs ell = 1+12d*16^d"});
  }
  std::printf("%s\n", sec8.render().c_str());
  std::printf(
      "Shape check: the normal-form rounds are flat in n (log* n is constant\n"
      "at these sizes) while the brute-force global solver scales linearly.\n");
  return 0;
}
