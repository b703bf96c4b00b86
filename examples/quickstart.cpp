// Quickstart: define an LCL problem, classify it with the synthesis oracle,
// run the synthesized optimal algorithm on a torus, and verify the output.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "lcl/problems.hpp"
#include "lcl/verify_api.hpp"
#include "local/ids.hpp"
#include "synthesis/normal_form.hpp"
#include "synthesis/oracle.hpp"

using namespace lclgrid;

int main() {
  // 1. An LCL problem in radius-1 cross form: maximal independent set.
  GridLcl problem = problems::maximalIndependentSet();
  std::printf("problem: %s (alphabet size %d)\n", problem.name().c_str(),
              problem.sigma());

  // 2. Classify it on 2-dimensional toroidal grids (Section 7's oracle):
  //    O(1) / Theta(log* n) (+ an optimal algorithm) / global.
  synthesis::OracleOptions options;
  options.synthesis.maxK = 2;
  auto report = synthesis::classifyOnGrid(problem, options);
  std::printf("oracle verdict: %s\n",
              synthesis::gridComplexityName(report.complexity).c_str());

  if (report.complexity != synthesis::GridComplexity::LogStar) return 0;

  // 3. The oracle handed us a normal form A' o S_k: run it on a real torus
  //    with random unique identifiers.
  synthesis::NormalFormAlgorithm algorithm(*report.rule);
  std::printf("normal form: k = %d, window %dx%d, %d tiles\n",
              report.rule->k, report.rule->shape.height,
              report.rule->shape.width, report.rule->tileSet.size());

  Torus2D torus(32);
  auto ids = local::randomIds(torus.size(), /*seed=*/42);
  auto run = algorithm.execute(torus, ids);
  std::printf("executed on a %dx%d torus: %d LOCAL rounds "
              "(S_k: %d, A': radius %d)\n",
              torus.n(), torus.n(), run.rounds, run.misRounds,
              run.localRadius);

  // 4. Verify with the LCL checker.
  bool ok = run.solved && verify(torus, problem, run.labels);
  std::printf("verified: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
