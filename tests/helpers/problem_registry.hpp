// The problem registry the tests sweep: every concrete problem class of the
// paper with a compiled table.
#pragma once

#include <vector>

#include "lcl/grid_lcl.hpp"
#include "lcl/problems.hpp"

namespace lclgrid {

inline std::vector<GridLcl> problemRegistry() {
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

}  // namespace lclgrid
