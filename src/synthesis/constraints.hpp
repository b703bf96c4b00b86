// Constraint generation for the synthesis CSP (Section 7): the synthesized
// object A' assigns one output label to every tile; the LCL's constraints
// become constraints between tiles that can co-occur around a node.
//
// Two generators:
//  * Edge-decomposable problems (e.g. vertex colouring) use the paper's
//    neighbourhood-graph edges: (h)x(w+1) overlap windows give horizontal
//    tile pairs, (h+1)x(w) windows give vertical pairs.
//  * General cross predicates use (h+2)x(w+2) super-windows whose five
//    centred sub-windows are the tiles of a node and its four neighbours.
//
// Tile-of-a-node convention: node v sits at cell (rowC, colC) of its own
// window, rowC = (h-1)/2, colC = (w-1)/2; cell (r, c) of the window is the
// torus node v + (c - colC) east + (rowC - r) north (row 0 is northmost).
#pragma once

#include <cstdint>
#include <vector>

#include "lcl/grid_lcl.hpp"
#include "lcl/lcl_cnf.hpp"
#include "tiles/tile.hpp"

namespace lclgrid::synthesis {

/// The synthesis CSP's constraints over tile indices, as the clause
/// generator's pairs and crosses (lcl/lcl_cnf.hpp).
struct ConstraintSystem {
  // Edge-decomposable problems populate the pair lists, the rest crosses.
  std::vector<VarPair> horizontal;  // a west of b
  std::vector<VarPair> vertical;    // a south of b
  std::vector<VarCross> crosses;
  long long overlapPatterns = 0;  // enumeration size diagnostics
};

/// Builds the constraint system for the given problem over the tile set.
/// Throws if a required overlap/super window would exceed 63 cells.
ConstraintSystem buildConstraints(const GridLcl& lcl,
                                  const tiles::TileSet& tileSet);

/// Centre cell of a window of the given shape.
inline int centreRow(const tiles::TileShape& s) { return (s.height - 1) / 2; }
inline int centreCol(const tiles::TileShape& s) { return (s.width - 1) / 2; }

}  // namespace lclgrid::synthesis
