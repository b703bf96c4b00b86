#include "synthesis/constraints.hpp"

#include <stdexcept>
#include <unordered_set>

#include "tiles/enumerator.hpp"

namespace lclgrid::synthesis {

namespace {

struct PairHash {
  std::size_t operator()(const VarPair& p) const {
    return std::hash<long long>()(
        (static_cast<long long>(p.a) << 32) ^ static_cast<long long>(p.b));
  }
};

struct CrossHash {
  std::size_t operator()(const VarCross& c) const {
    std::size_t h = std::hash<int>()(c.centre);
    auto mix = [&h](int v) {
      h ^= std::hash<int>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(c.north);
    mix(c.east);
    mix(c.south);
    mix(c.west);
    return h;
  }
};

}  // namespace

ConstraintSystem buildConstraints(const GridLcl& lcl,
                                  const tiles::TileSet& tileSet) {
  const tiles::TileShape shape = tileSet.shape();
  const int k = tileSet.k();
  ConstraintSystem system;

  auto requireTile = [&](std::uint64_t bits) {
    int index = tileSet.indexOf(bits);
    if (index < 0) {
      throw std::logic_error(
          "buildConstraints: sub-window is not a valid tile (heredity bug)");
    }
    return index;
  };

  if (lcl.isEdgeDecomposable()) {
    // Horizontal edges: enumerate h x (w+1) windows; the west tile is
    // columns [0, w), the east tile columns [1, w+1).
    {
      tiles::TileShape wide{shape.height, shape.width + 1};
      if (wide.cells() > 63) {
        throw std::invalid_argument("buildConstraints: overlap window > 63 cells");
      }
      auto wideTiles = tiles::enumerateTiles(k, wide.height, wide.width);
      system.overlapPatterns += wideTiles.size();
      std::unordered_set<VarPair, PairHash> seen;
      for (int i = 0; i < wideTiles.size(); ++i) {
        std::uint64_t bits = wideTiles.pattern(i);
        VarPair pair{requireTile(tiles::subPattern(bits, wide, 0, 0, shape)),
                     requireTile(tiles::subPattern(bits, wide, 0, 1, shape))};
        if (seen.insert(pair).second) system.horizontal.push_back(pair);
      }
    }
    // Vertical edges: (h+1) x w windows; row 0 is north, so the top tile is
    // the NORTH node and the bottom tile (rows [1, h+1)) the SOUTH node.
    {
      tiles::TileShape tall{shape.height + 1, shape.width};
      if (tall.cells() > 63) {
        throw std::invalid_argument("buildConstraints: overlap window > 63 cells");
      }
      auto tallTiles = tiles::enumerateTiles(k, tall.height, tall.width);
      system.overlapPatterns += tallTiles.size();
      std::unordered_set<VarPair, PairHash> seen;
      for (int i = 0; i < tallTiles.size(); ++i) {
        std::uint64_t bits = tallTiles.pattern(i);
        int northTile = requireTile(tiles::subPattern(bits, tall, 0, 0, shape));
        int southTile = requireTile(tiles::subPattern(bits, tall, 1, 0, shape));
        VarPair pair{southTile, northTile};  // a south of b
        if (seen.insert(pair).second) system.vertical.push_back(pair);
      }
    }
    return system;
  }

  // General path: (h+2) x (w+2) super-windows. The centre node's window has
  // its top-left at (1, 1) inside the super-window; moving one step in a
  // compass direction shifts the window by one cell (north = up = row - 1).
  tiles::TileShape super{shape.height + 2, shape.width + 2};
  if (super.cells() > 63) {
    throw std::invalid_argument("buildConstraints: super window > 63 cells");
  }
  auto superTiles = tiles::enumerateTiles(k, super.height, super.width);
  system.overlapPatterns += superTiles.size();
  std::unordered_set<VarCross, CrossHash> seen;
  for (int i = 0; i < superTiles.size(); ++i) {
    std::uint64_t bits = superTiles.pattern(i);
    VarCross cross;
    cross.centre = requireTile(tiles::subPattern(bits, super, 1, 1, shape));
    cross.north = requireTile(tiles::subPattern(bits, super, 0, 1, shape));
    cross.south = requireTile(tiles::subPattern(bits, super, 2, 1, shape));
    cross.east = requireTile(tiles::subPattern(bits, super, 1, 2, shape));
    cross.west = requireTile(tiles::subPattern(bits, super, 1, 0, shape));
    if (seen.insert(cross).second) system.crosses.push_back(cross);
  }
  return system;
}

}  // namespace lclgrid::synthesis
