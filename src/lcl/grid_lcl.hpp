// LCL problems on the oriented 2-dimensional torus, in radius-1 *cross* form
// (Section 3, "Radius-1 LCL problems"): the output alphabet is a finite set
// [sigma], and feasibility of a labelling is the conjunction, over all nodes,
// of a predicate over the node's own label and the labels of its four
// neighbours (north, east, south, west -- the orientation is part of the
// model, so the predicate may distinguish directions).
//
// The constructor predicate is an ergonomic front end only: on construction
// it is compiled once into an LclTable (a dense bit-packed truth table, see
// lcl/lcl_table.hpp), and every query -- allows(), the projections, the
// triviality probe -- is a table lookup from then on. Alphabets too large
// for a table (sigma > 64 or an oversized dependent row space) keep the
// predicate path and the seed's lazy projection computation.
//
// Problems whose natural radius is larger (e.g. the Turing-machine problem
// L_M of Section 6) get bespoke verifiers; per the paper this only shifts
// running times by additive constants.
//
// Thread-safety contract: a constructed GridLcl is immutable apart from
// setLabelNames, so const queries (allows, table, trivialLabel, the
// projections) may run concurrently from engine pool threads -- the lazy
// fallback projections are installed atomically. The one obligation on
// callers is that constructor predicates must be re-entrant (pure functions
// of their five arguments); every problem in problems.hpp is. setLabelNames
// must happen-before sharing the object across threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lcl/lcl_table.hpp"

namespace lclgrid {

class GridLclD;

/// Bitmask flags naming which neighbour labels a predicate actually reads.
/// Constraint generators use this to avoid quantifying over irrelevant
/// positions (e.g. edge colouring only reads C, S and W).
enum DepBit : std::uint8_t {
  kDepN = 1 << 0,
  kDepE = 1 << 1,
  kDepS = 1 << 2,
  kDepW = 1 << 3,
  kDepAll = kDepN | kDepE | kDepS | kDepW,
};

// GridLcl hands its deps mask straight to LclTable, which reads it through
// the free-standing kTableDep* constants; the two definitions must agree.
static_assert(kDepN == kTableDepN && kDepE == kTableDepE &&
              kDepS == kTableDepS && kDepW == kTableDepW);

class GridLcl {
 public:
  using Predicate = std::function<bool(int c, int n, int e, int s, int w)>;

  GridLcl(std::string name, int sigma, std::uint8_t deps, Predicate ok);
  /// Table-first construction (combinators compose tables directly); the
  /// predicate() accessor is backed by table lookups.
  GridLcl(std::string name, LclTable table);

  /// Copying is safe concurrently with const queries on the source: the
  /// lazily built projections are read through their atomic pointer (a
  /// defaulted copy would race with projections()'s publication). Moving
  /// requires exclusive ownership of the source, like any mutation.
  GridLcl(const GridLcl& other);
  GridLcl& operator=(const GridLcl& other);
  GridLcl(GridLcl&& other) noexcept;
  GridLcl& operator=(GridLcl&& other) noexcept;

  const std::string& name() const { return name_; }
  int sigma() const { return sigma_; }
  std::uint8_t deps() const { return deps_; }

  /// Single constraint query. In-range arguments on a compiled problem are
  /// one indexed load and a bit test; out-of-range arguments (or an
  /// uncompiled problem) fall back to the raw predicate, preserving the
  /// predicate's own semantics for garbage labels.
  bool allows(int c, int n, int e, int s, int w) const {
    if (table_ && inRange(c) && inRange(n) && inRange(e) && inRange(s) &&
        inRange(w)) {
      return table_->allows(c, n, e, s, w);
    }
    return ok_(c, n, e, s, w);
  }

  /// True iff the problem compiled to a table (always, for every problem in
  /// the library; only exotic alphabets beyond 64 labels stay functional).
  bool hasTable() const { return table_ != nullptr; }
  /// The compiled table; throws std::logic_error when hasTable() is false.
  const LclTable& table() const;
  /// The original constructor predicate (used by property tests and as the
  /// reference implementation for uncompiled problems).
  const Predicate& predicate() const { return ok_; }

  /// The problem as a 2-dimensional GridLclD -- the one problem type the
  /// verification engine runs. Built once at construction, zero-copy: it
  /// shares the compiled table's rows (LclTableD::fromTable2D) and judges
  /// what the table cannot through this predicate, neighbour slots
  /// [E, W, N, S] mapped to ok(c, n, e, s, w). Shared by copies.
  const GridLclD& asD() const { return *view_; }

  /// Optional human-readable label names (size sigma if set).
  void setLabelNames(std::vector<std::string> names);
  std::string labelName(int label) const;

  /// True iff the constant labelling with some single label is feasible;
  /// on toroidal grids this is exactly the O(1)-solvable case (Section 7).
  bool hasTrivialSolution() const;
  /// The trivial label if one exists, otherwise -1.
  int trivialLabel() const;

  /// True iff the predicate factorises into horizontal and vertical pair
  /// constraints: ok(c,n,e,s,w) == H(w,c) && H(c,e) && V(s,c) && V(c,n).
  bool isEdgeDecomposable() const;

  /// Pair projections used when isEdgeDecomposable() holds:
  /// horizontalOk(a, b): a immediately west of b may carry (a, b).
  bool horizontalOk(int west, int east) const;
  /// verticalOk(a, b): a immediately south of b may carry (a, b).
  bool verticalOk(int south, int north) const;

 private:
  bool inRange(int label) const {
    return static_cast<unsigned>(label) < static_cast<unsigned>(sigma_);
  }

  /// Decomposability data for the fallback path (alphabets beyond the table
  /// limits), computed on first use and installed once.
  struct Projections {
    bool edgeDecomposable = false;
    std::vector<std::uint8_t> hPairs;  // sigma x sigma
    std::vector<std::uint8_t> vPairs;
  };
  const Projections& projections() const;
  /// Builds view_ (every constructor's last step).
  void makeView();

  std::string name_;
  int sigma_;
  std::uint8_t deps_;
  Predicate ok_;
  std::shared_ptr<const LclTable> table_;  // shared: copies stay cheap
  std::shared_ptr<const GridLclD> view_;   // asD(); shared like table_
  std::vector<std::string> labelNames_;

  // Lazily computed, set at most once. The lock-free fast path is the raw
  // atomic pointer (one acquire load per query -- as cheap as the plain
  // flag it replaced); the shared_ptr carries ownership and is only
  // touched under the compute mutex / after an acquire of the pointer, so
  // concurrent queries and copies from engine pool threads are race-free.
  // Copies taken before the computation each recompute at most once.
  mutable std::shared_ptr<const Projections> projections_;
  mutable std::atomic<const Projections*> projectionsPtr_{nullptr};
};

}  // namespace lclgrid
