// LCL problems on the oriented d-dimensional torus, in radius-1 cross form:
// feasibility of a labelling is the conjunction, over all nodes, of a
// predicate over the node's own label and the labels of its 2d neighbours
// (one per signed axis direction -- the orientation is part of the model,
// so the predicate may distinguish directions).
//
// This is the d-dimensional sibling of GridLcl (lcl/grid_lcl.hpp): the
// constructor predicate is an ergonomic front end only, compiled eagerly
// into an LclTableD (for dims == 2 that table delegates to an ordinary
// LclTable, so the 2D representation stays the proven one). Alphabets
// beyond the 64-label table limit, or dependent row spaces beyond the
// table's row cap, keep the functional path -- exactly the 2D contract.
//
// Neighbour slot convention (shared with LclTableD and TorusD): slot 2a is
// the neighbour at +1 along axis a, slot 2a+1 at -1.
//
// Thread-safety contract: a constructed GridLclD is immutable apart from
// setLabelNames, so const queries may run concurrently from engine pool
// threads. Constructor predicates must be re-entrant (pure functions of
// their arguments); setLabelNames must happen-before sharing across
// threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lcl/lcl_table_d.hpp"

namespace lclgrid {

class GridLclD {
 public:
  /// nbrs has 2*dims entries in the slot order above.
  using Predicate = std::function<bool(int c, std::span<const int> nbrs)>;

  GridLclD(std::string name, int dims, int sigma, std::uint32_t deps,
           Predicate ok);
  /// Table-first construction (combinators compose tables directly); the
  /// predicate() accessor is backed by table lookups.
  GridLclD(std::string name, LclTableD table);
  /// Assembly from a predicate and its already-compiled table (null: the
  /// functional path), compiling nothing: GridLcl::asD() builds its
  /// zero-copy d = 2 view this way. `ok` must agree with `table` on
  /// in-range labels; it alone judges labels the table cannot index.
  GridLclD(std::string name, int dims, int sigma, std::uint32_t deps,
           Predicate ok, std::shared_ptr<const LclTableD> table);

  const std::string& name() const { return name_; }
  int dims() const { return dims_; }
  int sigma() const { return sigma_; }
  std::uint32_t deps() const { return deps_; }

  /// Single constraint query. In-range arguments on a compiled problem are
  /// one indexed load and a bit test; out-of-range arguments (or an
  /// uncompiled problem) fall back to the raw predicate, preserving the
  /// predicate's own semantics for garbage labels.
  bool allows(int c, std::span<const int> nbrs) const {
    if (table_ && inRange(c)) {
      bool ranged = true;
      for (int nbr : nbrs) {
        if (!inRange(nbr)) {
          ranged = false;
          break;
        }
      }
      if (ranged) return table_->allows(c, nbrs);
    }
    return ok_(c, nbrs);
  }

  /// True iff the problem compiled to a table (every problem with sigma
  /// and dependent row space within the table caps).
  bool hasTable() const { return table_ != nullptr; }
  /// The compiled table; throws std::logic_error when hasTable() is false.
  const LclTableD& table() const;
  /// The original constructor predicate (the reference implementation for
  /// uncompiled problems and the property tests).
  const Predicate& predicate() const { return ok_; }

  /// Optional human-readable label names (size sigma if set).
  void setLabelNames(std::vector<std::string> names);
  std::string labelName(int label) const;

  /// True iff the constant labelling with some single label is feasible.
  bool hasTrivialSolution() const { return trivialLabel() >= 0; }
  /// The trivial label if one exists, otherwise -1.
  int trivialLabel() const;

 private:
  bool inRange(int label) const {
    return static_cast<unsigned>(label) < static_cast<unsigned>(sigma_);
  }

  std::string name_;
  int dims_;
  int sigma_;
  std::uint32_t deps_;
  Predicate ok_;
  std::shared_ptr<const LclTableD> table_;  // shared: copies stay cheap
  std::vector<std::string> labelNames_;
};

namespace problems_d {

/// Proper vertex colouring with `colours` labels on the d-dimensional
/// torus: the centre differs from all 2d neighbours. The d-dimensional
/// generalisation of problems::vertexColouring, used by the throughput
/// bench and the property tests.
GridLclD vertexColouring(int dims, int colours);

/// Neighbourhood parity: the centre label equals the XOR of the low bits
/// of its 2d neighbours (sigma = 2). Depends on every slot and is not
/// edge-decomposable for dims >= 1 -- a deliberately table-hostile
/// workload exercising full-width rows.
GridLclD xorParity(int dims);

/// Monotone slices along `axis`: labels must be non-decreasing mod sigma
/// in the +axis direction (c -> c or c+1). Depends on two slots only, so
/// the compiled rows exercise zero-stride squeezing at every dimension.
GridLclD monotoneAxis(int dims, int axis, int sigma);

}  // namespace problems_d

}  // namespace lclgrid
