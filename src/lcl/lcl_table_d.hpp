// Compiled constraint tables for radius-1 LCLs on the d-dimensional torus.
//
// The paper states its Sections 3 and 6 results for oriented toroidal grids
// of any dimension d: a radius-1 node constraint over alphabet [sigma] is a
// finite relation on sigma^(2d+1) tuples (centre plus one neighbour per
// signed axis direction). LclTableD is the d-dimensional generalisation of
// LclTable (lcl/lcl_table.hpp): the relation is compiled once into a dense
// bit-packed truth table with one uint64_t row of allowed-centre bits per
// assignment of the *dependent* neighbour slots (irrelevant slots are
// squeezed out via zero strides), so a feasibility check is one indexed
// load plus a bit test on any dimension.
//
// Neighbour slot convention: slot 2a is the neighbour at +1 along axis a,
// slot 2a+1 the neighbour at -1, for a in [0, dims). On the 2-dimensional
// torus (TorusD axis 0 = x, axis 1 = y) this makes the slots [E, W, N, S].
//
// d = 2 is special-cased to *delegate*: a 2-dimensional LclTableD compiles
// an ordinary LclTable and views its packed rows directly (same memory,
// same strides, remapped to the slot order above), so there is exactly one
// 2D code path in the library and the existing 2D fast path cannot regress.
// as2d() exposes the delegated table; the TorusD verifier routes d = 2
// through the proven 2D row kernel.
//
// Derived data, as in 2D: per-axis pair projections and the
// edge-decomposability verdict, the trivial (constant-labelling) label, a
// content fingerprint, and disjointUnion / remap composition plus
// forEachForbidden / forEachAllowed row iteration so CNF generators and
// the global solver work unchanged in any dimension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "lcl/lcl_table.hpp"

namespace lclgrid {

class LclTableD {
 public:
  /// Centre labels are bits of a uint64_t row, so alphabets are capped.
  static constexpr int kMaxSigma = LclTable::kMaxSigma;
  /// Row-count cap shared with the 2D table (64 MiB of rows).
  static constexpr std::size_t kMaxRows = LclTable::kMaxRows;
  /// Dimension cap: the dependency mask is one bit per signed direction.
  static constexpr int kMaxDims = 16;

  /// nbrs has 2*dims entries in the slot order above.
  using Predicate = std::function<bool(int c, std::span<const int> nbrs)>;

  /// All 2*dims slots relevant.
  static std::uint32_t fullDeps(int dims);

  /// True iff a (dims, sigma, deps) relation fits the compiled form.
  static bool compilable(int dims, int sigma, std::uint32_t deps);

  /// Evaluates `ok` once per dependent tuple and packs the truth table.
  /// For dims == 2 this compiles (and delegates to) an LclTable.
  static LclTableD compile(int dims, int sigma, std::uint32_t deps,
                           const Predicate& ok);

  /// Wraps an existing 2D table as a 2-dimensional LclTableD: shared rows,
  /// plan and derived data, nothing copied or recomputed. The inverse
  /// direction of the d = 2 delegation; GridLcl builds its d = 2 view
  /// through this.
  static LclTableD fromTable2D(std::shared_ptr<const LclTable> table);

  /// The d = 2 slot mask naming the same directions as a 2D DepBit mask.
  static std::uint32_t depsFrom2D(std::uint8_t deps);

  /// Block-diagonal composition (the Section 6 disjoint union), dimensions
  /// must match; every slot becomes relevant, as in 2D.
  static LclTableD disjointUnion(const LclTableD& p, const LclTableD& q);

  /// Alphabet pushforward: `toOld[fresh]` is the p-label the fresh label
  /// stands for (relabel / restriction; rows gathered, bits permuted).
  static LclTableD remap(const LclTableD& p, std::span<const int> toOld);

  int dims() const { return dims_; }
  int sigma() const { return sigma_; }
  std::uint32_t deps() const { return deps_; }
  /// Low-sigma bits set: the "every centre label allowed" row.
  std::uint64_t fullRow() const { return fullRow_; }

  /// The delegated 2D table when dims() == 2, nullptr otherwise. The
  /// verifier routes d = 2 through the existing 2D row kernel via this.
  const LclTable* as2d() const { return table2d_.get(); }

  /// Row index of a neighbourhood given all 2*dims neighbour labels (slot
  /// order above); irrelevant slots have stride 0 and are ignored.
  std::size_t rowIndex(const int* nbrs) const {
    std::size_t index = 0;
    for (int slot = 0; slot < 2 * dims_; ++slot) {
      index += slotStrides_[static_cast<std::size_t>(slot)] *
               static_cast<std::size_t>(nbrs[slot]);
    }
    return index;
  }

  /// Bitmask of allowed centre labels for a neighbourhood (the hot path).
  std::uint64_t centreMask(const int* nbrs) const {
    return rowData()[rowIndex(nbrs)];
  }

  bool allows(int c, std::span<const int> nbrs) const {
    return (centreMask(nbrs.data()) >> c) & 1u;
  }

  std::size_t rowCount() const {
    return table2d_ ? table2d_->rowCount() : rowsOwned_.size();
  }

  /// Raw packed rows / per-slot strides for the verifier kernels (2*dims
  /// stride entries). For dims == 2 these view the delegated LclTable's
  /// storage -- the d = 2 delegation shares the 2D rows, it does not copy
  /// them. Not part of the stable API.
  const std::uint64_t* rowData() const {
    return table2d_ ? table2d_->rowData() : rowsOwned_.data();
  }
  const std::size_t* slotStrides() const { return slotStrides_.data(); }

  /// Visits every forbidden tuple once, irrelevant slots pinned to 0
  /// (mirroring the CNF generators' convention). f(c, span nbrs).
  template <typename F>
  void forEachForbidden(F&& f) const {
    visitRows([&](std::uint64_t row, std::span<const int> nbrs) {
      if (row == fullRow_) return;
      for (int c = 0; c < sigma_; ++c) {
        if (!((row >> c) & 1u)) f(c, nbrs);
      }
    });
  }

  /// Visits every allowed tuple once (irrelevant slots pinned to 0).
  template <typename F>
  void forEachAllowed(F&& f) const {
    visitRows([&](std::uint64_t row, std::span<const int> nbrs) {
      if (row == 0) return;
      for (int c = 0; c < sigma_; ++c) {
        if ((row >> c) & 1u) f(c, nbrs);
      }
    });
  }

  /// Number of forbidden tuples over the dependent slots only.
  long long forbiddenRowCount() const;

  /// The label of a feasible constant labelling, or -1.
  int trivialLabel() const { return trivialLabel_; }

  /// Content fingerprint: FNV-1a over (dims, sigma, deps, rows). Tables
  /// with equal content hash equal whichever construction path built them;
  /// the deps mask is part of the content, as in 2D. A d = 2 table reports
  /// its delegated LclTable's fingerprint, so a 2D problem and its d = 2
  /// form share one fingerprint.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Exact (dims, sigma, deps, rows) equality -- what fingerprint()
  /// approximates.
  bool sameContent(const LclTableD& other) const;

  /// The bit-sliced evaluation plan (lcl/label_planes.hpp): one pair
  /// network per axis when the relation is edge-decomposable with
  /// sigma <= 8 and small enough pair sets, nullptr otherwise. d = 2
  /// tables keep this null -- the delegated LclTable's plan (reached via
  /// as2d()->bitslicePlan()) covers them, so there is exactly one 2D
  /// bit-sliced code path. Derived data, not part of fingerprint().
  const bitslice::BitslicePlanD* bitslicePlanD() const {
    return bitslicePlanD_.get();
  }

  /// True iff the relation factorises into per-axis pair constraints:
  /// ok(c, nbrs) == /\_a P_a(nbrs[2a+1], c) && P_a(c, nbrs[2a]).
  bool edgeDecomposable() const { return edgeDecomposable_; }
  /// Pair projection along `axis` (maximal candidates; exact iff
  /// edgeDecomposable()): lower at coordinate x, upper at x+1.
  bool pairOk(int axis, int lower, int upper) const;

 private:
  LclTableD() = default;
  /// Allocates generic (non-delegated) storage for (dims, sigma, deps).
  LclTableD(int dims, int sigma, std::uint32_t deps);

  bool slotRelevant(int slot) const { return (deps_ >> slot) & 1u; }

  /// Calls f(row, nbrs) for every stored row in storage order, irrelevant
  /// slots pinned to 0. Works on both the generic and delegated layouts
  /// (the odometer advances dependent slots in stride order).
  /// The odometer ticks dependent slots in ascending stride order, whose
  /// strides form a complete mixed radix, so it enumerates row indices
  /// 0, 1, 2, ... exactly -- the loop counter IS the row index.
  template <typename F>
  void visitRows(F&& f) const {
    std::vector<int> nbrs(static_cast<std::size_t>(2 * dims_), 0);
    std::span<const int> view(nbrs);
    const std::uint64_t* rows = rowData();
    const std::size_t count = rowCount();
    for (std::size_t index = 0; index < count; ++index) {
      f(rows[index], view);
      advanceOdometer(nbrs);
    }
  }

  /// Advances the dependent slots of the odometer one row in ascending
  /// stride order (the smallest-stride slot ticks fastest).
  void advanceOdometer(std::vector<int>& nbrs) const;

  /// Computes projections, decomposability, the trivial label and the
  /// fingerprint from the packed rows (every generic construction path).
  void finalise();

  int dims_ = 0;
  int sigma_ = 0;
  std::uint32_t deps_ = 0;
  std::uint64_t fullRow_ = 0;
  std::vector<std::size_t> slotStrides_;  // 2*dims entries, 0 = irrelevant
  std::vector<int> slotOrder_;            // dependent slots, stride ascending
  std::vector<std::uint64_t> rowsOwned_;  // generic storage (empty at d = 2)
  std::shared_ptr<const LclTable> table2d_;  // d = 2 delegation target

  // Derived at compile time.
  std::vector<std::uint8_t> pairs_;  // [axis][lo][up]; empty at d = 2
  std::shared_ptr<const bitslice::BitslicePlanD> bitslicePlanD_;
  bool edgeDecomposable_ = false;
  int trivialLabel_ = -1;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace lclgrid
