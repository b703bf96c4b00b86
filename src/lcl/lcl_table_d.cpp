#include "lcl/lcl_table_d.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace lclgrid {

namespace {

// Slot indices of the 2-dimensional torus (axis 0 = x, axis 1 = y).
constexpr int kSlotEast = 0;   // +x
constexpr int kSlotWest = 1;   // -x
constexpr int kSlotNorth = 2;  // +y
constexpr int kSlotSouth = 3;  // -y

/// 2D DepBit mask of a d = 2 slot mask (LclTableD::depsFrom2D is the
/// inverse); the two conventions name the same four directions.
std::uint8_t depsTo2d(std::uint32_t deps) {
  std::uint8_t out = 0;
  if (deps & (1u << kSlotNorth)) out |= kTableDepN;
  if (deps & (1u << kSlotEast)) out |= kTableDepE;
  if (deps & (1u << kSlotSouth)) out |= kTableDepS;
  if (deps & (1u << kSlotWest)) out |= kTableDepW;
  return out;
}

std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t word) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

std::uint32_t LclTableD::depsFrom2D(std::uint8_t deps) {
  std::uint32_t out = 0;
  if (deps & kTableDepN) out |= 1u << kSlotNorth;
  if (deps & kTableDepE) out |= 1u << kSlotEast;
  if (deps & kTableDepS) out |= 1u << kSlotSouth;
  if (deps & kTableDepW) out |= 1u << kSlotWest;
  return out;
}

std::uint32_t LclTableD::fullDeps(int dims) {
  if (dims < 1 || dims > kMaxDims) {
    throw std::invalid_argument("LclTableD: dims out of range");
  }
  // Shift in 64 bits: at dims == kMaxDims == 16 a 32-bit shift by 2*dims
  // would be the full type width (undefined behaviour).
  return static_cast<std::uint32_t>((std::uint64_t{1} << (2 * dims)) - 1);
}

bool LclTableD::compilable(int dims, int sigma, std::uint32_t deps) {
  if (dims < 1 || dims > kMaxDims) return false;
  if (sigma < 1 || sigma > kMaxSigma) return false;
  if (deps & ~fullDeps(dims)) return false;
  std::size_t rows = 1;
  for (int slot = 0; slot < 2 * dims; ++slot) {
    if (!((deps >> slot) & 1u)) continue;
    if (rows > kMaxRows / static_cast<std::size_t>(sigma)) return false;
    rows *= static_cast<std::size_t>(sigma);
  }
  return rows <= kMaxRows;
}

LclTableD::LclTableD(int dims, int sigma, std::uint32_t deps)
    : dims_(dims), sigma_(sigma), deps_(deps) {
  if (!compilable(dims, sigma, deps)) {
    throw std::invalid_argument("LclTableD: relation too large to compile");
  }
  fullRow_ = sigma == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << sigma) - 1;
  slotStrides_.assign(static_cast<std::size_t>(2 * dims), 0);
  std::size_t stride = 1;
  // Highest slot index innermost; slotOrder_ lists dependent slots with
  // ascending stride so the odometer walks rows in storage order.
  for (int slot = 2 * dims - 1; slot >= 0; --slot) {
    if (!slotRelevant(slot)) continue;
    slotStrides_[static_cast<std::size_t>(slot)] = stride;
    stride *= static_cast<std::size_t>(sigma);
    slotOrder_.push_back(slot);
  }
  rowsOwned_.assign(stride, 0);
}

LclTableD LclTableD::fromTable2D(std::shared_ptr<const LclTable> table) {
  LclTableD view;
  view.dims_ = 2;
  view.sigma_ = table->sigma();
  view.deps_ = depsFrom2D(table->deps());
  view.fullRow_ = table->fullRow();
  view.slotStrides_ = {table->strideE(), table->strideW(), table->strideN(),
                       table->strideS()};
  for (int slot = 0; slot < 4; ++slot) {
    if (view.slotRelevant(slot)) view.slotOrder_.push_back(slot);
  }
  std::sort(view.slotOrder_.begin(), view.slotOrder_.end(), [&](int a, int b) {
    return view.slotStrides_[static_cast<std::size_t>(a)] <
           view.slotStrides_[static_cast<std::size_t>(b)];
  });
  // Derived data delegates to the 2D table (pairOk reads its projections).
  // One fingerprint per 2D relation: a 2D problem and its d = 2 view must
  // key the same caches and checkpoints.
  view.trivialLabel_ = table->trivialLabel();
  view.edgeDecomposable_ = table->edgeDecomposable();
  view.fingerprint_ = table->fingerprint();
  view.table2d_ = std::move(table);
  return view;
}

void LclTableD::advanceOdometer(std::vector<int>& nbrs) const {
  for (int slot : slotOrder_) {
    int& digit = nbrs[static_cast<std::size_t>(slot)];
    if (++digit < sigma_) return;
    digit = 0;
  }
}

LclTableD LclTableD::compile(int dims, int sigma, std::uint32_t deps,
                             const Predicate& ok) {
  if (!ok) {
    throw std::invalid_argument("LclTableD::compile: missing predicate");
  }
  if (!compilable(dims, sigma, deps)) {
    throw std::invalid_argument("LclTableD: relation too large to compile");
  }
  if (dims == 2) {
    // Delegate: compile an ordinary 2D table from the same relation so the
    // d = 2 representation is the existing one, bit for bit.
    return fromTable2D(std::make_shared<const LclTable>(LclTable::compile(
        sigma, depsTo2d(deps), [&](int c, int n, int e, int s, int w) {
          const int nbrs[4] = {e, w, n, s};
          return ok(c, std::span<const int>(nbrs, 4));
        })));
  }
  LclTableD table(dims, sigma, deps);
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  const std::span<const int> view(nbrs);
  // The odometer enumerates rows in storage order (see visitRows), so the
  // loop counter is the row index; same in disjointUnion and remap.
  for (std::size_t index = 0; index < table.rowsOwned_.size(); ++index) {
    std::uint64_t row = 0;
    for (int c = 0; c < sigma; ++c) {
      if (ok(c, view)) row |= std::uint64_t{1} << c;
    }
    table.rowsOwned_[index] = row;
    table.advanceOdometer(nbrs);
  }
  table.finalise();
  return table;
}

LclTableD LclTableD::disjointUnion(const LclTableD& p, const LclTableD& q) {
  if (p.dims_ != q.dims_) {
    throw std::invalid_argument(
        "LclTableD::disjointUnion: dimension mismatch");
  }
  if (p.dims_ == 2) {
    return fromTable2D(std::make_shared<const LclTable>(
        LclTable::disjointUnion(*p.table2d_, *q.table2d_)));
  }
  const int dims = p.dims_;
  const int sigmaP = p.sigma_;
  const int sigma = sigmaP + q.sigma_;
  LclTableD table(dims, sigma, fullDeps(dims));
  auto family = [sigmaP](int label) { return label < sigmaP; };
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::vector<int> sub(static_cast<std::size_t>(2 * dims), 0);
  for (std::size_t index = 0; index < table.rowsOwned_.size(); ++index) {
    const bool inP = family(nbrs[0]);
    bool consistent = true;
    for (int slot = 1; slot < 2 * dims; ++slot) {
      if (family(nbrs[static_cast<std::size_t>(slot)]) != inP) {
        consistent = false;
        break;
      }
    }
    std::uint64_t row = 0;
    if (consistent) {
      for (int slot = 0; slot < 2 * dims; ++slot) {
        sub[static_cast<std::size_t>(slot)] =
            nbrs[static_cast<std::size_t>(slot)] - (inP ? 0 : sigmaP);
      }
      row = inP ? p.centreMask(sub.data())
                : q.centreMask(sub.data()) << sigmaP;
    }
    table.rowsOwned_[index] = row;
    table.advanceOdometer(nbrs);
  }
  table.finalise();
  return table;
}

LclTableD LclTableD::remap(const LclTableD& p, std::span<const int> toOld) {
  const int sigma = static_cast<int>(toOld.size());
  for (int old : toOld) {
    if (old < 0 || old >= p.sigma_) {
      throw std::invalid_argument("LclTableD::remap: label out of range");
    }
  }
  if (p.dims_ == 2) {
    return fromTable2D(
        std::make_shared<const LclTable>(LclTable::remap(*p.table2d_, toOld)));
  }
  const int dims = p.dims_;
  LclTableD table(dims, sigma, p.deps_);
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::vector<int> old(static_cast<std::size_t>(2 * dims), 0);
  for (std::size_t index = 0; index < table.rowsOwned_.size(); ++index) {
    for (int slot = 0; slot < 2 * dims; ++slot) {
      old[static_cast<std::size_t>(slot)] =
          toOld[static_cast<std::size_t>(nbrs[static_cast<std::size_t>(slot)])];
    }
    const std::uint64_t oldRow = p.centreMask(old.data());
    std::uint64_t row = 0;
    for (int c = 0; c < sigma; ++c) {
      row |= ((oldRow >> toOld[static_cast<std::size_t>(c)]) &
              std::uint64_t{1})
             << c;
    }
    table.rowsOwned_[index] = row;
    table.advanceOdometer(nbrs);
  }
  table.finalise();
  return table;
}

long long LclTableD::forbiddenRowCount() const {
  long long forbidden = 0;
  const std::uint64_t* rows = rowData();
  const std::size_t count = rowCount();
  for (std::size_t i = 0; i < count; ++i) {
    forbidden += sigma_ - std::popcount(rows[i] & fullRow_);
  }
  return forbidden;
}

bool LclTableD::sameContent(const LclTableD& other) const {
  if (dims_ != other.dims_ || sigma_ != other.sigma_ ||
      deps_ != other.deps_ || rowCount() != other.rowCount()) {
    return false;
  }
  const std::uint64_t* a = rowData();
  const std::uint64_t* b = other.rowData();
  return std::equal(a, a + rowCount(), b);
}

bool LclTableD::pairOk(int axis, int lower, int upper) const {
  if (table2d_) {
    return axis == 0 ? table2d_->horizontalOk(lower, upper)
                     : table2d_->verticalOk(lower, upper);
  }
  return pairs_[(static_cast<std::size_t>(axis) * sigma_ + lower) * sigma_ +
                upper] != 0;
}

void LclTableD::finalise() {
  const int s = sigma_;
  const int d = dims_;

  std::uint64_t hash = 1469598103934665603ULL;
  hash = fnvMix(hash, static_cast<std::uint64_t>(dims_));
  hash = fnvMix(hash, static_cast<std::uint64_t>(sigma_));
  hash = fnvMix(hash, static_cast<std::uint64_t>(deps_));
  for (std::uint64_t row : rowsOwned_) hash = fnvMix(hash, row);
  fingerprint_ = hash;

  trivialLabel_ = -1;
  std::vector<int> constant(static_cast<std::size_t>(2 * d), 0);
  for (int c = 0; c < s; ++c) {
    std::fill(constant.begin(), constant.end(), c);
    if (allows(c, constant)) {
      trivialLabel_ = c;
      break;
    }
  }

  // Maximal candidate pair projections per axis, exactly as the 2D table:
  // a pair participates if it occurs in some allowed neighbourhood, viewed
  // from either of the two nodes it touches; slots outside the dependency
  // mask occur with every value in allowed neighbourhoods, so they are
  // expanded in bulk after the row sweep.
  pairs_.assign(static_cast<std::size_t>(d) * s * s, 0);
  std::vector<std::uint8_t> occurs(static_cast<std::size_t>(s), 0);
  auto pairAt = [&](int axis, int lower, int upper) -> std::uint8_t& {
    return pairs_[(static_cast<std::size_t>(axis) * s + lower) * s + upper];
  };
  visitRows([&](std::uint64_t row, std::span<const int> nbrs) {
    if (row == 0) return;
    for (int c = 0; c < s; ++c) {
      if (!((row >> c) & 1u)) continue;
      occurs[static_cast<std::size_t>(c)] = 1;
      for (int a = 0; a < d; ++a) {
        if (slotRelevant(2 * a)) pairAt(a, c, nbrs[2 * a]) = 1;
        if (slotRelevant(2 * a + 1)) pairAt(a, nbrs[2 * a + 1], c) = 1;
      }
    }
  });
  for (int c = 0; c < s; ++c) {
    if (!occurs[static_cast<std::size_t>(c)]) continue;
    for (int other = 0; other < s; ++other) {
      for (int a = 0; a < d; ++a) {
        if (!slotRelevant(2 * a)) pairAt(a, c, other) = 1;
        if (!slotRelevant(2 * a + 1)) pairAt(a, other, c) = 1;
      }
    }
  }

  // Decomposability: the per-axis pair projections reproduce the relation
  // exactly. Per dependent slot the candidate-centre mask is read off the
  // pair grid; irrelevant slots contribute the same mask (all occurring
  // labels) for every value, so one sweep over the stored rows covers the
  // whole sigma^(2d) neighbourhood space without enumerating it.
  std::vector<std::uint64_t> toUpper(static_cast<std::size_t>(d) * s, 0);
  std::vector<std::uint64_t> fromLower(static_cast<std::size_t>(d) * s, 0);
  for (int a = 0; a < d; ++a) {
    for (int label = 0; label < s; ++label) {
      for (int c = 0; c < s; ++c) {
        if (pairAt(a, c, label)) {
          toUpper[static_cast<std::size_t>(a) * s + label] |=
              std::uint64_t{1} << c;
        }
        if (pairAt(a, label, c)) {
          fromLower[static_cast<std::size_t>(a) * s + label] |=
              std::uint64_t{1} << c;
        }
      }
    }
  }
  std::uint64_t occursMask = 0;
  for (int c = 0; c < s; ++c) {
    if (occurs[static_cast<std::size_t>(c)]) occursMask |= std::uint64_t{1} << c;
  }
  const bool anyIrrelevant = deps_ != fullDeps(d);
  edgeDecomposable_ = true;
  visitRows([&](std::uint64_t row, std::span<const int> nbrs) {
    if (!edgeDecomposable_) return;
    std::uint64_t byPairs = anyIrrelevant ? occursMask : fullRow_;
    for (int a = 0; a < d; ++a) {
      if (slotRelevant(2 * a)) {
        byPairs &= toUpper[static_cast<std::size_t>(a) * s + nbrs[2 * a]];
      }
      if (slotRelevant(2 * a + 1)) {
        byPairs &=
            fromLower[static_cast<std::size_t>(a) * s + nbrs[2 * a + 1]];
      }
    }
    if (byPairs != row) edgeDecomposable_ = false;
  });

  // Bit-sliced evaluation plan: per-axis pair networks, exact precisely
  // when the relation is edge-decomposable (the d-dimensional sibling of
  // the 2D kPairPlanes plan; d = 2 delegated tables never run finalise and
  // reach the 2D plan via as2d() instead). Synthesis gives up when any
  // axis's pair sets are too dense to beat the line-pointer kernel.
  bitslicePlanD_.reset();
  if (edgeDecomposable_ && s <= 8) {
    auto plan = std::make_shared<bitslice::BitslicePlanD>();
    plan->planes = bitslice::planeCount(s);
    plan->axes.reserve(static_cast<std::size_t>(d));
    bool small = true;
    for (int a = 0; a < d && small; ++a) {
      plan->axes.push_back(bitslice::compilePairNetwork(
          s, [&](int lower, int upper) { return pairOk(a, lower, upper); }));
      small = static_cast<int>(plan->axes.back().terms.size()) <=
              bitslice::kMaxPairTerms;
    }
    if (small) bitslicePlanD_ = std::move(plan);
  }
}

}  // namespace lclgrid
