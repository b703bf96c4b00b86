// The d-dimensional kernel slices of lcl/verifier.hpp. The compiled path is
// a flat line-pointer kernel -- nodes are walked one axis-0 line (n
// contiguous labels) at a time, with one neighbour line pointer per outer
// axis recomputed per line, so the inner loop is 2d loads, one table-row
// load and a bit test per node, no TorusD::step and no per-node
// allocation. d = 2 routes through the proven 2D row kernel on the
// delegated LclTable (one 2D code path in the library). The engine
// (engine/shard_detail.hpp) runs these slices serially or per shard.
#include <bit>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "lcl/verifier.hpp"

namespace lclgrid {

namespace {

/// Table-driven kernel over axis-0 lines [lineBegin, lineEnd) of one
/// labelling. Requires every label in [0, sigma).
template <bool StopAtFirst>
std::int64_t tableViolationLines(const LclTableD& table, const TorusD& torus,
                                 const int* labels, long long lineBegin,
                                 long long lineEnd) {
  const int n = torus.n();
  if (const LclTable* table2d = table.as2d()) {
    return verifier_detail::tableViolationRows(*table2d, n, labels,
                                               static_cast<int>(lineBegin),
                                               static_cast<int>(lineEnd),
                                               StopAtFirst);
  }
  const int dims = torus.dims();
  const std::size_t* strides = table.slotStrides();
  const std::uint64_t* rows = table.rowData();
  // lineStride[a] = n^(a-1): the distance in line space of a +1 step along
  // outer axis a (axis 1 is the fastest-varying line coordinate).
  std::vector<long long> lineStride(static_cast<std::size_t>(dims), 0);
  long long stride = 1;
  for (int a = 1; a < dims; ++a) {
    lineStride[static_cast<std::size_t>(a)] = stride;
    stride *= n;
  }
  std::vector<const int*> posLine(static_cast<std::size_t>(dims), nullptr);
  std::vector<const int*> negLine(static_cast<std::size_t>(dims), nullptr);
  std::int64_t bad = 0;
  for (long long line = lineBegin; line < lineEnd; ++line) {
    const int* row = labels + line * n;
    long long rem = line;
    for (int a = 1; a < dims; ++a) {
      const long long ls = lineStride[static_cast<std::size_t>(a)];
      const int coord = static_cast<int>(rem % n);
      rem /= n;
      posLine[static_cast<std::size_t>(a)] =
          labels + (line + (coord + 1 == n ? ls * (1 - n) : ls)) * n;
      negLine[static_cast<std::size_t>(a)] =
          labels + (line + (coord == 0 ? ls * (n - 1) : -ls)) * n;
    }
    for (int x = 0; x < n; ++x) {
      std::size_t index =
          strides[0] * static_cast<std::size_t>(row[x + 1 == n ? 0 : x + 1]) +
          strides[1] * static_cast<std::size_t>(row[x == 0 ? n - 1 : x - 1]);
      for (int a = 1; a < dims; ++a) {
        index +=
            strides[2 * a] *
                static_cast<std::size_t>(posLine[static_cast<std::size_t>(a)][x]) +
            strides[2 * a + 1] *
                static_cast<std::size_t>(negLine[static_cast<std::size_t>(a)][x]);
      }
      if (!((rows[index] >> row[x]) & 1u)) {
        if constexpr (StopAtFirst) return 1;
        ++bad;
      }
    }
  }
  return bad;
}

/// Bit-sliced kernel over axis-0 lines [lineBegin, lineEnd) of a staged
/// LabelPlanes buffer (one plane set per line, transposed up front -- the
/// engine shards the staging pass separately). Per line: the axis-0 pair
/// network runs on the line's planes against their one-bit cyclic shift
/// (both directions via one extra stream shift), and each outer axis's
/// network runs against the pos/neg neighbour lines' planes, ANDed into
/// one ok-word -- 2d pair checks for 64 nodes per word sweep.
template <bool StopAtFirst>
std::int64_t planesLineViolations(const bitslice::BitslicePlanD& plan,
                                  const TorusD& torus,
                                  const LabelPlanes& planes,
                                  long long lineBegin, long long lineEnd) {
  const int n = torus.n();
  const int dims = torus.dims();
  const int B = plan.planes;
  const std::size_t W = planes.wordsPerRow();
  const std::uint64_t tail = bitslice::rowTailMask(n);
  std::vector<long long> lineStride(static_cast<std::size_t>(dims), 0);
  long long stride = 1;
  for (int a = 1; a < dims; ++a) {
    lineStride[static_cast<std::size_t>(a)] = stride;
    stride *= n;
  }
  std::vector<std::uint64_t> store((static_cast<std::size_t>(B) + 3) * W);
  std::uint64_t* shiftP = store.data();  // east-shifted planes of the line
  std::uint64_t* strmA = shiftP + static_cast<std::size_t>(B) * W;
  std::uint64_t* strmB = strmA + W;
  std::uint64_t* okAcc = strmB + W;
  std::int64_t bad = 0;
  for (long long line = lineBegin; line < lineEnd; ++line) {
    const std::uint64_t* curP = planes.row(line);
    for (int b = 0; b < B; ++b) {
      bitslice::shiftUpCyclic(curP + static_cast<std::size_t>(b) * W,
                              shiftP + static_cast<std::size_t>(b) * W, n);
    }
    plan.axes[0].eval(curP, shiftP, W, strmA);  // bit x = P0(c[x], c[x+1])
    bitslice::shiftDownCyclic(strmA, strmB, n);  // bit x = P0(c[x-1], c[x])
    for (std::size_t w = 0; w < W; ++w) okAcc[w] = strmA[w] & strmB[w];
    long long rem = line;
    for (int a = 1; a < dims; ++a) {
      const long long ls = lineStride[static_cast<std::size_t>(a)];
      const int coord = static_cast<int>(rem % n);
      rem /= n;
      const long long pos = line + (coord + 1 == n ? ls * (1 - n) : ls);
      const long long neg = line + (coord == 0 ? ls * (n - 1) : -ls);
      plan.axes[static_cast<std::size_t>(a)].eval(curP, planes.row(pos), W,
                                                  strmA);
      for (std::size_t w = 0; w < W; ++w) okAcc[w] &= strmA[w];
      plan.axes[static_cast<std::size_t>(a)].eval(planes.row(neg), curP, W,
                                                  strmA);
      for (std::size_t w = 0; w < W; ++w) okAcc[w] &= strmA[w];
    }
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t violated =
          ~okAcc[w] & (w + 1 == W ? tail : ~std::uint64_t{0});
      if (violated != 0) {
        if constexpr (StopAtFirst) return 1;
        bad += std::popcount(violated);
      }
    }
  }
  return bad;
}

/// Fallback for uncompiled problems or out-of-alphabet labels, over nodes
/// [vBegin, vEnd): TorusD::step per neighbour, GridLclD::allows per node.
/// An out-of-alphabet centre is a violation; garbage neighbour labels reach
/// the problem's own predicate (a 2D problem's, via GridLcl::asD()).
template <bool StopAtFirst>
std::int64_t functionalViolations(const TorusD& torus, const GridLclD& lcl,
                                  std::span<const int> labels,
                                  long long vBegin, long long vEnd) {
  const int dims = torus.dims();
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::int64_t bad = 0;
  for (long long v = vBegin; v < vEnd; ++v) {
    const int c = labels[static_cast<std::size_t>(v)];
    bool violated;
    if (c < 0 || c >= lcl.sigma()) {
      violated = true;
    } else {
      for (int a = 0; a < dims; ++a) {
        nbrs[static_cast<std::size_t>(2 * a)] =
            labels[static_cast<std::size_t>(torus.step(v, a, true))];
        nbrs[static_cast<std::size_t>(2 * a + 1)] =
            labels[static_cast<std::size_t>(torus.step(v, a, false))];
      }
      violated = !lcl.allows(c, nbrs);
    }
    if (violated) {
      if constexpr (StopAtFirst) return 1;
      ++bad;
    }
  }
  return bad;
}

void checkDims(const TorusD& torus, const GridLclD& lcl) {
  if (torus.dims() != lcl.dims()) {
    throw std::invalid_argument("verifier: torus/problem dimension mismatch");
  }
}

}  // namespace

std::vector<Violation> listViolations(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labels,
                                      int maxReported) {
  checkDims(torus, lcl);
  if (static_cast<long long>(labels.size()) != torus.size()) {
    throw std::invalid_argument("listViolations: labelling size mismatch");
  }
  const int dims = torus.dims();
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::vector<Violation> violations;
  for (long long v = 0; v < torus.size() &&
                        static_cast<int>(violations.size()) < maxReported;
       ++v) {
    const int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= lcl.sigma()) {
      violations.push_back({v, "label out of alphabet"});
      continue;
    }
    for (int a = 0; a < dims; ++a) {
      nbrs[static_cast<std::size_t>(2 * a)] =
          labels[static_cast<std::size_t>(torus.step(v, a, true))];
      nbrs[static_cast<std::size_t>(2 * a + 1)] =
          labels[static_cast<std::size_t>(torus.step(v, a, false))];
    }
    if (!lcl.allows(c, nbrs)) {
      std::ostringstream os;
      os << "constraint violated at (";
      const std::vector<int> coords = torus.coords(v);
      for (int a = 0; a < dims; ++a) {
        if (a > 0) os << ",";
        os << coords[static_cast<std::size_t>(a)];
      }
      os << "): c=" << lcl.labelName(c);
      for (int a = 0; a < dims; ++a) {
        os << " +" << a << "="
           << lcl.labelName(nbrs[static_cast<std::size_t>(2 * a)]) << " -" << a
           << "=" << lcl.labelName(nbrs[static_cast<std::size_t>(2 * a + 1)]);
      }
      violations.push_back({v, os.str()});
    }
  }
  return violations;
}

namespace verifier_detail {

long long lineCountD(const TorusD& torus) {
  return torus.size() / torus.n();
}

std::int64_t tableViolationLinesD(const LclTableD& table, const TorusD& torus,
                                  const int* labels, long long lineBegin,
                                  long long lineEnd, bool stopAtFirst) {
  return stopAtFirst
             ? tableViolationLines<true>(table, torus, labels, lineBegin,
                                         lineEnd)
             : tableViolationLines<false>(table, torus, labels, lineBegin,
                                          lineEnd);
}

bool hasBitslicePlanD(const GridLclD& lcl) {
  if (!lcl.hasTable()) return false;
  const LclTable* table2d = lcl.table().as2d();
  return table2d != nullptr ? table2d->bitslicePlan() != nullptr
                            : lcl.table().bitslicePlanD() != nullptr;
}

bool bitsliceSelectedD(const GridLclD& lcl, long long nodes) {
  return bitslice::enabled() && nodes >= bitslice::kMinNodesForBitslice &&
         hasBitslicePlanD(lcl);
}

LabelPlanes bitsliceMakePlanesD(const TorusD& torus, const LclTableD& table) {
  if (table.as2d() != nullptr) return LabelPlanes();
  return LabelPlanes(torus.n(), lineCountD(torus),
                     table.bitslicePlanD()->planes);
}

std::int64_t bitsliceViolationLinesD(const LclTableD& table,
                                     const TorusD& torus,
                                     const LabelPlanes& planes,
                                     const int* labels, long long lineBegin,
                                     long long lineEnd, bool stopAtFirst,
                                     unsigned* maxLabel) {
  if (const LclTable* table2d = table.as2d()) {
    return bitsliceViolationRows(
        *table2d, torus.n(), static_cast<int>(lineCountD(torus)), labels,
        static_cast<int>(lineBegin), static_cast<int>(lineEnd), stopAtFirst,
        maxLabel);
  }
  return planesViolationLinesD(table, torus, planes, lineBegin, lineEnd,
                               stopAtFirst);
}

bool hasPairPlanesPlanD(const GridLclD& lcl) {
  if (!hasBitslicePlanD(lcl)) return false;
  const LclTable* table2d = lcl.table().as2d();
  return table2d == nullptr || table2d->bitslicePlan()->kind ==
                                   bitslice::BitslicePlan::Kind::kPairPlanes;
}

std::int64_t planesViolationLinesD(const LclTableD& table, const TorusD& torus,
                                   const LabelPlanes& planes,
                                   long long lineBegin, long long lineEnd,
                                   bool stopAtFirst) {
  if (const LclTable* table2d = table.as2d()) {
    return pairPlanesViolationRows(
        *table2d, torus.n(), static_cast<int>(planes.rows()), planes.row(0),
        static_cast<int>(lineBegin), static_cast<int>(lineEnd), stopAtFirst);
  }
  const bitslice::BitslicePlanD& plan = *table.bitslicePlanD();
  return stopAtFirst ? planesLineViolations<true>(plan, torus, planes,
                                                  lineBegin, lineEnd)
                     : planesLineViolations<false>(plan, torus, planes,
                                                   lineBegin, lineEnd);
}

std::int64_t functionalViolationRangeD(const TorusD& torus,
                                       const GridLclD& lcl,
                                       std::span<const int> labels,
                                       long long vBegin, long long vEnd,
                                       bool stopAtFirst) {
  return stopAtFirst
             ? functionalViolations<true>(torus, lcl, labels, vBegin, vEnd)
             : functionalViolations<false>(torus, lcl, labels, vBegin, vEnd);
}

}  // namespace verifier_detail

}  // namespace lclgrid
