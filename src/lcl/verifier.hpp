// Verification of LCL labellings on tori: the locally checkable predicate is
// evaluated at every node. Used as the ground truth behind every algorithm
// and every synthesis result in the library.
//
// This header holds the diagnostics (listViolations / renderLabelling) --
// per-node reports with coordinates and label names, for tests and
// debugging -- and the kernel slices of the verification engine. Callers
// verify through lcl/verify_api.hpp: verify(VerifyRequest) selects a tier
// and runs these slices serially or sharded across the engine's pool, and
// verify / countViolations on a Torus2D are its serial helpers.
//
// The engine runs one problem type, GridLclD over TorusD (a GridLcl as
// GridLcl::asD()); its d = 2 line slices route into the 2D row kernels.
// The Torus2D diagnostics are paper-facing and an independent reference.
//
// The engine selects between three in-core kernel tiers per call (see
// docs/perf.md for the selection rules and measurements):
//  * functional -- the predicate loop, for uncompiled problems or
//    out-of-alphabet labels;
//  * row-pointer -- one compiled-table row load and a bit test per node;
//  * bit-sliced -- for small alphabets the labelling is transposed into
//    bit-planes (lcl/label_planes.hpp) and one uint64_t operation decides
//    64 nodes, via the plan the table synthesised at compile time. The
//    transpose also checks the alphabet, so this tier runs without a
//    separate range scan; a count that meets an out-of-alphabet label
//    reruns on the functional tier (verifier_detail::resolveBitslicePass).
// Every tier produces identical counts; a request pins one with TierPin.
//
// Every slice takes a range of rows, lines or nodes and a stopAtFirst flag
// (return at most 1, at the first violation), so a shard of a sharded pass
// runs exactly the code of a serial one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"

namespace lclgrid {

struct Violation {
  /// Linear node id; wide enough for TorusD instances beyond 2^31 nodes.
  long long node = -1;
  std::string description;
};

/// All violated node constraints (empty means the labelling is feasible).
std::vector<Violation> listViolations(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labels,
                                      int maxReported = 16);

/// All violated node constraints on a d-dimensional torus
/// (src/lcl/verifier_d.cpp).
std::vector<Violation> listViolations(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labels,
                                      int maxReported = 16);

/// Row-, line- and node-range slices of the kernels, run by the engine
/// (engine/shard_detail.hpp) serially or per shard. Not part of the stable
/// API.
namespace verifier_detail {

/// True iff every label lies in [0, sigma) -- the precondition of the
/// table kernel, checked up front by the table tier, tier pins and the
/// streaming validation frontier (the bit-sliced tier checks it inside its
/// transpose instead, see resolveBitslicePass).
bool allLabelsInRange(int sigma, std::span<const int> labels);

/// Turns a bit-sliced pass that ran without an up-front alphabet scan into
/// the answer. `violations` is the kernel's result and `readOutside` tells
/// whether it read a label outside [0, sigma). No bit-sliced kernel indexes
/// memory by a label value, so a pass over garbage labels is safe, only
/// wrong:
///  * stopAtFirst: an early exit and a label outside [0, sigma) both make
///    the labelling infeasible (an out-of-alphabet centre is a violation),
///    so the answer is 1 unless the full pass was clean and in range;
///  * count: a pass that read a label outside [0, sigma) is discarded --
///    std::nullopt tells the caller to rerun on the functional tier, and
///    bumps verify.range_fallbacks.
/// An answered pass is recorded as a bitsliced call (verify.calls.*).
std::optional<std::int64_t> resolveBitslicePass(std::int64_t violations,
                                                bool readOutside,
                                                bool stopAtFirst,
                                                long long nodes);

/// Number of labellings in a back-to-back batch over a torus of
/// `torusSize` nodes; throws std::invalid_argument when the batch is not a
/// whole number of tori.
std::size_t batchCount(long long torusSize, std::span<const int> labelsBatch);

/// Violations of the compiled-table kernel on grid rows [yBegin, yEnd);
/// labels must all be in range. stopAtFirst returns at most 1.
std::int64_t tableViolationRows(const LclTable& table, int n,
                                const int* labels, int yBegin, int yEnd,
                                bool stopAtFirst);

/// Violations of the bit-sliced kernel on grid rows [yBegin, yEnd) of an
/// nRows x n row-major labelling (rows wrap cyclically); the table must
/// carry a plan. Rows are transposed into rolling bit-plane (or
/// packed-nibble) buffers internally, so a shard is self-contained.
/// stopAtFirst returns at most 1, deciding per 64-node word. When every
/// label is in range, counts are bit-identical to tableViolationRows; any
/// label is safe to read, and `maxLabel` (when non-null) is raised to the
/// largest label the call read, as unsigned, so the caller can tell
/// whether the result stands (resolveBitslicePass).
std::int64_t bitsliceViolationRows(const LclTable& table, int n, int nRows,
                                   const int* labels, int yBegin, int yEnd,
                                   bool stopAtFirst,
                                   unsigned* maxLabel = nullptr);

/// Violations of the pair-planes kernel on grid rows [yBegin, yEnd) of a
/// labelling already in the LabelPlanes layout: `planes` holds nRows rows
/// of planeCount(sigma) planes of wordsPerRow(n) words, read in place (a
/// mapped LCLLABv2 payload). The table's plan must be the pair-planes kind
/// (vertex colouring included), every label must lie in [0, sigma) and
/// every row's tail bits must be zero -- the streaming frontier checks
/// both. Counts are bit-identical to bitsliceViolationRows.
std::int64_t pairPlanesViolationRows(const LclTable& table, int n, int nRows,
                                     const std::uint64_t* planes, int yBegin,
                                     int yEnd, bool stopAtFirst);

/// d-dimensional slices (src/lcl/verifier_d.cpp). A "line" is a contiguous
/// run of n nodes along axis 0; lines are indexed row-major over the outer
/// axes (axis 1 fastest), so a line range is a slab along the outermost
/// axis -- the unit the engine shards across threads.
/// Number of axis-0 lines: torus.size() / torus.n().
long long lineCountD(const TorusD& torus);

/// Violations of the compiled-table kernel on lines [lineBegin, lineEnd);
/// labels must all be in range. Routes d = 2 through tableViolationRows on
/// the delegated LclTable. stopAtFirst returns at most 1.
std::int64_t tableViolationLinesD(const LclTableD& table, const TorusD& torus,
                                  const int* labels, long long lineBegin,
                                  long long lineEnd, bool stopAtFirst);

/// True iff the problem's compiled table carries a bit-slice plan: the
/// d = 2 delegated table's 2D plan (the rolling row kernel runs directly on
/// the labels) or a per-axis plan (the staged line kernel below). A
/// kBitsliced tier pin needs exactly this.
bool hasBitslicePlanD(const GridLclD& lcl);

/// True iff in-range labellings of this problem at this instance size run
/// the bit-sliced kernel: the instance clears the setup floor
/// (bitslice::kMinNodesForBitslice) and hasBitslicePlanD holds.
bool bitsliceSelectedD(const GridLclD& lcl, long long nodes);

/// Plane buffer sized for the staged d >= 3 line kernel (lineCountD rows
/// of torus.n() labels, plan->planes planes), staged with
/// LabelPlanes::setRows. Default-constructed (empty) when the table
/// delegates to 2D -- that path needs no staging.
LabelPlanes bitsliceMakePlanesD(const TorusD& torus, const LclTableD& table);

/// Violations of the bit-sliced kernel on lines [lineBegin, lineEnd).
/// d = 2 tables route through bitsliceViolationRows on the raw labels
/// (planes unused) and raise `maxLabel` like it; d >= 3 reads only the
/// staged planes (LabelPlanes::setRows reports their labels' maximum) and
/// leaves `maxLabel` alone. Counts are bit-identical to
/// tableViolationLinesD when every label is in range.
std::int64_t bitsliceViolationLinesD(const LclTableD& table,
                                     const TorusD& torus,
                                     const LabelPlanes& planes,
                                     const int* labels, long long lineBegin,
                                     long long lineEnd, bool stopAtFirst,
                                     unsigned* maxLabel = nullptr);

/// True iff the problem's plan reads bit-planes: the d = 2 delegated
/// table's pair-planes plan (vertex colouring included) or a per-axis plan
/// (d >= 3). Exactly these problems stream zero-copy from a mapped
/// LCLLABv2 payload (planesViolationLinesD); the nibble tier needs packed
/// int32 rows.
bool hasPairPlanesPlanD(const GridLclD& lcl);

/// Violations of the pair-planes kernels on lines [lineBegin, lineEnd) of
/// a labelling already in the LabelPlanes layout (one plane row per line,
/// e.g. a LabelPlanes::view of a mapped LCLLABv2 payload), under the
/// preconditions of pairPlanesViolationRows: d = 2 runs the 2D row kernel
/// on the rows in place, d >= 3 the staged line kernel. Counts are
/// bit-identical to bitsliceViolationLinesD.
std::int64_t planesViolationLinesD(const LclTableD& table, const TorusD& torus,
                                   const LabelPlanes& planes,
                                   long long lineBegin, long long lineEnd,
                                   bool stopAtFirst);

/// Violations of the functional fallback on nodes [vBegin, vEnd).
std::int64_t functionalViolationRangeD(const TorusD& torus,
                                       const GridLclD& lcl,
                                       std::span<const int> labels,
                                       long long vBegin, long long vEnd,
                                       bool stopAtFirst);

}  // namespace verifier_detail

/// Renders a labelling as an ASCII grid (row y = n-1 on top, matching the
/// north-up orientation), using the problem's label names.
std::string renderLabelling(const Torus2D& torus, const GridLcl& lcl,
                            std::span<const int> labels);

}  // namespace lclgrid
