// Verification of LCL labellings on tori: the locally checkable predicate is
// evaluated at every node. Used as the ground truth behind every algorithm
// and every synthesis result in the library.
//
// Two tiers of interface:
//  * diagnostics (listViolations / renderLabelling) -- per-node reports with
//    coordinates and label names, for tests and debugging;
//  * the batched engine (verify / countViolations / verifyBatch /
//    countViolationsBatch) -- compiled-table lookups over flat row buffers,
//    no per-node allocation, amortised over many labellings or many tori in
//    one call. This is the hot path behind the randomised lower-bound
//    experiments and the perf benches.
//
// The batched engine itself selects between three kernel tiers per call
// (see docs/perf.md for the selection rules and measurements):
//  * functional -- the predicate loop, for uncompiled problems or
//    out-of-alphabet labels;
//  * row-pointer -- one compiled-table row load and a bit test per node;
//  * bit-sliced -- for small alphabets the labelling is transposed into
//    bit-planes (lcl/label_planes.hpp) and one uint64_t operation decides
//    64 nodes, via the plan the table synthesised at compile time. The
//    transpose also checks the alphabet, so this tier runs without a
//    separate range scan; a count that meets an out-of-alphabet label
//    reruns on the functional tier (verifier_detail::resolveBitslicePass).
//    LCLGRID_BITSLICE=0 (or bitslice::setEnabled(false)) falls back to the
//    row-pointer kernel; every tier produces identical counts.
//
// Semantics: verify() decides feasibility and *early-exits* -- it returns
// false at the first violating node (first violating 64-node word on the
// bit-sliced tier; first violating shard chunk when threaded), without
// scanning the rest of the labelling. On the staged d >= 3 bit-sliced
// path the serial engine transposes one outermost-axis block ahead of the
// scan, so an early violation also skips most of the staging; the
// threaded overload runs staging as one full parallel pass before its
// cooperative early-exit scan. countViolations() always scans everything
// and reports the exact violation total, identically on every kernel tier
// and thread count. The two agree on feasibility
// (verify == (countViolations == 0)); use verify for yes/no questions and
// countViolations when the count itself is the datum.
//
// Every batched entry point also has a threaded overload taking
// engine::EngineOptions: the flat row-pointer kernel is sharded across the
// work-stealing pool (per-shard accumulators, combined in shard order, so
// counts are bit-identical to the serial path) and batches run one labelling
// per task. Implemented in src/engine/parallel_verifier.cpp -- callers of
// the threaded overloads link lclgrid_engine (or the umbrella `lclgrid`
// target); an overload called with EngineOptions{.threads = 1} takes
// exactly the serial code path. Thread-safety: the threaded overloads only read the torus, the
// problem and the label buffers; uncompiled problems must carry re-entrant
// predicates (every problem in the library does).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/engine_options.hpp"
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

/// True iff the labelling is a feasible solution of the LCL on the torus.
bool verify(const Torus2D& torus, const GridLcl& lcl,
            std::span<const int> labels);

/// Number of violated node constraints (nodes carrying out-of-alphabet
/// labels count as violated).
std::int64_t countViolations(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels);

/// Batched verification of many labellings of the same torus, stored
/// back-to-back (labelsBatch.size() must be a multiple of torus.size()).
/// Element i of the result is 1 iff labelling i is feasible.
std::vector<std::uint8_t> verifyBatch(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labelsBatch);

/// Per-labelling violation counts for a back-to-back batch.
std::vector<std::int64_t> countViolationsBatch(
    const Torus2D& torus, const GridLcl& lcl,
    std::span<const int> labelsBatch);

/// A labelling of some torus; lets one batch call span heterogeneous
/// instance sizes (many tori in one pass).
struct LabellingInstance {
  const Torus2D* torus = nullptr;
  std::span<const int> labels;
};

/// Batched verification across heterogeneous tori.
std::vector<std::uint8_t> verifyBatch(
    const GridLcl& lcl, std::span<const LabellingInstance> instances);

// --- d-dimensional tori (src/lcl/verifier_d.cpp) ---------------------------
// The same two tiers on TorusD: compiled LclTableD row-pointer kernel when
// the problem compiled and all labels are in range, functional fallback
// otherwise. A 2-dimensional GridLclD delegates its table to an LclTable,
// and these entry points route it through the existing 2D row kernel, so
// d = 2 runs the exact same code as the Torus2D overloads.

/// All violated node constraints on a d-dimensional torus.
std::vector<Violation> listViolations(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labels,
                                      int maxReported = 16);

/// True iff the labelling is a feasible solution of the LCL on the torus.
bool verify(const TorusD& torus, const GridLclD& lcl,
            std::span<const int> labels);

/// Number of violated node constraints (out-of-alphabet centres count).
std::int64_t countViolations(const TorusD& torus, const GridLclD& lcl,
                             std::span<const int> labels);

/// Batched verification of many labellings of the same torus, stored
/// back-to-back (labelsBatch.size() must be a multiple of torus.size()).
std::vector<std::uint8_t> verifyBatch(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labelsBatch);

/// Per-labelling violation counts for a back-to-back batch.
std::vector<std::int64_t> countViolationsBatch(
    const TorusD& torus, const GridLclD& lcl,
    std::span<const int> labelsBatch);

// --- threaded overloads (src/engine/parallel_verifier.cpp) ----------------
// Results are bit-identical to the serial functions above for every thread
// count: shards accumulate independently and are combined in shard order.

bool verify(const Torus2D& torus, const GridLcl& lcl,
            std::span<const int> labels, const engine::EngineOptions& options);

std::int64_t countViolations(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels,
                             const engine::EngineOptions& options);

std::vector<std::uint8_t> verifyBatch(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labelsBatch,
                                      const engine::EngineOptions& options);

std::vector<std::int64_t> countViolationsBatch(
    const Torus2D& torus, const GridLcl& lcl, std::span<const int> labelsBatch,
    const engine::EngineOptions& options);

std::vector<std::uint8_t> verifyBatch(const GridLcl& lcl,
                                      std::span<const LabellingInstance> instances,
                                      const engine::EngineOptions& options);

// Threaded TorusD overloads: one labelling is sharded along the torus's
// outermost axes (contiguous ranges of axis-0 lines -- the same flat kernel
// the serial engine runs per shard, accumulators combined in chunk order,
// so counts are bit-identical at every thread count); batches run one
// labelling per work item.

bool verify(const TorusD& torus, const GridLclD& lcl,
            std::span<const int> labels, const engine::EngineOptions& options);

std::int64_t countViolations(const TorusD& torus, const GridLclD& lcl,
                             std::span<const int> labels,
                             const engine::EngineOptions& options);

std::vector<std::uint8_t> verifyBatch(const TorusD& torus, const GridLclD& lcl,
                                      std::span<const int> labelsBatch,
                                      const engine::EngineOptions& options);

std::vector<std::int64_t> countViolationsBatch(
    const TorusD& torus, const GridLclD& lcl, std::span<const int> labelsBatch,
    const engine::EngineOptions& options);

/// Row-range and node-range slices of the serial kernels, exposed so the
/// engine's sharded verifier runs the exact same code per shard. Not part
/// of the stable API.
namespace verifier_detail {

/// True iff every label lies in [0, sigma) -- the precondition of the
/// table kernel, checked up front by the table tier, tier pins and the
/// streaming validation frontier (the bit-sliced tier checks it inside its
/// transpose instead, see resolveBitslicePass).
bool allLabelsInRange(int sigma, std::span<const int> labels);

/// Turns a bit-sliced pass that ran without an up-front alphabet scan into
/// the answer. `violations` is the kernel's result and `maxLabel` the
/// largest label it read, as unsigned. No bit-sliced kernel indexes memory
/// by a label value, so a pass over garbage labels is safe, only wrong:
///  * stopAtFirst: an early exit and a label outside [0, sigma) both make
///    the labelling infeasible (an out-of-alphabet centre is a violation),
///    so the answer is 1 unless the full pass was clean and in range;
///  * count: a pass that read a label outside [0, sigma) is discarded --
///    std::nullopt tells the caller to rerun on the functional tier, and
///    bumps verify.range_fallbacks.
/// An answered pass is recorded as a bitsliced call (verify.calls.*).
std::optional<std::int64_t> resolveBitslicePass(std::int64_t violations,
                                                unsigned maxLabel, int sigma,
                                                bool stopAtFirst,
                                                long long nodes);

/// Number of labellings in a back-to-back batch; throws the verifier's
/// std::invalid_argument when the batch is not a whole number of tori.
/// Shared by the serial and sharded batch entry points so their
/// validation cannot diverge.
std::size_t batchCount(const Torus2D& torus, std::span<const int> labelsBatch);

/// Violations of the compiled-table kernel on grid rows [yBegin, yEnd);
/// labels must all be in range. stopAtFirst returns at most 1.
std::int64_t tableViolationRows(const LclTable& table, int n,
                                const int* labels, int yBegin, int yEnd,
                                bool stopAtFirst);

/// True iff in-range labellings of this problem at this instance size run
/// the bit-sliced kernel: the compiled table carries a plan, the global
/// gate is on and the labelling clears the per-call setup floor
/// (bitslice::kMinNodesForBitslice). The sharded verifier keys its kernel
/// choice on this so serial and threaded paths cannot diverge.
bool bitsliceSelected(const GridLcl& lcl, long long nodes);

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

/// Violations of the functional fallback on nodes [vBegin, vEnd).
std::int64_t functionalViolationRange(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labels, int vBegin,
                                      int vEnd, bool stopAtFirst);

/// d-dimensional slices (src/lcl/verifier_d.cpp). A "line" is a contiguous
/// run of n nodes along axis 0; lines are indexed row-major over the outer
/// axes (axis 1 fastest), so a line range is a slab along the outermost
/// axis -- the unit the engine shards across threads.
/// Number of axis-0 lines: torus.size() / torus.n().
long long lineCountD(const TorusD& torus);

/// Number of labellings in a back-to-back TorusD batch; throws
/// std::invalid_argument when the batch is not a whole number of tori.
std::size_t batchCountD(const TorusD& torus, std::span<const int> labelsBatch);

/// Violations of the compiled-table kernel on lines [lineBegin, lineEnd);
/// labels must all be in range. Routes d = 2 through tableViolationRows on
/// the delegated LclTable. stopAtFirst returns at most 1.
std::int64_t tableViolationLinesD(const LclTableD& table, const TorusD& torus,
                                  const int* labels, long long lineBegin,
                                  long long lineEnd, bool stopAtFirst);

/// True iff in-range labellings of this d-dimensional problem at this
/// instance size run the bit-sliced kernel: the gate is on, the instance
/// clears the setup floor, and either the d = 2 delegated table carries a
/// 2D plan (the rolling row kernel runs directly on the labels) or the
/// table carries a per-axis plan (the staged line kernel below).
bool bitsliceSelectedD(const GridLclD& lcl, long long nodes);

/// Plane buffer sized for the staged d >= 3 line kernel (lineCountD rows
/// of torus.n() labels, plan->planes planes). Default-constructed (empty)
/// when the table delegates to 2D -- that path needs no staging.
LabelPlanes bitsliceMakePlanesD(const TorusD& torus, const LclTableD& table);

/// Transposes lines [lineBegin, lineEnd) of the labelling into `planes`
/// -- the staging pass the engine shards separately from the kernel pass.
void bitsliceStageLinesD(const TorusD& torus, std::span<const int> labels,
                         LabelPlanes& planes, long long lineBegin,
                         long long lineEnd);

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
