// The verification front door: one request/options/result triple for what
// is semantically one question ("is this labelling feasible, and how many
// nodes violate?"), whatever the kernel tier, the execution regime (serial,
// pool-sharded, out-of-core streaming), the batch shape or the dimension:
//
//   VerifyRequest request;
//   request.problem = &lcl;            // or problemD (with torusD)
//   request.torus = &torus;
//   request.labels = labels;           // one labelling, or a back-to-back
//   request.options.countViolations = true;       //   batch, or a file
//   VerifyResult result = verify(request);
//   // result.feasible, result.violations, result.tier, result.nanos
//
// Semantics: verify-mode early-exits at the first violation (first
// violating 64-node word on the bit-sliced tier, first violating chunk
// when sharded); count-mode scans everything and reports the exact total,
// bit-identical on every kernel tier and lane count. The two agree on
// feasibility. The verification service daemon (src/service) dispatches
// exclusively through verify(VerifyRequest); the two Torus2D helpers at
// the end are the paper-facing serial calls of the examples and figures.
//
// One engine, two front ends: every request runs as a GridLclD over a
// TorusD. A GridLcl/Torus2D request is handed over as the problem's d = 2
// view (GridLcl::asD(), built once per problem, sharing its compiled
// rows) over TorusD(2, n), so both front ends reach the same kernels and
// report the same fingerprint (LclTable::fingerprint()).
//
// Tier selection and pinning: by default (TierPin::kAuto) the request runs
// the tier the engine selects per docs/perf.md. A pinned tier runs exactly
// that kernel, bypassing the bit-slice node floor and the LCLGRID_BITSLICE
// gate, and throws std::invalid_argument when the problem/instance cannot
// run it (no compiled table, no bit-slice plan, out-of-range labels).
// Streaming requests (a file or labellingPath) always report
// VerifyTier::kStream and accept only kAuto. Their files hold packed
// bit-planes, so a label outside [0, 2^ceil(log2 sigma)) never reaches a
// streamed verify: StreamLabellingWriter rejects it.
//
// Thread-safety: a request only reads the torus, the problem and the label
// buffers; uncompiled problems must carry re-entrant predicates (every
// problem in the library does).
//
// Implemented in src/engine/verify_api.cpp -- link lclgrid_engine (or the
// umbrella `lclgrid` target).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine_options.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/stream_verify.hpp"

namespace lclgrid {

class Torus2D;
class TorusD;

/// The kernel tier a request ran on (docs/perf.md).
enum class VerifyTier { kFunctional, kTable, kBitsliced, kStream };

const char* verifyTierName(VerifyTier tier);

/// Tier pin for VerifyOptions: kAuto selects per the engine's rules; a
/// pinned tier runs exactly that kernel or throws std::invalid_argument.
enum class TierPin { kAuto, kFunctional, kTable, kBitsliced };

struct VerifyOptions {
  /// false: decide feasibility, early-exit at the first violation (the
  /// `violations` field is then 0 or 1, a lower bound). true: scan
  /// everything, report the exact violation total.
  bool countViolations = false;
  /// Threads / grain / pool for the execution; one lane (threads == 1, or
  /// a one-lane pool) runs the kernel slices inline on the caller, with no
  /// pool.
  engine::EngineOptions engine{.threads = 1};
  TierPin tier = TierPin::kAuto;
  /// Slab geometry for streaming (file / labellingPath) requests.
  StreamWindow window;
};

struct VerifyRequest {
  // --- problem: exactly one of problem / problemD ---------------------------
  const GridLcl* problem = nullptr;
  const GridLclD* problemD = nullptr;

  // --- instance: inline labels over a torus, or an LCLLABv2 file ------------
  /// Geometry for inline labels (torus for GridLcl, torusD for GridLclD).
  const Torus2D* torus = nullptr;
  const TorusD* torusD = nullptr;
  /// One labelling (labels.size() == torus size) or a back-to-back batch
  /// (a whole multiple, at least one); a batch runs one labelling per work
  /// item, and options.engine.grain then counts labellings.
  std::span<const int> labels;
  /// An already-open LCLLABv2 labelling (packed bit-planes, streamed: the
  /// plane kernels read the mapping in place, the other tiers a decoded
  /// window; lcl/stream_verify.hpp), or ...
  const StreamLabelling* file = nullptr;
  /// ... a path to open one for the duration of the call.
  std::string labellingPath;

  VerifyOptions options;
};

struct VerifyResult {
  /// True iff every labelling of the request is feasible.
  bool feasible = false;
  /// Total violations across the request: exact when
  /// options.countViolations, otherwise 0 (feasible) or >= 1 (early exit).
  std::int64_t violations = 0;
  /// Labellings covered (1 for single / file requests).
  std::int64_t labellings = 1;
  /// Per-labelling verdicts / counts, filled only for batches
  /// (labellings > 1); single-labelling requests report through the
  /// aggregate fields alone, keeping the hot path allocation-free.
  std::vector<std::uint8_t> feasiblePerLabelling;
  std::vector<std::int64_t> violationsPerLabelling;  // count mode only
  /// The tier that produced the answer. A count whose bit-sliced pass read
  /// an out-of-alphabet label reruns on (and reports) kFunctional; a
  /// verify-mode request answers "infeasible" from that pass and reports
  /// kBitsliced. Batches select per labelling and report the tier that
  /// answered the first labelling.
  VerifyTier tier = VerifyTier::kFunctional;
  /// Fingerprint of the problem's compiled table (0 when uncompiled).
  std::uint64_t fingerprint = 0;
  /// Wall time of the dispatch (excluding request validation), for the
  /// service's latency accounting.
  std::int64_t nanos = 0;
};

/// The one verification entry point: validates the request, resolves the
/// problem and instance, selects (or honours the pinned) kernel tier and
/// dispatches. Throws std::invalid_argument on malformed requests (no/
/// ambiguous problem, missing instance, size or dimension mismatches,
/// unsatisfiable tier pin, inline labels that are empty) and
/// std::runtime_error for unreadable labelling files. Counts are
/// bit-identical on every tier at every lane count.
VerifyResult verify(const VerifyRequest& request);

/// True iff the labelling is a feasible solution of the LCL on the torus:
/// a serial, early-exiting default request. Throws std::invalid_argument
/// ("verifier: labelling size mismatch") unless labels.size() ==
/// torus.size().
bool verify(const Torus2D& torus, const GridLcl& lcl,
            std::span<const int> labels);

/// Number of violated node constraints (nodes carrying out-of-alphabet
/// labels count as violated): a serial, count-mode default request, with
/// verify's size check.
std::int64_t countViolations(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels);

}  // namespace lclgrid
