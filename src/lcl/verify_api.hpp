// The unified verification front door. The engine grew four kernel tiers
// and three execution regimes (serial / pool-sharded / out-of-core
// streaming), each with its own overload family across verifier.hpp and
// stream_verify.hpp -- 20+ entry points for what is semantically one
// question ("is this labelling feasible, and how many nodes violate?").
// This header collapses them behind one request/options/result triple:
//
//   VerifyRequest request;
//   request.problem = &lcl;            // or problemD, or a fingerprint +
//   request.torus = &torus;            //   resolver (the service's idiom)
//   request.labels = labels;           // one labelling, or a back-to-back
//   request.options.countViolations = true;       //   batch, or a file
//   VerifyResult result = verify(request);
//   // result.feasible, result.violations, result.tier, result.nanos
//
// Semantics are exactly the documented overload semantics (verifier.hpp):
// verify-mode early-exits at the first violation, count-mode reports the
// exact total, and counts are bit-identical on every kernel tier and thread
// count. The old overloads remain as a thin compatibility surface -- the
// threaded ones (engine/parallel_verifier.cpp) now *forward* through this
// API -- and the verification service daemon (src/service) dispatches
// exclusively through it.
//
// Tier selection and pinning: by default (TierPin::kAuto) the request runs
// the tier the engine selects per docs/perf.md -- the same rules as every
// overload. A pinned tier runs exactly that kernel, bypassing the
// bit-slice node floor and the LCLGRID_BITSLICE gate, and throws
// std::invalid_argument when the problem/instance cannot run it (no
// compiled table, no bit-slice plan, out-of-range labels). Streaming
// requests (a file or labellingPath) always report VerifyTier::kStream and
// accept only kAuto.
//
// Implemented in src/engine/verify_api.cpp -- link lclgrid_engine (or the
// umbrella `lclgrid` target).
#pragma once

#include <cstdint>
#include <functional>
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
  /// Threads / grain / pool for the execution; threads == 1 runs serially
  /// on the caller (the exact serial kernel slices).
  engine::EngineOptions engine{.threads = 1};
  TierPin tier = TierPin::kAuto;
  /// Slab geometry for streaming (file / labellingPath) requests.
  StreamWindow window;
};

struct VerifyRequest {
  // --- problem reference: exactly one of problem / problemD, or a
  // fingerprint plus resolver ------------------------------------------------
  const GridLcl* problem = nullptr;
  const GridLclD* problemD = nullptr;
  /// Table fingerprint of a previously seen problem; consulted only when
  /// both problem pointers are null. `resolveFingerprint` maps it to a
  /// live problem (the service's table cache is the canonical resolver);
  /// an unresolvable fingerprint throws std::invalid_argument.
  std::uint64_t fingerprint = 0;
  std::function<const GridLcl*(std::uint64_t)> resolveFingerprint;

  // --- instance: inline labels over a torus, or an LCLLABv1 file ------------
  /// Geometry for inline labels (torus for GridLcl, torusD for GridLclD).
  const Torus2D* torus = nullptr;
  const TorusD* torusD = nullptr;
  /// One labelling (labels.size() == torus size) or a back-to-back batch
  /// (a whole multiple); the batch runs one labelling per work item, like
  /// verifyBatch / countViolationsBatch.
  std::span<const int> labels;
  /// An already-open LCLLABv1 labelling (streamed zero-copy), or ...
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
  /// kBitsliced. Batches select per labelling -- exactly like the batch
  /// overloads -- and report the tier that answered the first labelling.
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
/// unsatisfiable tier pin) and std::runtime_error for unreadable labelling
/// files. Counts are bit-identical to the per-tier overloads at every
/// thread count.
VerifyResult verify(const VerifyRequest& request);

}  // namespace lclgrid
