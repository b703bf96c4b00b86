// Shared kernel-tier attribution probes for the verification engine
// (support/telemetry.hpp): the engine's tier dispatch
// (engine/verify_api.cpp, engine/shard_detail.hpp) and the streaming pass
// (stream_verify.cpp) funnel through recordCall() so the four tiers share
// one set of counter names. All of this compiles to nothing with
// -DLCLGRID_TELEMETRY=OFF.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lcl/label_planes.hpp"
#include "support/telemetry.hpp"

namespace lclgrid::verify_probes {

enum class Tier { kFunctional = 0, kTable = 1, kBitsliced = 2, kStream = 3 };

/// Span name for a tier's kernel pass ('/'-separated span naming scheme,
/// docs/observability.md). String literals: safe to hand to ScopedSpan.
inline const char* spanName(Tier tier) {
  switch (tier) {
    case Tier::kFunctional:
      return "verify/functional";
    case Tier::kTable:
      return "verify/table";
    case Tier::kBitsliced:
      return "verify/bitsliced";
    case Tier::kStream:
      return "verify/stream";
  }
  return "verify/unknown";
}

/// Attributes one verify/count call to the kernel tier that answered it:
/// bumps verify.calls.<tier> and verify.nodes.<tier>, and on the bit-sliced
/// tier also verify.simd.<rung> for the SimdTier ladder rung in effect
/// (individual rows below the width floors still run scalar -- the counter
/// records the dispatched rung, see docs/perf.md).
inline void recordCall(Tier tier, std::int64_t nodes) {
  namespace tm = telemetry;
  static const tm::Counter calls[4] = {
      tm::counter("verify.calls.functional"),
      tm::counter("verify.calls.table"),
      tm::counter("verify.calls.bitsliced"),
      tm::counter("verify.calls.stream")};
  static const tm::Counter nodeCounts[4] = {
      tm::counter("verify.nodes.functional"),
      tm::counter("verify.nodes.table"),
      tm::counter("verify.nodes.bitsliced"),
      tm::counter("verify.nodes.stream")};
  const auto index = static_cast<std::size_t>(tier);
  calls[index].increment();
  nodeCounts[index].add(nodes);
  if (tier == Tier::kBitsliced) {
    static const tm::Counter simd[3] = {tm::counter("verify.simd.scalar"),
                                        tm::counter("verify.simd.avx2"),
                                        tm::counter("verify.simd.avx512")};
    simd[static_cast<std::size_t>(bitslice::simdTier())].increment();
  }
}

}  // namespace lclgrid::verify_probes
