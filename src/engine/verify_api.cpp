// The verification front door (lcl/verify_api.hpp): the one place the
// engine selects a kernel tier, and the only place that knows 2D requests
// exist. Every request -- serial or sharded, single labelling or batch,
// in-core or streamed -- runs as a GridLclD over a TorusD: a GridLcl hands
// over its zero-copy d = 2 view (GridLcl::asD()) and a Torus2D becomes
// TorusD(2, n). The kernel slices of verifier_detail then run through the
// pool-or-null runners of engine/shard_detail.hpp, and the bit-identity
// tests pin each tier against the functional tier at 1/2/8 lanes. The
// automatic bit-sliced tier checks the alphabet inside its own pass; the
// table tier and tier pins scan it up front (sharded when a pool is
// attached).
#include "lcl/verify_api.hpp"

#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/shard_detail.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"

namespace lclgrid {

namespace {

namespace sd = engine::shard_detail;
using verify_probes::Tier;

/// Decides (or validates, for a pin) the in-core kernel tier (never
/// kStream). An automatic bit-sliced selection scans nothing: the pass
/// checks the alphabet itself. Otherwise one range scan, sharded when
/// `pool` is attached (null: serial).
VerifyTier selectKernel(engine::ThreadPool* pool, std::int64_t grain,
                        const TorusD& torus, const GridLclD& lcl,
                        std::span<const int> labels, TierPin pin) {
  const auto labelsInRange = [&] {
    return sd::allInRange(pool, grain, torus, lcl.sigma(), labels);
  };
  switch (pin) {
    case TierPin::kAuto:
      if (verifier_detail::bitsliceSelectedD(
              lcl, static_cast<long long>(labels.size()))) {
        return VerifyTier::kBitsliced;
      }
      return lcl.hasTable() && labelsInRange() ? VerifyTier::kTable
                                               : VerifyTier::kFunctional;
    case TierPin::kFunctional:
      return VerifyTier::kFunctional;
    case TierPin::kTable:
      if (!lcl.hasTable()) {
        throw std::invalid_argument(
            "verify: tier pin kTable needs a compiled table");
      }
      if (!labelsInRange()) {
        throw std::invalid_argument(
            "verify: tier pin kTable needs every label in [0, sigma)");
      }
      return VerifyTier::kTable;
    case TierPin::kBitsliced:
      if (!verifier_detail::hasBitslicePlanD(lcl)) {
        throw std::invalid_argument(
            "verify: tier pin kBitsliced needs a bit-slice plan");
      }
      if (!labelsInRange()) {
        throw std::invalid_argument(
            "verify: tier pin kBitsliced needs every label in [0, sigma)");
      }
      return VerifyTier::kBitsliced;
  }
  throw std::invalid_argument("verify: unknown tier pin");
}

/// Violations of one labelling on the resolved kernel: the exact total, or
/// -- stopAtFirst -- 1 at the first violation (cooperatively across chunks
/// when pooled), else 0. A bit-sliced count that read a label outside
/// [0, sigma) is discarded and reruns on the functional tier; `kernel` is
/// updated to the tier that produced the answer. Verify mode always has a
/// bit-sliced answer: an out-of-range label is a violation.
std::int64_t runKernel(engine::ThreadPool* pool, std::int64_t grain,
                       const TorusD& torus, const GridLclD& lcl,
                       std::span<const int> labels, bool stopAtFirst,
                       VerifyTier& kernel) {
  if (kernel == VerifyTier::kBitsliced) {
    if (const std::optional<std::int64_t> answer = sd::bitslicePass(
            pool, grain, torus, lcl, labels, stopAtFirst)) {
      return *answer;
    }
    kernel = VerifyTier::kFunctional;
  }
  const bool tablePath = kernel == VerifyTier::kTable;
  const Tier tier = tablePath ? Tier::kTable : Tier::kFunctional;
  verify_probes::recordCall(tier, static_cast<std::int64_t>(labels.size()));
  telemetry::ScopedSpan span(verify_probes::spanName(tier));
  if (tablePath) {
    return sd::violationsOver(
        pool, 0, verifier_detail::lineCountD(torus), grain, stopAtFirst,
        [&](std::int64_t begin, std::int64_t end, bool stop) {
          return verifier_detail::tableViolationLinesD(
              lcl.table(), torus, labels.data(), begin, end, stop);
        });
  }
  return sd::violationsOver(
      pool, 0, static_cast<std::int64_t>(labels.size()),
      sd::nodeGrain(grain, torus), stopAtFirst,
      [&](std::int64_t begin, std::int64_t end, bool stop) {
        return verifier_detail::functionalViolationRangeD(torus, lcl, labels,
                                                          begin, end, stop);
      });
}

/// Dispatch of an in-core request (single labelling or batch, whole tori:
/// batchCount checks the size); fills everything except nanos.
VerifyResult dispatchInCore(const TorusD& torus, const GridLclD& lcl,
                            std::span<const int> labels,
                            const VerifyOptions& options) {
  const std::size_t count = verifier_detail::batchCount(torus.size(), labels);
  if (count == 0) {
    throw std::invalid_argument("verify: request has no labels");
  }
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool = handle.pool();
  const std::int64_t grain = options.engine.grain;
  const bool stopAtFirst = !options.countViolations;

  VerifyResult result;
  result.labellings = static_cast<std::int64_t>(count);
  if (count == 1) {
    VerifyTier kernel =
        selectKernel(pool, grain, torus, lcl, labels, options.tier);
    result.violations =
        runKernel(pool, grain, torus, lcl, labels, stopAtFirst, kernel);
    result.feasible = result.violations == 0;
    result.tier = kernel;
    return result;
  }

  // Batch: one labelling per work item, each selecting its own kernel. The
  // reported tier is the one that answered the first labelling.
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  std::vector<std::int64_t> violations(count, 0);
  const auto oneLabelling = [&](std::size_t i) {
    const std::span<const int> sub = labels.subspan(i * stride, stride);
    VerifyTier kernel =
        selectKernel(nullptr, grain, torus, lcl, sub, options.tier);
    violations[i] =
        runKernel(nullptr, grain, torus, lcl, sub, stopAtFirst, kernel);
    if (i == 0) result.tier = kernel;
  };
  engine::forEachChunk(pool, 0, static_cast<std::int64_t>(count), grain,
                       [&](std::int64_t begin, std::int64_t end) {
                         for (std::int64_t i = begin; i < end; ++i) {
                           oneLabelling(static_cast<std::size_t>(i));
                         }
                       });
  for (std::int64_t v : violations) result.violations += v;
  result.feasible = result.violations == 0;
  if (options.countViolations) {
    result.violationsPerLabelling = std::move(violations);
  } else {
    result.feasiblePerLabelling.reserve(count);
    for (std::int64_t v : violations) {
      result.feasiblePerLabelling.push_back(v == 0 ? 1 : 0);
    }
  }
  return result;
}

/// Dispatch of a streaming request: one slab pass, serial on one lane and
/// sharded per slab otherwise.
VerifyResult dispatchStream(const StreamLabelling& file, const GridLclD& lcl,
                            const VerifyOptions& options) {
  if (options.tier != TierPin::kAuto) {
    throw std::invalid_argument(
        "verify: streaming requests accept only TierPin::kAuto");
  }
  stream_verify_detail::checkStreamD(file, lcl);
  engine::PoolHandle handle(options.engine);
  VerifyResult result;
  result.tier = VerifyTier::kStream;
  result.violations =
      sd::streamPass(handle.pool(), options.engine.grain, file, lcl,
                     options.window, !options.countViolations);
  result.feasible = result.violations == 0;
  return result;
}

/// The request of the two paper-facing Torus2D helpers.
VerifyRequest serialRequest(const Torus2D& torus, const GridLcl& lcl,
                            std::span<const int> labels, bool count) {
  if (static_cast<int>(labels.size()) != torus.size()) {
    throw std::invalid_argument("verifier: labelling size mismatch");
  }
  VerifyRequest request;
  request.problem = &lcl;
  request.torus = &torus;
  request.labels = labels;
  request.options.countViolations = count;
  return request;
}

}  // namespace

const char* verifyTierName(VerifyTier tier) {
  switch (tier) {
    case VerifyTier::kFunctional:
      return "functional";
    case VerifyTier::kTable:
      return "table";
    case VerifyTier::kBitsliced:
      return "bitsliced";
    case VerifyTier::kStream:
      return "stream";
  }
  return "unknown";
}

VerifyResult verify(const VerifyRequest& request) {
  // --- resolve the problem: a GridLcl runs as its d = 2 view ---------------
  if (request.problem != nullptr && request.problemD != nullptr) {
    throw std::invalid_argument(
        "verify: request names both a 2D and a d-dimensional problem");
  }
  const GridLclD* lcl = request.problem != nullptr ? &request.problem->asD()
                                                   : request.problemD;
  if (lcl == nullptr) {
    throw std::invalid_argument("verify: request has no problem");
  }

  // --- resolve the instance -------------------------------------------------
  const bool hasFile = request.file != nullptr;
  const bool hasPath = !request.labellingPath.empty();
  const bool hasInline = request.torus != nullptr || request.torusD != nullptr;
  if (static_cast<int>(hasFile) + static_cast<int>(hasPath) +
          static_cast<int>(hasInline) !=
      1) {
    throw std::invalid_argument(
        "verify: request needs exactly one instance (torus labels, an open "
        "labelling, or a labelling path)");
  }
  std::optional<TorusD> lifted;
  const TorusD* torus = request.torusD;
  if (hasInline) {
    if (request.problem != nullptr) {
      if (request.torus == nullptr) {
        throw std::invalid_argument(
            "verify: a 2D problem needs VerifyRequest::torus");
      }
      torus = &lifted.emplace(2, request.torus->n());
    } else if (torus == nullptr) {
      throw std::invalid_argument(
          "verify: a d-dimensional problem needs VerifyRequest::torusD");
    }
    if (torus->dims() != lcl->dims()) {
      throw std::invalid_argument("verifier: torus/problem dimension mismatch");
    }
  }

  VerifyResult result;
  const auto started = std::chrono::steady_clock::now();
  if (hasInline) {
    result = dispatchInCore(*torus, *lcl, request.labels, request.options);
  } else {
    // StreamLabelling's constructor validates the header (std::runtime_error
    // on bad magic / truncation), matching the documented error contract.
    std::optional<StreamLabelling> opened;
    if (hasPath) opened.emplace(request.labellingPath);
    result = dispatchStream(hasPath ? *opened : *request.file, *lcl,
                            request.options);
  }
  result.nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  result.fingerprint = lcl->hasTable() ? lcl->table().fingerprint() : 0;
  return result;
}

bool verify(const Torus2D& torus, const GridLcl& lcl,
            std::span<const int> labels) {
  return verify(serialRequest(torus, lcl, labels, /*count=*/false)).feasible;
}

std::int64_t countViolations(const Torus2D& torus, const GridLcl& lcl,
                             std::span<const int> labels) {
  return verify(serialRequest(torus, lcl, labels, /*count=*/true)).violations;
}

}  // namespace lclgrid
