// The verification front door (lcl/verify_api.hpp): the one place the
// engine selects a kernel tier. Every request -- serial or sharded, single
// labelling or batch, in-core or streamed, 2D or d-dimensional -- runs the
// kernel slices of verifier_detail through the pool-or-null runners of
// engine/shard_detail.hpp, and the bit-identity tests pin each tier
// against the functional tier at 1/2/8 lanes. The automatic bit-sliced
// tier checks the alphabet inside its own pass; the table tier and tier
// pins scan it up front (sharded when a pool is attached).
#include "lcl/verify_api.hpp"

#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/shard_detail.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"

namespace lclgrid {

namespace {

namespace sd = engine::shard_detail;
using verify_probes::Tier;

/// The kernel the request resolved to (VerifyTier minus kStream, which has
/// its own dispatch below).
enum class Kernel { kFunctional, kTable, kBitsliced };

VerifyTier tierOf(Kernel kernel) {
  switch (kernel) {
    case Kernel::kTable:
      return VerifyTier::kTable;
    case Kernel::kBitsliced:
      return VerifyTier::kBitsliced;
    case Kernel::kFunctional:
      break;
  }
  return VerifyTier::kFunctional;
}

/// Plan existence for a kBitsliced pin: independent of the LCLGRID_BITSLICE
/// gate and the node floor (pins bypass both; the plan itself is compiled
/// unconditionally when the relation fits a plan shape).
bool hasBitslicePlan(const GridLcl& lcl) {
  return lcl.hasTable() && lcl.table().bitslicePlan() != nullptr;
}
bool hasBitslicePlan(const GridLclD& lcl) {
  if (!lcl.hasTable()) return false;
  if (const LclTable* table2d = lcl.table().as2d()) {
    return table2d->bitslicePlan() != nullptr;
  }
  return lcl.table().bitslicePlanD() != nullptr;
}

/// Decides (or validates, for a pin) the kernel. An automatic bit-sliced
/// selection scans nothing: the pass checks the alphabet itself. Otherwise
/// one range scan, sharded when `pool` is attached (null: serial).
template <typename Torus, typename Lcl>
Kernel selectKernel(engine::ThreadPool* pool, std::int64_t grain,
                    const Torus& torus, const Lcl& lcl,
                    std::span<const int> labels, TierPin pin) {
  const auto labelsInRange = [&] {
    return sd::allInRange(pool, grain, torus, lcl.sigma(), labels);
  };
  switch (pin) {
    case TierPin::kAuto:
      if (sd::bitsliceSelectedFor(lcl,
                                  static_cast<long long>(labels.size()))) {
        return Kernel::kBitsliced;
      }
      return lcl.hasTable() && labelsInRange() ? Kernel::kTable
                                               : Kernel::kFunctional;
    case TierPin::kFunctional:
      return Kernel::kFunctional;
    case TierPin::kTable:
      if (!lcl.hasTable()) {
        throw std::invalid_argument(
            "verify: tier pin kTable needs a compiled table");
      }
      if (!labelsInRange()) {
        throw std::invalid_argument(
            "verify: tier pin kTable needs every label in [0, sigma)");
      }
      return Kernel::kTable;
    case TierPin::kBitsliced:
      if (!hasBitslicePlan(lcl)) {
        throw std::invalid_argument(
            "verify: tier pin kBitsliced needs a bit-slice plan");
      }
      if (!labelsInRange()) {
        throw std::invalid_argument(
            "verify: tier pin kBitsliced needs every label in [0, sigma)");
      }
      return Kernel::kBitsliced;
  }
  throw std::invalid_argument("verify: unknown tier pin");
}

/// Violations of one labelling on the resolved kernel: the exact total, or
/// -- stopAtFirst -- 1 at the first violation (cooperatively across chunks
/// when pooled), else 0. A bit-sliced count that read a label outside
/// [0, sigma) is discarded and reruns on the functional tier; `kernel` is
/// updated to the tier that produced the answer. Verify mode always has a
/// bit-sliced answer: an out-of-range label is a violation.
template <typename Torus, typename Lcl>
std::int64_t runKernel(engine::ThreadPool* pool, std::int64_t grain,
                       const Torus& torus, const Lcl& lcl,
                       std::span<const int> labels, bool stopAtFirst,
                       Kernel& kernel) {
  if (kernel == Kernel::kBitsliced) {
    if (const std::optional<std::int64_t> answer = sd::bitslicePass(
            pool, grain, torus, lcl, labels, stopAtFirst)) {
      return *answer;
    }
    kernel = Kernel::kFunctional;
  }
  const bool tablePath = kernel == Kernel::kTable;
  const Tier tier = tablePath ? Tier::kTable : Tier::kFunctional;
  verify_probes::recordCall(tier, static_cast<std::int64_t>(labels.size()));
  telemetry::ScopedSpan span(verify_probes::spanName(tier));
  if (tablePath) {
    return sd::violationsOver(
        pool, 0, sd::shardItems(torus), grain, stopAtFirst,
        [&](std::int64_t begin, std::int64_t end, bool stop) {
          return sd::tableSlice(torus, lcl, labels.data(), begin, end, stop);
        });
  }
  return sd::violationsOver(
      pool, 0, static_cast<std::int64_t>(labels.size()),
      sd::nodeGrain(grain, torus), stopAtFirst,
      [&](std::int64_t begin, std::int64_t end, bool stop) {
        return sd::functionalSlice(torus, lcl, labels, begin, end, stop);
      });
}

/// Dispatch of an in-core request (single labelling or batch) for one
/// torus family; fills everything except nanos.
template <typename Torus, typename Lcl>
VerifyResult dispatchInCore(const Torus& torus, const Lcl& lcl,
                            std::span<const int> labels,
                            const VerifyOptions& options) {
  const std::size_t count = verifier_detail::batchCount(torus.size(), labels);
  if (count == 0) {
    throw std::invalid_argument("verify: request has no labels");
  }
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool =
      handle.pool().lanes() == 1 ? nullptr : &handle.pool();
  const std::int64_t grain = options.engine.grain;
  const bool stopAtFirst = !options.countViolations;

  VerifyResult result;
  result.labellings = static_cast<std::int64_t>(count);
  if (count == 1) {
    sd::checkLabelling(torus, lcl, labels);
    Kernel kernel = selectKernel(pool, grain, torus, lcl, labels, options.tier);
    result.violations =
        runKernel(pool, grain, torus, lcl, labels, stopAtFirst, kernel);
    result.feasible = result.violations == 0;
    result.tier = tierOf(kernel);
    return result;
  }

  // Batch: one labelling per work item, each selecting its own kernel. The
  // reported tier is the one that answered the first labelling.
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  sd::checkLabelling(torus, lcl, labels.subspan(0, stride));
  std::vector<std::int64_t> violations(count, 0);
  const auto oneLabelling = [&](std::size_t i) {
    const std::span<const int> sub = labels.subspan(i * stride, stride);
    Kernel kernel = selectKernel(nullptr, grain, torus, lcl, sub, options.tier);
    violations[i] =
        runKernel(nullptr, grain, torus, lcl, sub, stopAtFirst, kernel);
    if (i == 0) result.tier = tierOf(kernel);
  };
  if (pool != nullptr) {
    pool->parallelFor(0, static_cast<std::int64_t>(count), grain,
                      [&](std::int64_t begin, std::int64_t end) {
                        for (std::int64_t i = begin; i < end; ++i) {
                          oneLabelling(static_cast<std::size_t>(i));
                        }
                      });
  } else {
    for (std::size_t i = 0; i < count; ++i) oneLabelling(i);
  }
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

/// Dispatch of a streaming request: one slab pass, serial on a one-lane
/// pool and sharded per slab otherwise.
template <typename Lcl>
VerifyResult dispatchStream(const StreamLabelling& file, const Lcl& lcl,
                            const VerifyOptions& options) {
  if (options.tier != TierPin::kAuto) {
    throw std::invalid_argument(
        "verify: streaming requests accept only TierPin::kAuto");
  }
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool =
      handle.pool().lanes() == 1 ? nullptr : &handle.pool();
  const bool stopAtFirst = !options.countViolations;
  VerifyResult result;
  result.tier = VerifyTier::kStream;
  if constexpr (std::is_same_v<Lcl, GridLcl>) {
    stream_verify_detail::checkStream2D(file, lcl);
    result.violations =
        sd::streamPass(pool, options.engine.grain, file, lcl,
                       Torus2D(file.n()), options.window, stopAtFirst);
  } else {
    stream_verify_detail::checkStreamD(file, lcl);
    result.violations = sd::streamPass(pool, options.engine.grain, file, lcl,
                                       TorusD(file.dims(), file.n()),
                                       options.window, stopAtFirst);
  }
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
  // --- resolve the problem reference ---------------------------------------
  const GridLcl* problem = request.problem;
  const GridLclD* problemD = request.problemD;
  if (problem != nullptr && problemD != nullptr) {
    throw std::invalid_argument(
        "verify: request names both a 2D and a d-dimensional problem");
  }
  if (problem == nullptr && problemD == nullptr) {
    if (!request.resolveFingerprint) {
      throw std::invalid_argument(
          "verify: request has no problem and no fingerprint resolver");
    }
    problem = request.resolveFingerprint(request.fingerprint);
    if (problem == nullptr) {
      throw std::invalid_argument("verify: unknown problem fingerprint");
    }
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

  VerifyResult result;
  const auto started = std::chrono::steady_clock::now();
  if (hasFile || hasPath) {
    // StreamLabelling's constructor validates the header (std::runtime_error
    // on bad magic / truncation), matching the documented error contract.
    std::optional<StreamLabelling> opened;
    if (hasPath) opened.emplace(request.labellingPath);
    const StreamLabelling& file = hasPath ? *opened : *request.file;
    result = problem != nullptr ? dispatchStream(file, *problem,
                                                 request.options)
                                : dispatchStream(file, *problemD,
                                                 request.options);
  } else if (problem != nullptr) {
    if (request.torus == nullptr) {
      throw std::invalid_argument(
          "verify: a 2D problem needs VerifyRequest::torus");
    }
    result = dispatchInCore(*request.torus, *problem, request.labels,
                            request.options);
  } else {
    if (request.torusD == nullptr) {
      throw std::invalid_argument(
          "verify: a d-dimensional problem needs VerifyRequest::torusD");
    }
    result = dispatchInCore(*request.torusD, *problemD, request.labels,
                            request.options);
  }
  result.nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  if (problem != nullptr) {
    result.fingerprint = problem->hasTable() ? problem->table().fingerprint()
                                             : 0;
  } else {
    result.fingerprint = problemD->hasTable() ? problemD->table().fingerprint()
                                              : 0;
  }
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
