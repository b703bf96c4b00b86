// The unified verification front door (lcl/verify_api.hpp). This is where
// the engine's tier selection lives once: a direct dispatch onto the exact
// serial kernel slices / sharded runners the per-tier overloads run -- the
// overloads in parallel_verifier.cpp forward here, and the bit-identity
// tests pin the API against the serial entry points at 1/2/8 threads. The
// automatic bit-sliced tier checks the alphabet inside its own pass; the
// table tier and tier pins scan it up front (sharded when a pool is
// attached).
#include "lcl/verify_api.hpp"

#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>

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
    return pool != nullptr
               ? sd::shardedAllInRange(*pool, grain, torus, lcl.sigma(),
                                       labels)
               : verifier_detail::allLabelsInRange(lcl.sigma(), labels);
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

/// Exact violation count of one labelling on the resolved kernel. A
/// bit-sliced pass that read a label outside [0, sigma) is discarded and
/// the count reruns on the functional tier; `kernel` is updated to the
/// tier that produced the answer.
template <typename Torus, typename Lcl>
std::int64_t runCount(engine::ThreadPool* pool, std::int64_t grain,
                      const Torus& torus, const Lcl& lcl,
                      std::span<const int> labels, Kernel& kernel) {
  const auto sum = [](std::int64_t a, std::int64_t b) { return a + b; };
  switch (kernel) {
    case Kernel::kBitsliced: {
      if (const std::optional<std::int64_t> count = sd::bitslicePass(
              pool, grain, torus, lcl, labels, /*stopAtFirst=*/false)) {
        return *count;
      }
      kernel = Kernel::kFunctional;
      break;
    }
    case Kernel::kTable: {
      verify_probes::recordCall(Tier::kTable,
                                static_cast<std::int64_t>(labels.size()));
      telemetry::ScopedSpan span(verify_probes::spanName(Tier::kTable));
      if (pool != nullptr) {
        return pool->parallelReduce(
            0, sd::shardItems(torus), grain, std::int64_t{0},
            [&](std::int64_t begin, std::int64_t end) {
              return sd::tableSlice(torus, lcl, labels.data(), begin, end,
                                    /*stopAtFirst=*/false);
            },
            sum);
      }
      return sd::tableSlice(torus, lcl, labels.data(), 0,
                            sd::shardItems(torus), /*stopAtFirst=*/false);
    }
    case Kernel::kFunctional:
      break;
  }
  verify_probes::recordCall(Tier::kFunctional,
                            static_cast<std::int64_t>(labels.size()));
  telemetry::ScopedSpan span(verify_probes::spanName(Tier::kFunctional));
  const std::int64_t nodes = static_cast<std::int64_t>(labels.size());
  if (pool != nullptr) {
    return pool->parallelReduce(0, nodes, sd::nodeGrain(grain, torus),
                                std::int64_t{0},
                                [&](std::int64_t begin, std::int64_t end) {
                                  return sd::functionalSlice(
                                      torus, lcl, labels, begin, end,
                                      /*stopAtFirst=*/false);
                                },
                                sum);
  }
  return sd::functionalSlice(torus, lcl, labels, 0, nodes,
                             /*stopAtFirst=*/false);
}

/// Feasibility of one labelling on the resolved kernel, early-exiting at
/// the first violation (cooperatively across shards when pooled).
template <typename Torus, typename Lcl>
bool runVerify(engine::ThreadPool* pool, std::int64_t grain,
               const Torus& torus, const Lcl& lcl,
               std::span<const int> labels, Kernel kernel) {
  if (kernel == Kernel::kBitsliced) {
    // Verify mode always has an answer: an out-of-range label is a
    // violation, so the pass never reruns.
    return *sd::bitslicePass(pool, grain, torus, lcl, labels,
                             /*stopAtFirst=*/true) == 0;
  }
  const bool tablePath = kernel == Kernel::kTable;
  const Tier tier = tablePath ? Tier::kTable : Tier::kFunctional;
  verify_probes::recordCall(tier, static_cast<std::int64_t>(labels.size()));
  telemetry::ScopedSpan span(verify_probes::spanName(tier));
  if (pool == nullptr) {
    const std::int64_t bad =
        tablePath ? sd::tableSlice(torus, lcl, labels.data(), 0,
                                   sd::shardItems(torus), /*stopAtFirst=*/true)
                  : sd::functionalSlice(torus, lcl, labels, 0,
                                        static_cast<std::int64_t>(
                                            labels.size()),
                                        /*stopAtFirst=*/true);
    return bad == 0;
  }
  std::atomic<bool> violated{false};
  const std::int64_t items = tablePath
                                 ? sd::shardItems(torus)
                                 : static_cast<std::int64_t>(labels.size());
  pool->parallelFor(0, items, tablePath ? grain : sd::nodeGrain(grain, torus),
                    [&](std::int64_t begin, std::int64_t end) {
                      if (violated.load(std::memory_order_relaxed)) return;
                      const std::int64_t bad =
                          tablePath
                              ? sd::tableSlice(torus, lcl, labels.data(),
                                               begin, end,
                                               /*stopAtFirst=*/true)
                              : sd::functionalSlice(torus, lcl, labels, begin,
                                                    end, /*stopAtFirst=*/true);
                      if (bad > 0) {
                        violated.store(true, std::memory_order_relaxed);
                      }
                    });
  return !violated.load();
}

/// Dispatch of an in-core request (single labelling or batch) for one
/// torus family; fills everything except nanos.
template <typename Torus, typename Lcl>
VerifyResult dispatchInCore(const Torus& torus, const Lcl& lcl,
                            std::span<const int> labels,
                            const VerifyOptions& options) {
  engine::PoolHandle handle(options.engine);
  engine::ThreadPool* pool =
      handle.pool().lanes() == 1 ? nullptr : &handle.pool();
  const std::int64_t grain = options.engine.grain;

  VerifyResult result;
  const std::size_t count = sd::batchCountOf(torus, labels);
  result.labellings = static_cast<std::int64_t>(count);
  if (count == 0) {
    result.feasible = true;
    return result;
  }
  if (count == 1) {
    sd::checkLabelling(torus, lcl, labels);
    Kernel kernel = selectKernel(pool, grain, torus, lcl, labels, options.tier);
    if (options.countViolations) {
      result.violations = runCount(pool, grain, torus, lcl, labels, kernel);
      result.feasible = result.violations == 0;
    } else {
      result.feasible = runVerify(pool, grain, torus, lcl, labels, kernel);
      result.violations = result.feasible ? 0 : 1;
    }
    result.tier = tierOf(kernel);
    return result;
  }

  // Batch: one labelling per work item, each selecting its own kernel --
  // exactly the batch overloads' contract. The reported tier is the one
  // that answered the first labelling.
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  sd::checkLabelling(torus, lcl, labels.subspan(0, stride));
  if (options.countViolations) {
    result.violationsPerLabelling.assign(count, 0);
  } else {
    result.feasiblePerLabelling.assign(count, 0);
  }
  const auto oneLabelling = [&](std::size_t i) {
    const std::span<const int> sub = labels.subspan(i * stride, stride);
    Kernel kernel = selectKernel(nullptr, grain, torus, lcl, sub, options.tier);
    if (options.countViolations) {
      result.violationsPerLabelling[i] =
          runCount(nullptr, grain, torus, lcl, sub, kernel);
    } else {
      result.feasiblePerLabelling[i] =
          runVerify(nullptr, grain, torus, lcl, sub, kernel) ? 1 : 0;
    }
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
  result.feasible = true;
  result.violations = 0;
  if (options.countViolations) {
    for (std::int64_t v : result.violationsPerLabelling) {
      result.violations += v;
    }
    result.feasible = result.violations == 0;
  } else {
    for (std::uint8_t ok : result.feasiblePerLabelling) {
      if (ok == 0) {
        result.feasible = false;
        ++result.violations;
      }
    }
  }
  return result;
}

/// Dispatch of a streaming request through the stream_verify entry points
/// (which fall back to the serial pass on a 1-lane pool themselves).
template <typename Lcl>
VerifyResult dispatchStream(const StreamLabelling& file, const Lcl& lcl,
                            const VerifyOptions& options) {
  if (options.tier != TierPin::kAuto) {
    throw std::invalid_argument(
        "verify: streaming requests accept only TierPin::kAuto");
  }
  VerifyResult result;
  result.tier = VerifyTier::kStream;
  if (options.countViolations) {
    result.violations =
        streamCountViolations(file, lcl, options.engine, options.window);
    result.feasible = result.violations == 0;
  } else {
    result.feasible = streamVerify(file, lcl, options.engine, options.window);
    result.violations = result.feasible ? 0 : 1;
  }
  return result;
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

}  // namespace lclgrid
