// Internal sharding machinery of the parallel verifier: the unified front
// door (engine/verify_api.cpp) runs every in-core pass through it, and the
// streaming overloads (engine/parallel_verifier.cpp) shard their slabs
// with it; the in-core overloads there borrow only its shape checks. One
// labelling is sharded into contiguous ranges of "shard items" -- grid rows
// on Torus2D, axis-0 lines on TorusD (a chunk of the line space is a slab
// along the outermost axes) -- each shard runs the exact serial kernel
// slice (lcl/verifier.hpp verifier_detail), and per-shard violation counts
// are combined in chunk order, so every result is bit-identical to the
// serial engine; the determinism tests pin this down for 1/2/8 threads.
//
// Both torus families share one set of sharding templates; the per-family
// differences (item count, kernel slice, size validation) are small
// overloaded shims, so the sharding scheme itself cannot diverge between
// 2D and d dimensions. The d = 2 TorusD case additionally delegates to the
// 2D row kernel inside tableViolationLinesD, so the sharded 2D fast path
// is one code path however it is reached.
//
// NOT a stable API: this header exists so the engine's translation units
// share one implementation; include it only from src/engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>

#include "engine/thread_pool.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_probes.hpp"

namespace lclgrid::engine::shard_detail {

// --- per-torus shims -------------------------------------------------------

/// Shard items of one labelling: grid rows / axis-0 lines.
inline std::int64_t shardItems(const Torus2D& torus) { return torus.n(); }
inline std::int64_t shardItems(const TorusD& torus) {
  return verifier_detail::lineCountD(torus);
}

/// Labelling size validation (TorusD also checks the dimension match).
inline void checkLabelling(const Torus2D& torus, const GridLcl&,
                           std::span<const int> labels) {
  if (static_cast<int>(labels.size()) != torus.size()) {
    throw std::invalid_argument("verifier: labelling size mismatch");
  }
}
inline void checkLabelling(const TorusD& torus, const GridLclD& lcl,
                           std::span<const int> labels) {
  if (torus.dims() != lcl.dims()) {
    throw std::invalid_argument("verifier: torus/problem dimension mismatch");
  }
  if (static_cast<long long>(labels.size()) != torus.size()) {
    throw std::invalid_argument("verifier: labelling size mismatch");
  }
}

/// The serial compiled-table kernel slice over shard items [begin, end).
inline std::int64_t tableSlice(const Torus2D& torus, const GridLcl& lcl,
                               const int* labels, std::int64_t begin,
                               std::int64_t end, bool stopAtFirst) {
  return verifier_detail::tableViolationRows(
      lcl.table(), torus.n(), labels, static_cast<int>(begin),
      static_cast<int>(end), stopAtFirst);
}
inline std::int64_t tableSlice(const TorusD& torus, const GridLclD& lcl,
                               const int* labels, std::int64_t begin,
                               std::int64_t end, bool stopAtFirst) {
  return verifier_detail::tableViolationLinesD(lcl.table(), torus, labels,
                                               begin, end, stopAtFirst);
}

/// The serial functional-fallback slice over nodes [begin, end).
inline std::int64_t functionalSlice(const Torus2D& torus, const GridLcl& lcl,
                                    std::span<const int> labels,
                                    std::int64_t begin, std::int64_t end,
                                    bool stopAtFirst) {
  return verifier_detail::functionalViolationRange(
      torus, lcl, labels, static_cast<int>(begin), static_cast<int>(end),
      stopAtFirst);
}
inline std::int64_t functionalSlice(const TorusD& torus, const GridLclD& lcl,
                                    std::span<const int> labels,
                                    std::int64_t begin, std::int64_t end,
                                    bool stopAtFirst) {
  return verifier_detail::functionalViolationRangeD(torus, lcl, labels, begin,
                                                    end, stopAtFirst);
}

inline std::size_t batchCountOf(const Torus2D& torus,
                                std::span<const int> labelsBatch) {
  return verifier_detail::batchCount(torus, labelsBatch);
}
inline std::size_t batchCountOf(const TorusD& torus,
                                std::span<const int> labelsBatch) {
  return verifier_detail::batchCountD(torus, labelsBatch);
}

/// The engine's bit-slice selection shims (mirror the serial engine's, so
/// every thread count runs the same kernel tier).
inline bool bitsliceSelectedFor(const GridLcl& lcl, long long nodes) {
  return verifier_detail::bitsliceSelected(lcl, nodes);
}
inline bool bitsliceSelectedFor(const GridLclD& lcl, long long nodes) {
  return verifier_detail::bitsliceSelectedD(lcl, nodes);
}

/// EngineOptions::grain counts shard items (rows / lines) for a single
/// labelling; the functional fallback shards by node index, so the item
/// grain is scaled by the item length to keep the chunk payload (and hence
/// the scheduling overhead) identical on both paths.
template <typename Torus>
std::int64_t nodeGrain(std::int64_t itemGrain, const Torus& torus) {
  return itemGrain > 0 ? itemGrain * torus.n() : 0;
}

// --- the fused bit-sliced pass ---------------------------------------------

/// Staging buffer of a bit-sliced pass: empty for Torus2D and for d = 2
/// TorusD (the rolling row kernel reads the labels directly), the whole
/// labelling's planes for d >= 3.
inline LabelPlanes slicedPlanes(const Torus2D&, const GridLcl&) {
  return LabelPlanes();
}
inline LabelPlanes slicedPlanes(const TorusD& torus, const GridLclD& lcl) {
  return verifier_detail::bitsliceMakePlanesD(torus, lcl.table());
}

/// The bit-sliced kernel slice over shard items [begin, end); raises
/// *maxLabel (when non-null) to the largest label it read.
inline std::int64_t bitsliceSlice(const Torus2D& torus, const GridLcl& lcl,
                                  const LabelPlanes&, const int* labels,
                                  std::int64_t begin, std::int64_t end,
                                  bool stopAtFirst, unsigned* maxLabel) {
  return verifier_detail::bitsliceViolationRows(
      lcl.table(), torus.n(), torus.n(), labels, static_cast<int>(begin),
      static_cast<int>(end), stopAtFirst, maxLabel);
}
inline std::int64_t bitsliceSlice(const TorusD& torus, const GridLclD& lcl,
                                  const LabelPlanes& planes, const int* labels,
                                  std::int64_t begin, std::int64_t end,
                                  bool stopAtFirst, unsigned* maxLabel) {
  return verifier_detail::bitsliceViolationLinesD(
      lcl.table(), torus, planes, labels, begin, end, stopAtFirst, maxLabel);
}

/// One bit-sliced pass over a labelling with the alphabet check fused into
/// the row transpose: serial on the caller when `pool` is null, otherwise
/// sharded by shard items. A d >= 3 labelling is first staged by its own
/// pass (sharded over disjoint line ranges, so the writes are race-free),
/// and the kernel is skipped when the staging already read a label outside
/// [0, sigma). Count shards combine in shard order, so counts are
/// bit-identical at every thread count; verify shards exit cooperatively,
/// each treating an out-of-range label it read as a violation. Returns the
/// answer of verifier_detail::resolveBitslicePass: std::nullopt when a
/// count must rerun on the functional tier.
template <typename Torus, typename Lcl>
std::optional<std::int64_t> bitslicePass(engine::ThreadPool* pool,
                                         std::int64_t grain,
                                         const Torus& torus, const Lcl& lcl,
                                         std::span<const int> labels,
                                         bool stopAtFirst) {
  const unsigned sigma = static_cast<unsigned>(lcl.sigma());
  const std::int64_t items = shardItems(torus);
  const auto maxOf = [](unsigned a, unsigned b) { return std::max(a, b); };
  unsigned maxLabel = 0;
  std::int64_t violations = 0;
  {
    telemetry::ScopedSpan span(
        verify_probes::spanName(verify_probes::Tier::kBitsliced));
    LabelPlanes planes = slicedPlanes(torus, lcl);
    if (planes.rows() > 0) {
      const auto stage = [&](std::int64_t begin, std::int64_t end) {
        return planes.setRows(labels, begin, end);
      };
      maxLabel = pool == nullptr
                     ? stage(0, items)
                     : pool->parallelReduce(0, items, grain, 0u, stage, maxOf);
    }
    if (maxLabel >= sigma) {
      // The staging read a label outside the alphabet: nothing to run.
    } else if (pool == nullptr) {
      violations = bitsliceSlice(torus, lcl, planes, labels.data(), 0, items,
                                 stopAtFirst, &maxLabel);
    } else if (stopAtFirst) {
      std::atomic<bool> violated{false};
      pool->parallelFor(0, items, grain,
                        [&](std::int64_t begin, std::int64_t end) {
                          if (violated.load(std::memory_order_relaxed)) return;
                          unsigned chunkMax = 0;
                          if (bitsliceSlice(torus, lcl, planes, labels.data(),
                                            begin, end, /*stopAtFirst=*/true,
                                            &chunkMax) > 0 ||
                              chunkMax >= sigma) {
                            violated.store(true, std::memory_order_relaxed);
                          }
                        });
      violations = violated.load() ? 1 : 0;
    } else {
      struct Partial {
        std::int64_t violations = 0;
        unsigned maxLabel = 0;
      };
      const Partial total = pool->parallelReduce(
          0, items, grain, Partial{},
          [&](std::int64_t begin, std::int64_t end) {
            Partial partial;
            partial.violations =
                bitsliceSlice(torus, lcl, planes, labels.data(), begin, end,
                              /*stopAtFirst=*/false, &partial.maxLabel);
            return partial;
          },
          [&](Partial a, Partial b) {
            return Partial{a.violations + b.violations,
                           maxOf(a.maxLabel, b.maxLabel)};
          });
      violations = total.violations;
      maxLabel = maxOf(maxLabel, total.maxLabel);
    }
  }
  return verifier_detail::resolveBitslicePass(
      violations, maxLabel, lcl.sigma(), stopAtFirst,
      static_cast<long long>(labels.size()));
}

// --- the sharded alphabet scan ---------------------------------------------

/// Sharded alphabet check of the table tier, tier pins and the streaming
/// frontier. The serial allLabelsInRange scan would sit in front of the
/// parallel kernel as a serial O(N) pass (a material Amdahl fraction --
/// the kernel itself is only a few loads per node), so the scan is sharded
/// too, with chunks after the first out-of-range find returning
/// immediately.
template <typename Torus>
bool shardedAllInRange(engine::ThreadPool& pool, std::int64_t grain,
                       const Torus& torus, int sigma,
                       std::span<const int> labels) {
  std::atomic<bool> outOfRange{false};
  pool.parallelFor(
      0, static_cast<std::int64_t>(labels.size()), nodeGrain(grain, torus),
      [&](std::int64_t begin, std::int64_t end) {
        if (outOfRange.load(std::memory_order_relaxed)) return;
        if (!verifier_detail::allLabelsInRange(
                sigma, labels.subspan(static_cast<std::size_t>(begin),
                                      static_cast<std::size_t>(end - begin)))) {
          outOfRange.store(true, std::memory_order_relaxed);
        }
      });
  return !outOfRange.load();
}

// --- streaming (out-of-core) sharding --------------------------------------
// The sharded halves of the lcl/stream_verify.hpp overloads: the slab walk
// itself (window geometry, validation frontier, drop-behind, functional
// restart) is stream_verify_detail::runStreamPass -- the exact code the
// serial streaming entry points run -- and only the per-slab callbacks
// differ: each slab shards across the pool with the chunk-ordered combine
// of the in-core sharded verifier, so counts stay bit-identical to the
// serial pass at every thread count.

/// The compiled-kernel slice of one streaming chunk; `sliced` is the
/// pass-wide tier choice (stream_verify_detail::streamUsesBitslice*).
template <typename Torus, typename Lcl>
std::int64_t streamKernelSlice(const Torus& torus, const Lcl& lcl,
                               const int* labels, bool sliced,
                               std::int64_t begin, std::int64_t end,
                               bool stopAtFirst) {
  if (sliced) {
    // Streaming only selects the rolling row kernel (2D, or d = 2 through
    // the delegated table), which reads the raw labels: no plane buffer.
    static const LabelPlanes kNoPlanes;
    return bitsliceSlice(torus, lcl, kNoPlanes, labels, begin, end,
                         stopAtFirst, nullptr);
  }
  return tableSlice(torus, lcl, labels, begin, end, stopAtFirst);
}

inline bool streamSliced(const StreamLabelling& file, const GridLcl& lcl) {
  return stream_verify_detail::streamUsesBitslice(file, lcl);
}
inline bool streamSliced(const StreamLabelling& file, const GridLclD& lcl) {
  return stream_verify_detail::streamUsesBitsliceD(file, lcl);
}

template <typename Torus, typename Lcl>
std::int64_t shardedStream(engine::ThreadPool& pool, std::int64_t grain,
                           const StreamLabelling& file, const Lcl& lcl,
                           const Torus& torus, const StreamWindow& window,
                           bool stopAtFirst) {
  const int n = file.n();
  const long long lines = file.lines();
  const int* labels = file.labels();
  const std::span<const int> all(labels,
                                 static_cast<std::size_t>(file.size()));
  stream_verify_detail::StreamPass pass;
  pass.file = &file;
  pass.window = stream_verify_detail::resolveWindowRows(n, lines, window.rows);
  pass.wrapKeep = stream_verify_detail::wrapWindowRows(file.dims(), n);
  pass.dropBehind = window.dropBehind;
  pass.tablePath = lcl.hasTable();
  stream_verify_detail::applyCheckpointConfig(
      pass, file, window, lcl.hasTable() ? lcl.table().fingerprint() : 0);
  const bool sliced = streamSliced(file, lcl);
  const auto sum = [](std::int64_t a, std::int64_t b) { return a + b; };
  if (pass.tablePath) {
    pass.rowsInRange = [&, n](long long begin, long long end) {
      return shardedAllInRange(
          pool, grain, torus, lcl.sigma(),
          all.subspan(static_cast<std::size_t>(begin * n),
                      static_cast<std::size_t>((end - begin) * n)));
    };
    pass.kernelRows = [&, sliced](long long begin, long long end,
                                  bool stop) -> std::int64_t {
      if (stop) {
        std::atomic<bool> violated{false};
        pool.parallelFor(begin, end, grain,
                         [&](std::int64_t s, std::int64_t t) {
                           if (violated.load(std::memory_order_relaxed)) {
                             return;
                           }
                           if (streamKernelSlice(torus, lcl, labels, sliced,
                                                 s, t,
                                                 /*stopAtFirst=*/true) > 0) {
                             violated.store(true, std::memory_order_relaxed);
                           }
                         });
        return violated.load() ? 1 : 0;
      }
      return pool.parallelReduce(begin, end, grain, std::int64_t{0},
                                 [&](std::int64_t s, std::int64_t t) {
                                   return streamKernelSlice(
                                       torus, lcl, labels, sliced, s, t,
                                       /*stopAtFirst=*/false);
                                 },
                                 sum);
    };
  }
  pass.functionalRows = [&, n](long long begin, long long end,
                               bool stop) -> std::int64_t {
    const std::int64_t nodeBegin = begin * n;
    const std::int64_t nodeEnd = end * n;
    if (stop) {
      std::atomic<bool> violated{false};
      pool.parallelFor(nodeBegin, nodeEnd, nodeGrain(grain, torus),
                       [&](std::int64_t s, std::int64_t t) {
                         if (violated.load(std::memory_order_relaxed)) return;
                         if (functionalSlice(torus, lcl, all, s, t,
                                             /*stopAtFirst=*/true) > 0) {
                           violated.store(true, std::memory_order_relaxed);
                         }
                       });
      return violated.load() ? 1 : 0;
    }
    return pool.parallelReduce(nodeBegin, nodeEnd, nodeGrain(grain, torus),
                               std::int64_t{0},
                               [&](std::int64_t s, std::int64_t t) {
                                 return functionalSlice(
                                     torus, lcl, all, s, t,
                                     /*stopAtFirst=*/false);
                               },
                               sum);
  };
  return stream_verify_detail::runStreamPass(pass, stopAtFirst);
}

}  // namespace lclgrid::engine::shard_detail
