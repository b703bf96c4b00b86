// Internal sharding machinery of verify(VerifyRequest): the front door
// (engine/verify_api.cpp) runs every in-core and streaming pass through
// it, always on a GridLclD over a TorusD -- the front door lifts a 2D
// request to its d = 2 form first. One labelling is split into contiguous
// ranges of "shard items", axis-0 lines (grid rows at d = 2; a chunk of
// the line space is a slab along the outermost axes), and every range
// runs the exact kernel slice of lcl/verifier.hpp verifier_detail, whose
// *LinesD slices route d = 2 through the 2D row kernels on the delegated
// table. With a null pool a pass is one inline call over all items; with a
// pool, per-chunk counts are combined in chunk order, so every result is
// bit-identical at every lane count (the determinism tests pin this for
// 1/2/8 lanes).
//
// NOT a stable API: this header exists so the engine's translation units
// share one implementation; include it only from src/engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>

#include "engine/thread_pool.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_probes.hpp"

namespace lclgrid::engine::shard_detail {

// --- the pool-or-null runners ----------------------------------------------

/// Sum of slice(begin, end) over [begin, end): one inline call when `pool`
/// is null, otherwise chunks of `grain` items combined in chunk order.
template <typename Slice>
std::int64_t countItems(ThreadPool* pool, std::int64_t begin,
                        std::int64_t end, std::int64_t grain,
                        const Slice& slice) {
  if (pool == nullptr) return slice(begin, end);
  return pool->parallelReduce(
      begin, end, grain, std::int64_t{0}, slice,
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

/// True iff hit(begin, end) holds on some chunk of [begin, end): one inline
/// call when `pool` is null, otherwise chunks of `grain` items, each
/// returning at once after any chunk hit (a cooperative early exit).
template <typename Hit>
bool anyItem(ThreadPool* pool, std::int64_t begin, std::int64_t end,
             std::int64_t grain, const Hit& hit) {
  if (pool == nullptr) return hit(begin, end);
  std::atomic<bool> found{false};
  pool->parallelFor(begin, end, grain,
                    [&](std::int64_t chunkBegin, std::int64_t chunkEnd) {
                      if (found.load(std::memory_order_relaxed)) return;
                      if (hit(chunkBegin, chunkEnd)) {
                        found.store(true, std::memory_order_relaxed);
                      }
                    });
  return found.load();
}

/// Violations of slice(begin, end, stopAtFirst) over [begin, end): the
/// exact total, or -- stopAtFirst -- 1 at the first violating chunk, else 0.
template <typename Slice>
std::int64_t violationsOver(ThreadPool* pool, std::int64_t begin,
                            std::int64_t end, std::int64_t grain,
                            bool stopAtFirst, const Slice& slice) {
  if (stopAtFirst) {
    return anyItem(pool, begin, end, grain,
                   [&](std::int64_t s, std::int64_t t) {
                     return slice(s, t, true) > 0;
                   })
               ? 1
               : 0;
  }
  return countItems(pool, begin, end, grain,
                    [&](std::int64_t s, std::int64_t t) {
                      return slice(s, t, false);
                    });
}

/// EngineOptions::grain counts shard items (axis-0 lines) for a single
/// labelling; the functional fallback shards by node index, so the item
/// grain is scaled by the line length to keep the chunk payload (and hence
/// the scheduling overhead) identical on both paths.
inline std::int64_t nodeGrain(std::int64_t itemGrain, const TorusD& torus) {
  return itemGrain > 0 ? itemGrain * torus.n() : 0;
}

// --- the fused bit-sliced pass ---------------------------------------------

/// The serial verify-mode pass of the staged d >= 3 kernel: transposes one
/// outermost-axis block (items / n lines) ahead of the scan, so a violation
/// in the first block costs O(block) staging, not O(N). Every outer-axis
/// neighbour of a line lies within +-1 block, so the scan of block i needs
/// only blocks i-1, i, i+1 (cyclically): the wrap block is staged up
/// front, the rest one block ahead. True iff the labelling is infeasible
/// (a violation, or a staged label outside [0, sigma)).
inline bool stagedAheadViolates(const TorusD& torus, const GridLclD& lcl,
                                LabelPlanes& planes,
                                std::span<const int> labels) {
  const unsigned sigma = static_cast<unsigned>(lcl.sigma());
  const std::int64_t items = verifier_detail::lineCountD(torus);
  const std::int64_t blockLines = std::max<std::int64_t>(1, items / torus.n());
  if (planes.setRows(labels, items - blockLines, items) >= sigma) return true;
  std::int64_t stagedEnd = 0;
  for (std::int64_t begin = 0; begin < items; begin += blockLines) {
    const std::int64_t end = std::min(begin + blockLines, items);
    const std::int64_t need = std::min(end + blockLines, items - blockLines);
    if (need > stagedEnd) {
      if (planes.setRows(labels, stagedEnd, need) >= sigma) return true;
      stagedEnd = need;
    }
    if (verifier_detail::bitsliceViolationLinesD(lcl.table(), torus, planes,
                                                 labels.data(), begin, end,
                                                 /*stopAtFirst=*/true) > 0) {
      return true;
    }
  }
  return false;
}

/// One bit-sliced pass over a labelling with the alphabet check fused into
/// the row transpose, serial when `pool` is null and sharded by lines
/// otherwise. A d >= 3 labelling is first staged by its own pass (sharded
/// over disjoint line ranges, so the writes are race-free; serial verify
/// mode stages progressively instead, see stagedAheadViolates), and the
/// kernel is skipped when the staging read a label outside [0, sigma);
/// d = 2 stages nothing (the rolling row kernel reads the labels).
/// Count chunks combine in chunk order, so counts are bit-identical at
/// every lane count; verify chunks exit cooperatively, each treating an
/// out-of-range label it read as a violation. Returns the answer of
/// verifier_detail::resolveBitslicePass: std::nullopt when a count must
/// rerun on the functional tier.
inline std::optional<std::int64_t> bitslicePass(ThreadPool* pool,
                                                std::int64_t grain,
                                                const TorusD& torus,
                                                const GridLclD& lcl,
                                                std::span<const int> labels,
                                                bool stopAtFirst) {
  const unsigned sigma = static_cast<unsigned>(lcl.sigma());
  const std::int64_t items = verifier_detail::lineCountD(torus);
  bool readOutside = false;
  std::int64_t violations = 0;
  {
    telemetry::ScopedSpan span(
        verify_probes::spanName(verify_probes::Tier::kBitsliced));
    LabelPlanes planes =
        verifier_detail::bitsliceMakePlanesD(torus, lcl.table());
    const bool staged = planes.rows() > 0;
    if (staged && pool == nullptr && stopAtFirst) {
      violations = stagedAheadViolates(torus, lcl, planes, labels) ? 1 : 0;
    } else if (staged &&
               anyItem(pool, 0, items, grain,
                       [&](std::int64_t begin, std::int64_t end) {
                         return planes.setRows(labels, begin, end) >= sigma;
                       })) {
      readOutside = true;  // nothing to run
    } else if (stopAtFirst) {
      violations = anyItem(pool, 0, items, grain,
                           [&](std::int64_t begin, std::int64_t end) {
                             unsigned read = 0;
                             return verifier_detail::bitsliceViolationLinesD(
                                        lcl.table(), torus, planes,
                                        labels.data(), begin, end,
                                        /*stopAtFirst=*/true, &read) > 0 ||
                                    read >= sigma;
                           })
                       ? 1
                       : 0;
    } else {
      std::atomic<bool> outside{false};
      violations = countItems(
          pool, 0, items, grain, [&](std::int64_t begin, std::int64_t end) {
            unsigned read = 0;
            const std::int64_t bad = verifier_detail::bitsliceViolationLinesD(
                lcl.table(), torus, planes, labels.data(), begin, end,
                /*stopAtFirst=*/false, &read);
            if (read >= sigma) outside.store(true, std::memory_order_relaxed);
            return bad;
          });
      readOutside = outside.load();
    }
  }
  return verifier_detail::resolveBitslicePass(
      violations, readOutside, stopAtFirst,
      static_cast<long long>(labels.size()));
}

// --- the alphabet scan -----------------------------------------------------

/// Alphabet check of the in-core table tier and tier pins.
/// A serial scan in front of the sharded kernel would be a material Amdahl
/// fraction (the kernel itself is only a few loads per node), so with a
/// pool the scan is sharded too, chunks after the first out-of-range find
/// returning at once.
inline bool allInRange(ThreadPool* pool, std::int64_t grain,
                       const TorusD& torus, int sigma,
                       std::span<const int> labels) {
  return !anyItem(
      pool, 0, static_cast<std::int64_t>(labels.size()),
      nodeGrain(grain, torus), [&](std::int64_t begin, std::int64_t end) {
        return !verifier_detail::allLabelsInRange(
            sigma, labels.subspan(static_cast<std::size_t>(begin),
                                  static_cast<std::size_t>(end - begin)));
      });
}

// --- streaming (out-of-core) -----------------------------------------------
// The slab walk itself (window geometry, validation frontier, drop-behind,
// functional restart) is stream_verify_detail::runStreamPass; each slab
// runs through the runners above, serially or sharded across the pool with
// the in-core chunk-ordered combine, so counts are bit-identical to the
// in-core engine at every lane count.

/// One streaming pass over `file` (already validated against `lcl`),
/// serial when `pool` is null and sharded per slab otherwise. Pair-planes
/// plans read the mapped planes in place, the frontier checking tail bits
/// and (sigma not a power of two) labels >= sigma on the planes; every
/// other tier reads the decoded image, the frontier decoding the rows it
/// admits and checking their labels.
inline std::int64_t streamPass(ThreadPool* pool, std::int64_t grain,
                               const StreamLabelling& file,
                               const GridLclD& lcl, const StreamWindow& window,
                               bool stopAtFirst) {
  const int n = file.n();
  const TorusD torus(file.dims(), n);
  stream_verify_detail::DecodedLabels decoded(file);
  stream_verify_detail::StreamPass pass;
  pass.file = &file;
  pass.window =
      stream_verify_detail::resolveWindowRows(n, file.lines(), window.rows);
  pass.wrapKeep = stream_verify_detail::wrapWindowRows(file.dims(), n);
  pass.tablePath = lcl.hasTable();
  pass.decoded = &decoded;
  stream_verify_detail::applyCheckpointConfig(
      pass, file, window, lcl.hasTable() ? lcl.table().fingerprint() : 0);
  const bool sliced = verifier_detail::bitsliceSelectedD(lcl, file.size());
  const bool inPlace = sliced && verifier_detail::hasPairPlanesPlanD(lcl);
  const LabelPlanes mapped =
      inPlace ? LabelPlanes::view(file.line(0), n, file.lines(), file.planes())
              : LabelPlanes();
  pass.admitRows = [&](long long begin, long long end, bool check) {
    if (check && inPlace) {
      return !file.linesChecked() ||
             !anyItem(pool, begin, end, grain,
                      [&](std::int64_t s, std::int64_t t) {
                        return !file.linesClean(s, t);
                      });
    }
    decoded.reserve();
    return !anyItem(pool, begin, end, grain,
                    [&](std::int64_t s, std::int64_t t) {
                      return !decoded.decode(s, t) && check;
                    });
  };
  pass.kernelRows = [&](long long begin, long long end, bool stop) {
    static const LabelPlanes kNoPlanes;
    return violationsOver(
        pool, begin, end, grain, stop,
        [&](std::int64_t s, std::int64_t t, bool sliceStop) {
          if (inPlace) {
            return verifier_detail::planesViolationLinesD(
                lcl.table(), torus, mapped, s, t, sliceStop);
          }
          const int* labels = decoded.all().data();
          return sliced ? verifier_detail::bitsliceViolationLinesD(
                              lcl.table(), torus, kNoPlanes, labels, s, t,
                              sliceStop)
                        : verifier_detail::tableViolationLinesD(
                              lcl.table(), torus, labels, s, t, sliceStop);
        });
  };
  pass.functionalRows = [&, n](long long begin, long long end, bool stop) {
    const std::span<const int> all = decoded.all();
    return violationsOver(
        pool, begin * n, end * n, nodeGrain(grain, torus), stop,
        [&](std::int64_t s, std::int64_t t, bool sliceStop) {
          return verifier_detail::functionalViolationRangeD(torus, lcl, all, s,
                                                            t, sliceStop);
        });
  };
  return stream_verify_detail::runStreamPass(pass, stopAtFirst);
}

}  // namespace lclgrid::engine::shard_detail
