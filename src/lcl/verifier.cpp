#include "lcl/verifier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lcl/sse2_max.hpp"
#include "lcl/verify_probes.hpp"

// Runtime-dispatched wide clones of the bit-sliced word loops, following
// the transpose's dispatch mechanism in label_planes.cpp: baseline builds
// compile the AVX2/AVX-512 workers with target attributes and select them
// per call from bitslice::simdTier() (which folds in the LCLGRID_SIMD cap
// and the host CPU). Every tier produces bit-identical counts.
#if defined(__SSE2__)
#include <immintrin.h>
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define LCLGRID_VERIFY_AVX2 1
#define LCLGRID_VERIFY_AVX512 1
#endif
#endif

namespace lclgrid {

namespace {

/// Table-driven kernel over grid rows [yBegin, yEnd) of one labelling, laid
/// out row-major (node y*n+x). Requires every label in [0, sigma).
/// Neighbour lookups use row pointers instead of Torus2D::step, so the
/// inner loop is a handful of loads, one table row fetch and a bit test per
/// node. The row-range form is what the engine's sharded verifier
/// distributes across threads (per-shard accumulators, combined in shard
/// order, hence bit-identical to one serial sweep).
template <bool StopAtFirst>
std::int64_t tableViolations(const LclTable& table, int n, const int* labels,
                             int yBegin, int yEnd) {
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    const int* row = labels + static_cast<std::size_t>(y) * n;
    const int* rowNorth =
        labels + static_cast<std::size_t>(y + 1 == n ? 0 : y + 1) * n;
    const int* rowSouth =
        labels + static_cast<std::size_t>(y == 0 ? n - 1 : y - 1) * n;
    for (int x = 0; x < n; ++x) {
      const int east = row[x + 1 == n ? 0 : x + 1];
      const int west = row[x == 0 ? n - 1 : x - 1];
      const std::uint64_t mask =
          table.centreMask(rowNorth[x], east, rowSouth[x], west);
      if (!((mask >> row[x]) & 1u)) {
        if constexpr (StopAtFirst) return 1;
        ++bad;
      }
    }
  }
  return bad;
}

// --- byte-lane colouring kernel --------------------------------------------
// Tables whose pair networks are both `lo != hi` (vertex colouring) are edge
// checkable: a node is valid iff its label differs from each neighbour's.
// Each int32 row is narrowed to one byte per label, once, and neighbouring
// byte lanes are compared directly, 64 nodes per mask word:
//   eqE = cur[x] == cur[x + 1]  (the byte row carries its wrap byte at [n])
//   eqN = cur[x] == next[x]     (row y + 1, compared as it is narrowed)
//   eqW = eqE one lane up plus a carried lane;  eqS = the last row's eqN
// and node x of row y is violated iff eqE | eqW | eqN | eqS. Each SimdTier
// rung (SSE2, AVX2, AVX-512BW) has one word loop that narrows a row while
// it decides the row before it, keeping the unsigned max of the raw labels
// for the alphabet check. A long row's words are walked as a few runs in
// lockstep, so one core keeps several DRAM streams in flight; a row's
// partial last word runs the same loop on a zero-padded copy of its
// labels. The nibble tier's packByteRow runs the same loops with no row to
// decide. Every rung counts bit for bit alike.

/// A rung's word loop over `segments` runs of `steps` 64-label words (run s
/// is words [s * steps, (s + 1) * steps)), walked in lockstep: word i of
/// every run, then word i + 1, so one core reads the row as `segments`
/// streams at once. It narrows the labels into `next` and raises maxLabel
/// to the largest of them, as unsigned. With `cur` set (the row before, wrap
/// byte after its last label) it also decides `cur` against them, rolling
/// run s's west carry `carry[s]` (eqE of the lane before) and eqS, and
/// returns the violations among `laneMask`'s lanes of each word (at most 1
/// with stopAtFirst). An out-of-range label narrows to some byte; the
/// caller discards such a pass through maxLabel.
using ByteRowFn = std::int64_t (*)(const int* labels, std::size_t steps,
                                   std::size_t segments, std::uint8_t* next,
                                   const std::uint8_t* cur, std::uint64_t* eqS,
                                   std::uint64_t* carry, bool stopAtFirst,
                                   unsigned& maxLabel, std::uint64_t laneMask);

/// One word's violated lanes from its east and north compares; rolls the
/// west carry and the south stream.
inline std::uint64_t colourWord(std::uint64_t eqE, std::uint64_t eqN,
                                std::uint64_t& carry, std::uint64_t& eqS) {
  const std::uint64_t violated = eqE | (eqE << 1) | carry | eqN | eqS;
  carry = eqE >> 63;
  eqS = eqN;
  return violated;
}

#if !defined(__SSE2__)

/// The portable rung, for builds without SSE2: the word loop lane by lane.
std::int64_t byteRowPortable(const int* labels, std::size_t steps,
                             std::size_t segments, std::uint8_t* next,
                             const std::uint8_t* cur, std::uint64_t* eqS,
                             std::uint64_t* carry, bool stopAtFirst,
                             unsigned& maxLabel, std::uint64_t laneMask) {
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < steps && (bad == 0 || !stopAtFirst); ++i) {
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t w = s * steps + i;
      std::uint64_t eqE = 0;
      std::uint64_t eqN = 0;
      for (int k = 0; k < 64; ++k) {
        const std::size_t x = w * 64 + static_cast<std::size_t>(k);
        maxLabel = std::max(maxLabel, static_cast<unsigned>(labels[x]));
        next[x] = static_cast<std::uint8_t>(labels[x]);
        if (cur == nullptr) continue;
        eqE |= static_cast<std::uint64_t>(cur[x] == cur[x + 1]) << k;
        eqN |= static_cast<std::uint64_t>(cur[x] == next[x]) << k;
      }
      if (cur == nullptr) continue;
      const std::uint64_t violated =
          colourWord(eqE, eqN, carry[s], eqS[w]) & laneMask;
      if (violated != 0) {
        bad += std::popcount(violated);
        if (stopAtFirst) break;
      }
    }
  }
  return stopAtFirst ? std::min<std::int64_t>(bad, 1) : bad;
}

#endif  // !__SSE2__

#if defined(__SSE2__)

using bitslice::maxEpu32;

/// Asks for the 64-byte label line 4 KiB past `line` into L2. The word
/// loops read one int32 row per kernel row, and on a torus beyond the L3
/// the hardware prefetchers alone leave them waiting on DRAM: on a 9216^2
/// vc:4 torus (4-vCPU AVX-512 Xeon) this lifts the per-CPU rate ~1.3x at
/// 1 and 4 lanes. The address is formed as an integer because it may lie
/// past the labelling's end, where a prefetch is harmless but pointer
/// arithmetic is undefined.
inline void prefetchAhead(const int* line) {
  constexpr std::uintptr_t kAhead = 4096;
  _mm_prefetch(reinterpret_cast<const char*>(
                   reinterpret_cast<std::uintptr_t>(line) + kAhead),
               _MM_HINT_T1);
}

/// Equal byte lanes of two 16-byte rows as a 16-bit mask.
inline std::uint64_t eqMask16(__m128i a, __m128i b) {
  return static_cast<std::uint16_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(a, b)));
}

/// SSE2 rung: four 16-label steps per word, each narrowed with two pack
/// stages (signed then unsigned saturation, already in label order).
std::int64_t byteRowSse2(const int* labels, std::size_t steps,
                         std::size_t segments, std::uint8_t* next,
                         const std::uint8_t* cur, std::uint64_t* eqS,
                         std::uint64_t* carry, bool stopAtFirst,
                         unsigned& maxLabel, std::uint64_t laneMask) {
  __m128i maxLabels = _mm_setzero_si128();
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < steps && (bad == 0 || !stopAtFirst); ++i) {
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t w = s * steps + i;
      std::uint64_t eqE = 0;
      std::uint64_t eqN = 0;
      for (int k = 0; k < 64; k += 16) {
        const std::size_t x = w * 64 + static_cast<std::size_t>(k);
        prefetchAhead(labels + x);
        const auto* p = reinterpret_cast<const __m128i*>(labels + x);
        const __m128i a = _mm_loadu_si128(p);
        const __m128i b = _mm_loadu_si128(p + 1);
        const __m128i c = _mm_loadu_si128(p + 2);
        const __m128i d = _mm_loadu_si128(p + 3);
        maxLabels = maxEpu32(maxLabels,
                             maxEpu32(maxEpu32(a, b), maxEpu32(c, d)));
        const __m128i bytes =
            _mm_packus_epi16(_mm_packs_epi32(a, b), _mm_packs_epi32(c, d));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(next + x), bytes);
        if (cur == nullptr) continue;
        const __m128i here =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + x));
        const __m128i east =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + x + 1));
        eqE |= eqMask16(here, east) << k;
        eqN |= eqMask16(here, bytes) << k;
      }
      if (cur == nullptr) continue;
      const std::uint64_t violated =
          colourWord(eqE, eqN, carry[s], eqS[w]) & laneMask;
      if (violated != 0) {
        bad += std::popcount(violated);
        if (stopAtFirst) break;
      }
    }
  }
  alignas(16) std::uint32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), maxLabels);
  maxLabel = std::max(maxLabel, *std::max_element(lanes, lanes + 4));
  return stopAtFirst ? std::min<std::int64_t>(bad, 1) : bad;
}

#endif  // __SSE2__

#if defined(LCLGRID_VERIFY_AVX2)

#if !defined(__AVX2__)
__attribute__((target("avx2")))
#endif
inline std::uint64_t eqMask32(__m256i a, __m256i b) {
  return static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)));
}

/// AVX2 rung: two 32-label steps per word. The 256-bit packs interleave
/// their 128-bit lanes, so one dword permute restores label order.
#if !defined(__AVX2__)
__attribute__((target("avx2")))
#endif
std::int64_t byteRowAvx2(const int* labels, std::size_t steps,
                         std::size_t segments, std::uint8_t* next,
                         const std::uint8_t* cur, std::uint64_t* eqS,
                         std::uint64_t* carry, bool stopAtFirst,
                         unsigned& maxLabel, std::uint64_t laneMask) {
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i maxLabels = _mm256_setzero_si256();
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < steps && (bad == 0 || !stopAtFirst); ++i) {
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t w = s * steps + i;
      std::uint64_t eqE = 0;
      std::uint64_t eqN = 0;
      for (int k = 0; k < 64; k += 32) {
        const std::size_t x = w * 64 + static_cast<std::size_t>(k);
        prefetchAhead(labels + x);
        prefetchAhead(labels + x + 16);
        const auto* p = reinterpret_cast<const __m256i*>(labels + x);
        const __m256i a = _mm256_loadu_si256(p);
        const __m256i b = _mm256_loadu_si256(p + 1);
        const __m256i c = _mm256_loadu_si256(p + 2);
        const __m256i d = _mm256_loadu_si256(p + 3);
        maxLabels = _mm256_max_epu32(
            maxLabels, _mm256_max_epu32(_mm256_max_epu32(a, b),
                                        _mm256_max_epu32(c, d)));
        const __m256i bytes = _mm256_permutevar8x32_epi32(
            _mm256_packus_epi16(_mm256_packs_epi32(a, b),
                                _mm256_packs_epi32(c, d)),
            order);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + x), bytes);
        if (cur == nullptr) continue;
        const __m256i here =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + x));
        const __m256i east = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cur + x + 1));
        eqE |= eqMask32(here, east) << k;
        eqN |= eqMask32(here, bytes) << k;
      }
      if (cur == nullptr) continue;
      const std::uint64_t violated =
          colourWord(eqE, eqN, carry[s], eqS[w]) & laneMask;
      if (violated != 0) {
        bad += std::popcount(violated);
        if (stopAtFirst) break;
      }
    }
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), maxLabels);
  maxLabel = std::max(maxLabel, *std::max_element(lanes, lanes + 8));
  return stopAtFirst ? std::min<std::int64_t>(bad, 1) : bad;
}

#endif  // LCLGRID_VERIFY_AVX2

#if defined(LCLGRID_VERIFY_AVX512)

#if !defined(__AVX512F__)
__attribute__((target("avx512f")))
#endif
inline __m512i maxEpu32x16(__m512i a, __m512i b) {
  return _mm512_maskz_max_epu32(0xFFFF, a, b);
}

/// AVX-512BW rung: one 64-label step per word, compares straight into mask
/// registers. The packs interleave the four 128-bit lanes; one dword
/// permute restores label order.
#if !defined(__AVX512F__) || !defined(__AVX512BW__)
__attribute__((target("avx512f,avx512bw")))
#endif
std::int64_t byteRowAvx512(const int* labels, std::size_t steps,
                           std::size_t segments, std::uint8_t* next,
                           const std::uint8_t* cur, std::uint64_t* eqS,
                           std::uint64_t* carry, bool stopAtFirst,
                           unsigned& maxLabel, std::uint64_t laneMask) {
  const __m512i order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10,
                                          14, 3, 7, 11, 15);
  // vpmaxud and vpermd in their zero-masked forms over all lanes: the
  // unmasked intrinsics pass an undefined source operand, which GCC 12
  // reports under -Wmaybe-uninitialized.
  __m512i maxLabels = _mm512_setzero_si512();
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < steps && (bad == 0 || !stopAtFirst); ++i) {
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t w = s * steps + i;
      const int* p = labels + w * 64;
      for (int line = 0; line < 64; line += 16) prefetchAhead(p + line);
      const __m512i a = _mm512_loadu_si512(p);
      const __m512i b = _mm512_loadu_si512(p + 16);
      const __m512i c = _mm512_loadu_si512(p + 32);
      const __m512i d = _mm512_loadu_si512(p + 48);
      maxLabels = maxEpu32x16(maxLabels, maxEpu32x16(maxEpu32x16(a, b),
                                                     maxEpu32x16(c, d)));
      const __m512i bytes = _mm512_maskz_permutexvar_epi32(
          0xFFFF, order,
          _mm512_packus_epi16(_mm512_packs_epi32(a, b),
                              _mm512_packs_epi32(c, d)));
      _mm512_storeu_si512(next + w * 64, bytes);
      if (cur == nullptr) continue;
      const __m512i here = _mm512_loadu_si512(cur + w * 64);
      const std::uint64_t violated = colourWord(
          _mm512_cmpeq_epi8_mask(here, _mm512_loadu_si512(cur + w * 64 + 1)),
          _mm512_cmpeq_epi8_mask(here, bytes), carry[s], eqS[w]) & laneMask;
      if (violated != 0) {
        bad += std::popcount(violated);
        if (stopAtFirst) break;
      }
    }
  }
  alignas(64) std::uint32_t lanes[16];
  _mm512_store_si512(lanes, maxLabels);
  maxLabel = std::max(maxLabel, *std::max_element(lanes, lanes + 16));
  return stopAtFirst ? std::min<std::int64_t>(bad, 1) : bad;
}

#endif  // LCLGRID_VERIFY_AVX512

/// The word loop of the rung simdTier() allows (it folds in the
/// LCLGRID_SIMD cap and the host).
ByteRowFn selectByteRowFn() {
#if defined(LCLGRID_VERIFY_AVX512)
  if (bitslice::simdTier() >= bitslice::SimdTier::kAvx512) {
    return &byteRowAvx512;
  }
#endif
#if defined(LCLGRID_VERIFY_AVX2)
  if (bitslice::simdTier() >= bitslice::SimdTier::kAvx2) return &byteRowAvx2;
#endif
#if defined(__SSE2__)
  return &byteRowSse2;
#else
  return &byteRowPortable;
#endif
}

/// A row of at least kSegmentedWords whole words is walked as kSegments
/// lockstep runs: beyond the L3, one sequential stream per core leaves
/// DRAM bandwidth idle. A read-only AVX-512 pass over a 324 MiB buffer
/// (4-vCPU Xeon VM, 105 MiB L3, one lane) reads 2.8-3.1e9 labels per
/// CPU-second as one stream and 4.1-4.75e9 as four. Eight runs measured no
/// faster than one in this loop on a 9216^2 vc:4 torus, so four it is.
/// Shorter rows are one run; the threshold keeps each run at least 4 words
/// (1 KiB of labels).
constexpr std::size_t kSegments = 4;
constexpr std::size_t kSegmentedWords = 4 * kSegments;

/// One whole row of n labels through a ByteRowFn. The row's whole words
/// are split once into equal runs; run 0's west carry is lane n - 1's eqE
/// (the wrap), run s's is read off `cur` at its first lane. The words past
/// the last run, then a partial last word, continue the last run's carry.
/// `next` and `cur` hold whole 64-lane words plus one byte: a partial last
/// word is narrowed from a zero-padded copy of its labels, and its lanes
/// >= n read and write bytes past the row.
std::int64_t byteRow(ByteRowFn fn, const int* labels, int n,
                     std::uint8_t* next, const std::uint8_t* cur,
                     std::uint64_t* eqS, bool stopAtFirst,
                     unsigned& maxLabel) {
  const std::size_t full = static_cast<std::size_t>(n) / 64;
  const std::size_t segments = full >= kSegmentedWords ? kSegments : 1;
  const std::size_t steps = full / segments;
  std::uint64_t carry[kSegments] = {};
  if (cur != nullptr) {
    carry[0] = cur[n - 1] == cur[n];
    for (std::size_t s = 1; s < segments; ++s) {
      const std::size_t x = s * steps * 64;
      carry[s] = cur[x - 1] == cur[x];
    }
  }
  // `words` words of `from` as one more run at word w of the row,
  // continuing the last run's carry.
  const auto rest = [&](const int* from, std::size_t w, std::size_t words,
                        std::uint64_t laneMask) {
    const std::size_t x = w * 64;
    return fn(from, words, 1, next + x, cur == nullptr ? nullptr : cur + x,
              cur == nullptr ? nullptr : eqS + w, &carry[segments - 1],
              stopAtFirst, maxLabel, laneMask);
  };
  std::int64_t bad = fn(labels, steps, segments, next, cur, eqS, carry,
                        stopAtFirst, maxLabel, ~std::uint64_t{0});
  const std::size_t runWords = steps * segments;
  if (runWords < full && !(stopAtFirst && bad != 0)) {
    bad += rest(labels + runWords * 64, runWords, full - runWords,
                ~std::uint64_t{0});
  }
  if (n % 64 == 0 || (stopAtFirst && bad != 0)) return bad;
  alignas(64) int padded[64] = {};
  std::copy(labels + full * 64, labels + n, padded);
  return bad + rest(padded, full, 1, bitslice::rowTailMask(n));
}

/// Bit-sliced kernel, colouring shape, over grid rows [yBegin, yEnd) of an
/// nRows x n row-major labelling (rows wrap cyclically, so a shard is
/// self-contained): two rolling byte rows and the eqS stream, one read of
/// every label row. Kept out of line (like pairPlanesViolations): inlined
/// into bitsliceViolationRows, its only caller, GCC 12 schedules the word
/// loop worse and the sharded vc:4 pass runs measurably slower.
template <bool StopAtFirst>
[[gnu::noinline]] std::int64_t colouringViolations(int n, int nRows,
                                                   const int* labels,
                                                   int yBegin, int yEnd,
                                                   unsigned& maxLabel) {
  const ByteRowFn fn = selectByteRowFn();
  // Whole words plus the wrap byte, in separate allocations, so a read past
  // a row's buffer is a heap overflow the sanitizers see.
  const std::size_t W = bitslice::wordsPerRow(n);
  std::vector<std::uint8_t> rowA(64 * W + 1);
  std::vector<std::uint8_t> rowB(64 * W + 1);
  std::vector<std::uint64_t> eqS(W);
  std::uint8_t* cur = rowA.data();
  std::uint8_t* next = rowB.data();
  // Narrows row y into `into`, deciding `against` (when set) on the way.
  const auto narrow = [&](int y, std::uint8_t* into,
                          const std::uint8_t* against, bool stopAtFirst) {
    const int wrapped = y < 0 ? y + nRows : (y >= nRows ? y - nRows : y);
    const std::int64_t bad =
        byteRow(fn, labels + static_cast<std::size_t>(wrapped) * n, n, into,
                against, eqS.data(), stopAtFirst, maxLabel);
    into[n] = into[0];
    return bad;
  };
  // Priming: deciding row yBegin - 1 against row yBegin leaves eqS holding
  // row yBegin's south compares; that row's own count is not in range.
  maxLabel = 0;
  narrow(yBegin - 1, cur, nullptr, false);
  narrow(yBegin, next, cur, false);
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    std::swap(cur, next);
    const std::int64_t rowBad = narrow(y + 1, next, cur, StopAtFirst);
    if (rowBad != 0) {
      if constexpr (StopAtFirst) return 1;
      bad += rowBad;
    }
  }
  return bad;
}

/// Where pairPlanesViolations reads its rows: `labels`, a row-major int32
/// labelling, transposed row by row into the kernel's scratch (raising
/// maxLabel), or `planes`, rows already in the LabelPlanes layout (a mapped
/// LCLLABv2 payload, whose labels the streaming frontier has checked) read
/// in place. Rows wrap cyclically modulo nRows.
struct PlaneRows {
  const int* labels = nullptr;
  const std::uint64_t* planes = nullptr;
  int nRows = 0;
};

/// Bit-sliced kernel, pair-planes shape, over grid rows [yBegin, yEnd) of
/// `rows` (rows wrap cyclically, so a shard is self-contained). A rolling
/// prev/cur/next window of plane rows feeds the h/v pair networks, which
/// decide 64 nodes per word: node x of row y is feasible iff
///   H(c[x-1], c[x]) & H(c[x], c[x+1]) & V(c[y-1][x], c) & V(c, c[y+1][x]),
/// where the west stream is the east stream shifted one bit and the
/// down stream is the previous row's up stream (both rolled, so every
/// pair network evaluates once per row).
template <bool StopAtFirst>
[[gnu::noinline]] std::int64_t pairPlanesViolations(
    const bitslice::BitslicePlan& plan, int n, const PlaneRows& rows,
    int yBegin, int yEnd, unsigned& maxLabel) {
  const int B = plan.planes;
  const std::size_t W = bitslice::wordsPerRow(n);
  const std::size_t rowWords = static_cast<std::size_t>(B) * W;
  const std::uint64_t tail = bitslice::rowTailMask(n);
  std::vector<std::uint64_t> store(rowWords * 4 + 4 * W);
  std::uint64_t* scratch[3] = {store.data(), store.data() + rowWords,
                               store.data() + 2 * rowWords};
  std::uint64_t* eastP = store.data() + 3 * rowWords;
  std::uint64_t* hEast = eastP + rowWords;
  std::uint64_t* hWest = hEast + W;
  std::uint64_t* vUp = hWest + W;
  std::uint64_t* vPrev = vUp + W;
  const auto rowAt = [&](int y, std::uint64_t* into) -> const std::uint64_t* {
    const int wrapped =
        y < 0 ? y + rows.nRows : (y >= rows.nRows ? y - rows.nRows : y);
    if (rows.planes != nullptr) {
      return rows.planes + static_cast<std::size_t>(wrapped) * rowWords;
    }
    maxLabel = std::max(
        maxLabel,
        bitslice::transposeRow(
            rows.labels + static_cast<std::size_t>(wrapped) * n, n, B, into));
    return into;
  };
  maxLabel = 0;
  // Transposed rows y - 1, y and y + 1 live in scratch[prev/cur/next].
  int prev = 0, cur = 1, next = 2;
  const std::uint64_t* prevP = rowAt(yBegin - 1, scratch[prev]);
  const std::uint64_t* curP = rowAt(yBegin, scratch[cur]);
  plan.v.eval(prevP, curP, W, vPrev);  // bit x = V(c[y-1][x], c[y][x])
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    const std::uint64_t* nextP = rowAt(y + 1, scratch[next]);
    for (int b = 0; b < B; ++b) {
      bitslice::shiftUpCyclic(curP + static_cast<std::size_t>(b) * W,
                              eastP + static_cast<std::size_t>(b) * W, n);
    }
    plan.h.eval(curP, eastP, W, hEast);   // bit x = H(c[x], c[x+1])
    bitslice::shiftDownCyclic(hEast, hWest, n);  // bit x = H(c[x-1], c[x])
    plan.v.eval(curP, nextP, W, vUp);     // bit x = V(c[y][x], c[y+1][x])
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t ok = hEast[w] & hWest[w] & vUp[w] & vPrev[w];
      const std::uint64_t violated =
          ~ok & (w + 1 == W ? tail : ~std::uint64_t{0});
      if (violated != 0) {
        if constexpr (StopAtFirst) return 1;
        bad += std::popcount(violated);
      }
    }
    curP = nextP;
    std::swap(vPrev, vUp);
    const int spare = prev;
    prev = cur;
    cur = next;
    next = spare;
  }
  return bad;
}

// --- packed-label helpers (the sigma <= 4 non-decomposable tier) ---------

std::size_t byteWords(int n) {
  return (static_cast<std::size_t>(n) + 7) / 8;
}

std::uint64_t byteTailMask(int n) {
  const int rem = n % 8;
  return rem == 0 ? ~std::uint64_t{0}
                  : (std::uint64_t{1} << (8 * rem)) - 1;
}

/// Packs one row of n labels into byte lanes, 8 per word, through the
/// colouring kernel's byte loops: `out` holds whole 64-lane words, and the
/// lanes >= n are zero (the padded last word). Returns the row's largest
/// label as unsigned (transposeRow's contract): a label >= 4 narrows to a
/// byte that spills into its neighbours' key fields, but the kernel masks
/// every LUT key to 8 bits, so garbage never reads outside the table and
/// the caller discards the pass.
unsigned packByteRow(ByteRowFn fn, const int* labels, int n,
                     std::uint64_t* out) {
  static_assert(std::endian::native == std::endian::little,
                "byte lane i of a word is its bits [8i, 8i + 8)");
  unsigned maxLabel = 0;
  byteRow(fn, labels, n, reinterpret_cast<std::uint8_t*>(out), nullptr,
          nullptr, false, maxLabel);
  return maxLabel;
}

/// dst lane x = src lane (x + 1 mod n) / (x - 1 mod n): the byte-lane
/// siblings of the bit shifts in label_planes.hpp.
void shiftByteUp(const std::uint64_t* src, std::uint64_t* dst, int n) {
  const std::size_t W8 = byteWords(n);
  for (std::size_t w = 0; w + 1 < W8; ++w) {
    dst[w] = (src[w] >> 8) | (src[w + 1] << 56);
  }
  dst[W8 - 1] = src[W8 - 1] >> 8;
  const int top = n - 1;
  dst[top / 8] |= (src[0] & 0xFFu) << (8 * (top % 8));
}

void shiftByteDown(const std::uint64_t* src, std::uint64_t* dst, int n) {
  const std::size_t W8 = byteWords(n);
  for (std::size_t w = W8; w-- > 1;) {
    dst[w] = (src[w] << 8) | (src[w - 1] >> 56);
  }
  dst[0] = src[0] << 8;
  const int top = n - 1;
  dst[0] |= (src[top / 8] >> (8 * (top % 8))) & 0xFFu;
  dst[W8 - 1] &= byteTailMask(n);
}

// --- wide row workers for the nibble-LUT kernel ----------------------------
// One call decides one packed row. The AVX2 worker gathers 8 LUT entries
// per word from a 32-bit-expanded copy of the table and variable-shifts by
// the west lanes; the AVX-512 worker holds the whole 256-byte table in
// four registers and resolves 64 nodes per step with two byte permutes, a
// sign-bit blend and a byte test. Tail lanes run the scalar extraction, so
// counts are bit-identical to the scalar loop on every row width.

using NibbleRowFn = std::int64_t (*)(const std::uint8_t* byWest,
                                     const std::uint32_t* lut32,
                                     const std::uint64_t* south,
                                     const std::uint64_t* cur,
                                     const std::uint64_t* north,
                                     const std::uint64_t* east,
                                     const std::uint64_t* west, int n,
                                     bool stopAtFirst);

/// The scalar per-lane extraction over words [wBegin, byteWords(n)): whole
/// rows without a wide worker, and the wide workers' tails.
std::int64_t nibbleLanesScalar(const std::uint8_t* byWest,
                               const std::uint64_t* south,
                               const std::uint64_t* cur,
                               const std::uint64_t* north,
                               const std::uint64_t* east,
                               const std::uint64_t* west, int n,
                               std::size_t wBegin, bool stopAtFirst) {
  std::int64_t bad = 0;
  const std::size_t W8 = byteWords(n);
  for (std::size_t w = wBegin; w < W8; ++w) {
    std::uint64_t key =
        cur[w] | (north[w] << 2) | (east[w] << 4) | (south[w] << 6);
    std::uint64_t wv = west[w];
    const int m = std::min(8, n - static_cast<int>(w) * 8);
    for (int i = 0; i < m; ++i) {
      if (!((byWest[static_cast<std::size_t>(key & 0xFFu)] >> (wv & 3u)) &
            1u)) {
        if (stopAtFirst) return 1;
        ++bad;
      }
      key >>= 8;
      wv >>= 8;
    }
  }
  return bad;
}

#if defined(LCLGRID_VERIFY_AVX2)

#if !defined(__AVX2__)
__attribute__((target("avx2")))
#endif
std::int64_t nibbleRowAvx2(const std::uint8_t* byWest,
                           const std::uint32_t* lut32,
                           const std::uint64_t* south,
                           const std::uint64_t* cur,
                           const std::uint64_t* north,
                           const std::uint64_t* east,
                           const std::uint64_t* west, int n,
                           bool stopAtFirst) {
  std::int64_t bad = 0;
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t w = 0;
  for (; (w + 1) * 8 <= static_cast<std::size_t>(n); ++w) {
    // Disjoint two-bit fields, so the lane-parallel ORs cannot carry.
    const std::uint64_t key =
        cur[w] | (north[w] << 2) | (east[w] << 4) | (south[w] << 6);
    const __m256i keys = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(key)));
    const __m256i wests = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(west[w])));
    const __m256i entry = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(lut32), keys, 4);
    const __m256i bit =
        _mm256_and_si256(_mm256_srlv_epi32(entry, wests), one);
    const __m256i violated =
        _mm256_cmpeq_epi32(bit, _mm256_setzero_si256());
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(violated));
    if (mask != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(static_cast<unsigned>(mask));
    }
  }
  const std::int64_t tailBad =
      nibbleLanesScalar(byWest, south, cur, north, east, west, n, w,
                        stopAtFirst);
  if (stopAtFirst && tailBad > 0) return 1;
  return bad + tailBad;
}

#endif  // LCLGRID_VERIFY_AVX2

#if defined(LCLGRID_VERIFY_AVX512)

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || !defined(__AVX512VBMI__)
__attribute__((target("avx512f,avx512bw,avx512vbmi")))
#endif
std::int64_t nibbleRowAvx512(const std::uint8_t* byWest,
                             const std::uint32_t* /*lut32*/,
                             const std::uint64_t* south,
                             const std::uint64_t* cur,
                             const std::uint64_t* north,
                             const std::uint64_t* east,
                             const std::uint64_t* west, int n,
                             bool stopAtFirst) {
  std::int64_t bad = 0;
  // The whole 256-entry table in four registers; permutex2var reads index
  // bits [6:0] and the key's bit 7 blends the halves.
  const __m512i z0 = _mm512_loadu_si512(byWest);
  const __m512i z1 = _mm512_loadu_si512(byWest + 64);
  const __m512i z2 = _mm512_loadu_si512(byWest + 128);
  const __m512i z3 = _mm512_loadu_si512(byWest + 192);
  // shuffle_epi8 indexes within 16-byte groups, so {1, 2, 4, 8} repeated
  // per dword turns a west lane (0..3) into its bit mask 1 << west.
  const __m512i westBitTable = _mm512_set1_epi32(0x08040201);
  std::size_t w = 0;
  for (; (w + 8) * 8 <= static_cast<std::size_t>(n); w += 8) {
    const __m512i c = _mm512_loadu_si512(cur + w);
    const __m512i nrt = _mm512_loadu_si512(north + w);
    const __m512i e = _mm512_loadu_si512(east + w);
    const __m512i s = _mm512_loadu_si512(south + w);
    const __m512i wst = _mm512_loadu_si512(west + w);
    // 16-bit shifts: the two-bit fields stay inside their bytes either way,
    // and the AVX-512BW shift has a defined (zero) pass-through operand.
    const __m512i key = _mm512_or_si512(
        _mm512_or_si512(c, _mm512_slli_epi16(nrt, 2)),
        _mm512_or_si512(_mm512_slli_epi16(e, 4), _mm512_slli_epi16(s, 6)));
    const __mmask64 high = _mm512_movepi8_mask(key);
    const __m512i lowVal = _mm512_permutex2var_epi8(z0, key, z1);
    const __m512i highVal = _mm512_permutex2var_epi8(z2, key, z3);
    const __m512i entry = _mm512_mask_blend_epi8(high, lowVal, highVal);
    const __m512i westBit = _mm512_shuffle_epi8(westBitTable, wst);
    const __mmask64 ok = _mm512_test_epi8_mask(entry, westBit);
    const std::uint64_t violated = ~static_cast<std::uint64_t>(ok);
    if (violated != 0) {
      if (stopAtFirst) return 1;
      bad += std::popcount(violated);
    }
  }
  const std::int64_t tailBad =
      nibbleLanesScalar(byWest, south, cur, north, east, west, n, w,
                        stopAtFirst);
  if (stopAtFirst && tailBad > 0) return 1;
  return bad + tailBad;
}

#endif  // LCLGRID_VERIFY_AVX512

/// Widest nibble worker worth running at this row length (floors keep rows
/// with no full vector word on the scalar loop), or nullptr for scalar.
NibbleRowFn selectNibbleRowFn(int n) {
#if defined(LCLGRID_VERIFY_AVX512)
  if (n >= 64 && bitslice::simdTier() >= bitslice::SimdTier::kAvx512) {
    return &nibbleRowAvx512;
  }
#endif
#if defined(LCLGRID_VERIFY_AVX2)
  if (n >= 16 && bitslice::simdTier() >= bitslice::SimdTier::kAvx2) {
    return &nibbleRowAvx2;
  }
#endif
  (void)n;
  return nullptr;
}

/// Bit-sliced kernel, nibble-LUT shape: rows packed into byte lanes
/// (rolling south/cur/north buffers plus shifted east/west views of the
/// current row). The two-bit label fields c, n, e, s are fused into one
/// key byte per node lane-parallel (three shift+ors per word of 8 nodes),
/// so the per-node work is one byte extraction into a 256-entry table of
/// per-west-label validity bits -- the LUT's low 8 index bits, with the
/// west label selecting the bit. Long rows dispatch to the gather/permute
/// workers above instead.
template <bool StopAtFirst>
std::int64_t nibbleViolations(const bitslice::NibbleLut& lut, int n,
                              int nRows, const int* labels, int yBegin,
                              int yEnd, unsigned& maxLabel) {
  const std::array<std::uint8_t, 256>& byW = lut.byWest;
  const ByteRowFn packFn = selectByteRowFn();
  const NibbleRowFn rowFn = selectNibbleRowFn(n);
  std::array<std::uint32_t, 256> lut32{};
  if (rowFn != nullptr) {
    // The AVX2 gather reads 32-bit entries; widen the byte table once.
    for (std::size_t i = 0; i < byW.size(); ++i) lut32[i] = byW[i];
  }
  // Buffers of whole 64-lane words: packByteRow stores whole words.
  const std::size_t stride = 8 * bitslice::wordsPerRow(n);
  std::vector<std::uint64_t> store(5 * stride);
  std::uint64_t* south = store.data();
  std::uint64_t* cur = south + stride;
  std::uint64_t* north = cur + stride;
  std::uint64_t* east = north + stride;
  std::uint64_t* west = east + stride;
  const auto rowAt = [&](int y) {
    const int wrapped = y < 0 ? y + nRows : (y >= nRows ? y - nRows : y);
    return labels + static_cast<std::size_t>(wrapped) * n;
  };
  maxLabel = std::max(packByteRow(packFn, rowAt(yBegin - 1), n, south),
                      packByteRow(packFn, rowAt(yBegin), n, cur));
  std::int64_t bad = 0;
  for (int y = yBegin; y < yEnd; ++y) {
    maxLabel =
        std::max(maxLabel, packByteRow(packFn, rowAt(y + 1), n, north));
    shiftByteUp(cur, east, n);
    shiftByteDown(cur, west, n);
    const std::int64_t rowBad =
        rowFn != nullptr
            ? rowFn(byW.data(), lut32.data(), south, cur, north, east, west,
                    n, StopAtFirst)
            : nibbleLanesScalar(byW.data(), south, cur, north, east, west, n,
                                0, StopAtFirst);
    if (rowBad != 0) {
      if constexpr (StopAtFirst) return 1;
      bad += rowBad;
    }
    std::uint64_t* spare = south;
    south = cur;
    cur = north;
    north = spare;
  }
  return bad;
}

/// Every shape reports the largest label it read through maxLabel; an
/// early exit leaves it covering only the rows read so far.
template <bool StopAtFirst>
std::int64_t bitsliceViolations(const bitslice::BitslicePlan& plan, int n,
                                int nRows, const int* labels, int yBegin,
                                int yEnd, unsigned& maxLabel) {
  if (plan.kind == bitslice::BitslicePlan::Kind::kPairPlanes) {
    if (plan.h.notEqual && plan.v.notEqual) {
      return colouringViolations<StopAtFirst>(n, nRows, labels, yBegin, yEnd,
                                              maxLabel);
    }
    return pairPlanesViolations<StopAtFirst>(
        plan, n, PlaneRows{.labels = labels, .nRows = nRows}, yBegin, yEnd,
        maxLabel);
  }
  return nibbleViolations<StopAtFirst>(plan.nibble, n, nRows, labels, yBegin,
                                       yEnd, maxLabel);
}

}  // namespace

std::vector<Violation> listViolations(const Torus2D& torus, const GridLcl& lcl,
                                      std::span<const int> labels,
                                      int maxReported) {
  if (static_cast<int>(labels.size()) != torus.size()) {
    throw std::invalid_argument("listViolations: labelling size mismatch");
  }
  std::vector<Violation> violations;
  for (int v = 0; v < torus.size() &&
                  static_cast<int>(violations.size()) < maxReported;
       ++v) {
    int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= lcl.sigma()) {
      violations.push_back({v, "label out of alphabet"});
      continue;
    }
    int n = labels[static_cast<std::size_t>(torus.step(v, Dir::North))];
    int e = labels[static_cast<std::size_t>(torus.step(v, Dir::East))];
    int s = labels[static_cast<std::size_t>(torus.step(v, Dir::South))];
    int w = labels[static_cast<std::size_t>(torus.step(v, Dir::West))];
    if (!lcl.allows(c, n, e, s, w)) {
      std::ostringstream os;
      auto [x, y] = torus.xy(v);
      os << "constraint violated at (" << x << "," << y << "): c="
         << lcl.labelName(c) << " n=" << lcl.labelName(n) << " e="
         << lcl.labelName(e) << " s=" << lcl.labelName(s) << " w="
         << lcl.labelName(w);
      violations.push_back({v, os.str()});
    }
  }
  return violations;
}

namespace verifier_detail {

bool allLabelsInRange(int sigma, std::span<const int> labels) {
  // An unsigned max per block of labels: the inner loop has no exit, so it
  // vectorises; an out-of-range label ends the scan at its block's end.
  constexpr std::size_t kBlock = 1024;
  for (std::size_t begin = 0; begin < labels.size(); begin += kBlock) {
    const std::size_t end = std::min(labels.size(), begin + kBlock);
    unsigned maxLabel = 0;
    for (std::size_t i = begin; i < end; ++i) {
      maxLabel = std::max(maxLabel, static_cast<unsigned>(labels[i]));
    }
    if (maxLabel >= static_cast<unsigned>(sigma)) return false;
  }
  return true;
}

std::optional<std::int64_t> resolveBitslicePass(std::int64_t violations,
                                                bool readOutside,
                                                bool stopAtFirst,
                                                long long nodes) {
  if (readOutside && !stopAtFirst) {
    static const telemetry::Counter fallbacks =
        telemetry::counter("verify.range_fallbacks");
    fallbacks.increment();
    return std::nullopt;
  }
  verify_probes::recordCall(verify_probes::Tier::kBitsliced, nodes);
  return readOutside ? 1 : violations;
}

std::size_t batchCount(long long torusSize,
                       std::span<const int> labelsBatch) {
  const std::size_t stride = static_cast<std::size_t>(torusSize);
  if (stride == 0 || labelsBatch.size() % stride != 0) {
    throw std::invalid_argument(
        "verifier: batch size is not a multiple of torus.size()");
  }
  return labelsBatch.size() / stride;
}

std::int64_t tableViolationRows(const LclTable& table, int n,
                                const int* labels, int yBegin, int yEnd,
                                bool stopAtFirst) {
  return stopAtFirst
             ? tableViolations<true>(table, n, labels, yBegin, yEnd)
             : tableViolations<false>(table, n, labels, yBegin, yEnd);
}

std::int64_t bitsliceViolationRows(const LclTable& table, int n, int nRows,
                                   const int* labels, int yBegin, int yEnd,
                                   bool stopAtFirst, unsigned* maxLabel) {
  const bitslice::BitslicePlan& plan = *table.bitslicePlan();
  unsigned read = 0;
  const std::int64_t bad =
      stopAtFirst
          ? bitsliceViolations<true>(plan, n, nRows, labels, yBegin, yEnd,
                                     read)
          : bitsliceViolations<false>(plan, n, nRows, labels, yBegin, yEnd,
                                      read);
  if (maxLabel != nullptr) *maxLabel = std::max(*maxLabel, read);
  return bad;
}

std::int64_t pairPlanesViolationRows(const LclTable& table, int n, int nRows,
                                     const std::uint64_t* planes, int yBegin,
                                     int yEnd, bool stopAtFirst) {
  const bitslice::BitslicePlan& plan = *table.bitslicePlan();
  const PlaneRows rows{.planes = planes, .nRows = nRows};
  unsigned unused = 0;
  return stopAtFirst ? pairPlanesViolations<true>(plan, n, rows, yBegin, yEnd,
                                                  unused)
                     : pairPlanesViolations<false>(plan, n, rows, yBegin,
                                                   yEnd, unused);
}

}  // namespace verifier_detail

std::string renderLabelling(const Torus2D& torus, const GridLcl& lcl,
                            std::span<const int> labels) {
  std::ostringstream os;
  for (int y = torus.n() - 1; y >= 0; --y) {
    for (int x = 0; x < torus.n(); ++x) {
      if (x > 0) os << " ";
      os << lcl.labelName(labels[static_cast<std::size_t>(torus.id(x, y))]);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace lclgrid
