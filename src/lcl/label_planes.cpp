#include "lcl/label_planes.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "lcl/sse2_max.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#if defined(__GNUC__) || defined(__clang__)
#define LCLGRID_BITSLICE_AVX2 1
#if defined(__x86_64__)
#define LCLGRID_BITSLICE_AVX512 1
#endif
#endif
#endif

namespace lclgrid {

namespace bitslice {

namespace {

// -1 = not yet read from the environment; 0/1 afterwards (or after an
// explicit setEnabled override).
std::atomic<int> gEnabled{-1};

int readEnv() {
  const char* value = std::getenv("LCLGRID_BITSLICE");
  return (value != nullptr && value[0] == '0' && value[1] == '\0') ? 0 : 1;
}

// The SIMD cap, same publication scheme: -1 = not yet read from
// LCLGRID_SIMD; 0/1/2 afterwards.
std::atomic<int> gSimdCap{-1};

int readSimdEnv() {
  const char* value = std::getenv("LCLGRID_SIMD");
  if (value != nullptr && value[0] != '\0' && value[1] == '\0') {
    if (value[0] == '0') return 0;
    if (value[0] == '1') return 1;
  }
  return 2;
}

#if defined(LCLGRID_BITSLICE_AVX2)

/// AVX2 clone of transposeRow's whole aligned body (one dispatched call
/// per row so the accumulators stay in registers): 32 labels per step,
/// narrowed with the 256-bit packs -- which interleave their 128-bit
/// lanes, so one dword permute restores label order -- then each plane
/// harvested with a byte movemask. The raw labels also feed an unsigned
/// max (one vpmaxud per 8 labels), returned for the alphabet check.
/// Handles k in [0, n & ~63); the caller finishes the last partial word.
#if !defined(__AVX2__)
__attribute__((target("avx2")))
#endif
unsigned transposeRowAvx2(const int* labels, int n, int planes,
                          std::uint64_t* out, std::size_t W) {
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i maxLabels = _mm256_setzero_si256();
  for (std::size_t w = 0; (w + 1) * 64 <= static_cast<std::size_t>(n); ++w) {
    std::uint64_t packed[8] = {};
    for (int k = 0; k < 64; k += 32) {
      const int* p = labels + w * 64 + k;
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8));
      const __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 16));
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 24));
      maxLabels = _mm256_max_epu32(
          maxLabels, _mm256_max_epu32(_mm256_max_epu32(a, b),
                                      _mm256_max_epu32(c, d)));
      const __m256i bytes = _mm256_permutevar8x32_epi32(
          _mm256_packus_epi16(_mm256_packs_epi32(a, b),
                              _mm256_packs_epi32(c, d)),
          order);
      for (int bit = 0; bit < planes; ++bit) {
        const std::uint32_t bits = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi64(bytes, 7 - bit)));
        packed[bit] |= static_cast<std::uint64_t>(bits) << k;
      }
    }
    for (int b = 0; b < planes; ++b) {
      out[static_cast<std::size_t>(b) * W + w] = packed[b];
    }
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), maxLabels);
  return *std::max_element(lanes, lanes + 8);
}

bool avx2Supported() {
#if defined(__AVX2__)
  return true;
#else
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#endif
}

#endif  // LCLGRID_BITSLICE_AVX2

#if defined(LCLGRID_BITSLICE_AVX512)

bool avx512Supported() {
  // The lumped subsets the verifier's AVX-512 kernels use: foundation +
  // byte/word ops + the byte permute of the nibble LUT + vector popcount.
  static const bool supported =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vbmi") &&
      __builtin_cpu_supports("avx512vpopcntdq");
  return supported;
}

#endif  // LCLGRID_BITSLICE_AVX512

}  // namespace

bool enabled() {
  int state = gEnabled.load(std::memory_order_relaxed);
  if (state < 0) {
    // First reader publishes the environment value -- unless a concurrent
    // setEnabled() got there first, in which case its override wins.
    int expected = -1;
    const int fromEnv = readEnv();
    state = gEnabled.compare_exchange_strong(expected, fromEnv,
                                             std::memory_order_relaxed)
                ? fromEnv
                : expected;
  }
  return state != 0;
}

void setEnabled(bool value) {
  gEnabled.store(value ? 1 : 0, std::memory_order_relaxed);
}

bool avx2Available() {
#if defined(LCLGRID_BITSLICE_AVX2)
  return avx2Supported();
#else
  return false;
#endif
}

bool avx512Available() {
#if defined(LCLGRID_BITSLICE_AVX512)
  return avx512Supported();
#else
  return false;
#endif
}

SimdTier simdTier() {
  int cap = gSimdCap.load(std::memory_order_relaxed);
  if (cap < 0) {
    int expected = -1;
    const int fromEnv = readSimdEnv();
    cap = gSimdCap.compare_exchange_strong(expected, fromEnv,
                                           std::memory_order_relaxed)
              ? fromEnv
              : expected;
  }
  const int available = avx512Available() ? 2 : (avx2Available() ? 1 : 0);
  return static_cast<SimdTier>(std::min(cap, available));
}

void setSimdTier(SimdTier cap) {
  gSimdCap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

int planeCount(int sigma) {
  return std::max(
      1, static_cast<int>(std::bit_width(static_cast<unsigned>(sigma - 1))));
}

unsigned transposeRow(const int* labels, int n, int planes,
                      std::uint64_t* out) {
  const std::size_t W = wordsPerRow(n);
  std::size_t wBegin = 0;
  unsigned maxLabel = 0;
#if defined(LCLGRID_BITSLICE_AVX2)
  if (simdTier() >= SimdTier::kAvx2) {
    maxLabel = transposeRowAvx2(labels, n, planes, out, W);
    wBegin = static_cast<std::size_t>(n) / 64;  // full words done
    if (wBegin == W) return maxLabel;
  }
#endif
#if defined(__SSE2__)
  __m128i maxLabels = _mm_setzero_si128();
#endif
  for (std::size_t w = wBegin; w < W; ++w) {
    const int base = static_cast<int>(w) * 64;
    const int m = std::min(64, n - base);
    std::uint64_t packed[8] = {};
    int k = 0;
#if defined(__SSE2__)
    // 16 labels per step: narrow int32 -> uint8 with two pack stages, then
    // harvest bit b of every byte by shifting it into the sign position
    // and taking the byte movemask -- 16 plane bits per op.
    for (; k + 16 <= m; k += 16) {
      const int* p = labels + base + k;
      const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4));
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8));
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 12));
      maxLabels = maxEpu32(maxLabels,
                           maxEpu32(maxEpu32(a, b), maxEpu32(c, d)));
      const __m128i bytes =
          _mm_packus_epi16(_mm_packs_epi32(a, b), _mm_packs_epi32(c, d));
      for (int bit = 0; bit < planes; ++bit) {
        const unsigned bits = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_slli_epi64(bytes, 7 - bit)));
        packed[bit] |= static_cast<std::uint64_t>(bits) << k;
      }
    }
#else
    // Portable path: stage 8 labels as the bytes of one uint64_t, then
    // gather bit b of each byte with the multiply trick -- the magic
    // constant places bit 8j at product bit 56+j with no carry collisions,
    // so 8 label bits cost one shift/and/mul/shift per plane.
    for (; k + 8 <= m; k += 8) {
      std::uint64_t w8 = 0;
      for (int j = 0; j < 8; ++j) {
        const int label = labels[base + k + j];
        maxLabel = std::max(maxLabel, static_cast<unsigned>(label));
        w8 |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(label))
              << (8 * j);
      }
      for (int b = 0; b < planes; ++b) {
        const std::uint64_t bits =
            (((w8 >> b) & 0x0101010101010101ULL) * 0x0102040810204080ULL) >>
            56;
        packed[b] |= bits << k;
      }
    }
#endif
    for (; k < m; ++k) {
      const int label = labels[base + k];
      maxLabel = std::max(maxLabel, static_cast<unsigned>(label));
      for (int b = 0; b < planes; ++b) {
        packed[b] |= static_cast<std::uint64_t>((label >> b) & 1) << k;
      }
    }
    for (int b = 0; b < planes; ++b) {
      out[static_cast<std::size_t>(b) * W + w] = packed[b];
    }
  }
#if defined(__SSE2__)
  alignas(16) std::uint32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), maxLabels);
  maxLabel = std::max(maxLabel, *std::max_element(lanes, lanes + 4));
#endif
  return maxLabel;
}

void untransposeRow(const std::uint64_t* planes, int n, int planeCount,
                    int* labels) {
  const std::size_t W = wordsPerRow(n);
  for (int x = 0; x < n; ++x) {
    int label = 0;
    for (int b = 0; b < planeCount; ++b) {
      label |= static_cast<int>(
                   (planes[static_cast<std::size_t>(b) * W +
                           static_cast<std::size_t>(x >> 6)] >>
                    (x & 63)) &
                   1u)
               << b;
    }
    labels[x] = label;
  }
}

void shiftUpCyclic(const std::uint64_t* src, std::uint64_t* dst, int n) {
  const std::size_t W = wordsPerRow(n);
  for (std::size_t w = 0; w + 1 < W; ++w) {
    dst[w] = (src[w] >> 1) | (src[w + 1] << 63);
  }
  dst[W - 1] = src[W - 1] >> 1;
  const int top = n - 1;
  dst[top >> 6] |= (src[0] & 1u) << (top & 63);
}

void shiftDownCyclic(const std::uint64_t* src, std::uint64_t* dst, int n) {
  const std::size_t W = wordsPerRow(n);
  for (std::size_t w = W; w-- > 1;) {
    dst[w] = (src[w] << 1) | (src[w - 1] >> 63);
  }
  dst[0] = src[0] << 1;
  const int top = n - 1;
  dst[0] |= (src[top >> 6] >> (top & 63)) & 1u;
  dst[W - 1] &= rowTailMask(n);
}

void PairNetwork::eval(const std::uint64_t* lo, const std::uint64_t* hi,
                       std::size_t words, std::uint64_t* out) const {
  if (notEqual) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t diff = lo[w] ^ hi[w];
      for (int b = 1; b < planes; ++b) {
        diff |= lo[static_cast<std::size_t>(b) * words + w] ^
                hi[static_cast<std::size_t>(b) * words + w];
      }
      out[w] = diff;
    }
    return;
  }
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t acc = 0;
    for (const Term& term : terms) {
      std::uint64_t t = ~std::uint64_t{0};
      for (int b = 0; b < planes; ++b) {
        t &= lo[static_cast<std::size_t>(b) * words + w] ^ term.loXor[b];
      }
      for (int b = 0; b < planes; ++b) {
        t &= hi[static_cast<std::size_t>(b) * words + w] ^ term.hiXor[b];
      }
      acc |= t;
    }
    out[w] = complement ? ~acc : acc;
  }
}

PairNetwork compilePairNetwork(int sigma,
                               const std::function<bool(int, int)>& ok) {
  if (sigma < 1 || sigma > 8) {
    throw std::invalid_argument("compilePairNetwork: sigma out of [1, 8]");
  }
  std::vector<std::pair<int, int>> allowed;
  std::vector<std::pair<int, int>> forbidden;
  for (int lo = 0; lo < sigma; ++lo) {
    for (int hi = 0; hi < sigma; ++hi) {
      (ok(lo, hi) ? allowed : forbidden).emplace_back(lo, hi);
    }
  }
  PairNetwork net;
  net.planes = planeCount(sigma);
  net.notEqual = true;
  for (int lo = 0; lo < sigma && net.notEqual; ++lo) {
    for (int hi = 0; hi < sigma && net.notEqual; ++hi) {
      net.notEqual = ok(lo, hi) == (lo != hi);
    }
  }
  net.complement = forbidden.size() < allowed.size();
  const auto& side = net.complement ? forbidden : allowed;
  net.terms.reserve(side.size());
  for (const auto& [lo, hi] : side) {
    PairNetwork::Term term;
    for (int b = 0; b < net.planes; ++b) {
      term.loXor[b] = ((lo >> b) & 1) ? 0 : ~std::uint64_t{0};
      term.hiXor[b] = ((hi >> b) & 1) ? 0 : ~std::uint64_t{0};
    }
    net.terms.push_back(term);
  }
  return net;
}

NibbleLut compileNibbleLut(
    int sigma,
    const std::function<bool(int c, int n, int e, int s, int w)>& ok) {
  if (sigma < 1 || sigma > 4) {
    throw std::invalid_argument("compileNibbleLut: sigma out of [1, 4]");
  }
  NibbleLut lut{};
  // Key layout matches the packed-label kernel: c | n<<2 | e<<4 | s<<6,
  // with the west label selecting the bit. Tuples with a label >= sigma
  // keep their bits 0: a pass that reads such a label is discarded (the
  // packer reports the row's max label).
  for (int w = 0; w < sigma; ++w) {
    for (int s = 0; s < sigma; ++s) {
      for (int e = 0; e < sigma; ++e) {
        for (int n = 0; n < sigma; ++n) {
          for (int c = 0; c < sigma; ++c) {
            if (!ok(c, n, e, s, w)) continue;
            const int key = c | (n << 2) | (e << 4) | (s << 6);
            lut.byWest[static_cast<std::size_t>(key)] |=
                static_cast<std::uint8_t>(1u << w);
          }
        }
      }
    }
  }
  return lut;
}

}  // namespace bitslice

LabelPlanes::LabelPlanes(int n, long long rows, int planes)
    : n_(n), rows_(rows), planes_(planes), words_(bitslice::wordsPerRow(n)) {
  if (n < 1 || rows < 0 || planes < 1 || planes > 8) {
    throw std::invalid_argument("LabelPlanes: bad shape");
  }
  data_.assign(static_cast<std::size_t>(rows) * planes_ * words_, 0);
}

LabelPlanes LabelPlanes::view(const std::uint64_t* words, int n,
                              long long rows, int planes) {
  LabelPlanes view(n, 0, planes);
  view.rows_ = rows;
  view.view_ = words;
  return view;
}

unsigned LabelPlanes::setRows(std::span<const int> labels,
                              long long rowBegin, long long rowEnd) {
  if (view_ != nullptr) {
    throw std::logic_error("LabelPlanes::setRows: a view is read-only");
  }
  if (static_cast<long long>(labels.size()) !=
      rows_ * static_cast<long long>(n_)) {
    throw std::invalid_argument("LabelPlanes::setRows: labelling size");
  }
  unsigned maxLabel = 0;
  for (long long r = rowBegin; r < rowEnd; ++r) {
    maxLabel = std::max(
        maxLabel, bitslice::transposeRow(
                      labels.data() + static_cast<std::size_t>(r) * n_, n_,
                      planes_, row(r)));
  }
  return maxLabel;
}

void LabelPlanes::toLabels(std::span<int> out) const {
  if (static_cast<long long>(out.size()) !=
      rows_ * static_cast<long long>(n_)) {
    throw std::invalid_argument("LabelPlanes::toLabels: labelling size");
  }
  for (long long r = 0; r < rows_; ++r) {
    bitslice::untransposeRow(row(r), n_, planes_,
                             out.data() + static_cast<std::size_t>(r) * n_);
  }
}

}  // namespace lclgrid
