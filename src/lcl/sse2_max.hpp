// The unsigned 32-bit max the bit-sliced row loops keep for their alphabet
// check (bitslice::transposeRow, the byte-lane narrowing in verifier.cpp)
// on the SSE2 baseline, which has no pmaxud.
#pragma once

#if defined(__SSE2__)
#include <immintrin.h>

#include <cstdint>

namespace lclgrid::bitslice {

/// Lane-wise unsigned 32-bit max (pmaxud is SSE4.1): flip the sign bits so
/// a signed compare orders the lanes as unsigned, then blend.
inline __m128i maxEpu32(__m128i a, __m128i b) {
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  const __m128i aGreater =
      _mm_cmpgt_epi32(_mm_xor_si128(a, sign), _mm_xor_si128(b, sign));
  return _mm_or_si128(_mm_and_si128(aGreater, a),
                      _mm_andnot_si128(aGreater, b));
}

}  // namespace lclgrid::bitslice

#endif  // __SSE2__
