// Bit-sliced labellings and the boolean evaluation plans that run on them.
//
// The compiled-table verifier (lcl/verifier.hpp) pays one table-row load and
// one bit test per node. For the small alphabets that dominate the paper's
// registry (sigma <= 8) a node's whole radius-1 check fits in a handful of
// bits, so a labelling transposed into ceil(log2(sigma)) *bit-planes* lets
// one uint64_t operation decide 64 nodes at once -- the transposed-data
// trick of bitwise SAT/BDD kernels. This header holds the three pieces:
//
//  * LabelPlanes -- a torus labelling transposed into planes: plane b of
//    grid row (or axis-0 line) r is a packed n-bit vector whose bit x is
//    bit b of the label at position x of that row. Conversion to/from the
//    flat int labelling, plus the cyclic word-shift helpers that realise
//    the +-x neighbour within a row.
//  * PairNetwork -- a plane-level AND/XOR/OR network deciding a sigma x
//    sigma pair predicate for 64 (lo, hi) pairs per word-op. Synthesised
//    from whichever of the allowed / forbidden pair sets is smaller
//    (sum-of-minterms, complemented when the forbidden side is used).
//  * BitslicePlan / BitslicePlanD -- the per-problem plan attached to a
//    compiled LclTable / LclTableD: pair networks per direction for
//    edge-decomposable tables, or a nibble-indexed LUT over packed 4-bit
//    label words for non-decomposable tables with sigma <= 4.
//
// The kernels that consume these live in lcl/verifier.cpp (2D rolling-row
// kernel) and lcl/verifier_d.cpp (TorusD line kernel); selection between
// the bit-sliced, row-pointer and functional tiers is automatic -- see
// docs/perf.md. LCLGRID_BITSLICE=0 (or bitslice::setEnabled(false)) is the
// escape hatch back to the row-pointer kernel.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace lclgrid {

namespace bitslice {

/// Process-wide kernel gate. Initialised once from the LCLGRID_BITSLICE
/// environment variable ("0" disables, anything else enables); benches and
/// tests override it to pin a specific kernel. Thread-safe.
bool enabled();
void setEnabled(bool value);

/// SIMD width ladder of the bit-sliced machinery: the row transpose and
/// the word kernels in lcl/verifier.cpp runtime-dispatch up to this tier.
/// kScalar is the portable SSE2/uint64_t baseline every path falls back
/// to; the wider tiers are clones of the same word loops, so every tier
/// produces bit-identical counts.
enum class SimdTier {
  kScalar = 0,  // no runtime-dispatched wide kernels
  kAvx2 = 1,
  kAvx512 = 2,
};

/// The effective tier: min(cap, what this CPU and build support). The cap
/// initialises once from LCLGRID_SIMD ("0" scalar, "1" AVX2, anything
/// else uncapped); setSimdTier overrides it (tests force the fallback
/// paths with it). Thread-safe, same publication scheme as enabled().
SimdTier simdTier();
void setSimdTier(SimdTier cap);

/// Host capability probes (independent of the cap): true when the build
/// can emit the tier's kernels and the CPU executes them. avx512Available
/// requires the F/BW/VBMI/VPOPCNTDQ subsets the verifier kernels use.
bool avx2Available();
bool avx512Available();

/// Planes needed for labels in [0, sigma): max(1, bit_width(sigma - 1)).
int planeCount(int sigma);

/// Packed words holding one n-bit row: ceil(n / 64).
inline std::size_t wordsPerRow(int n) {
  return (static_cast<std::size_t>(n) + 63) / 64;
}

/// Mask of the valid bits of a row's last word (all-ones when 64 | n).
inline std::uint64_t rowTailMask(int n) {
  const int rem = n % 64;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

/// Transposes one row of n labels into `planes` consecutive plane words
/// (plane-major: plane b occupies words [b*W, (b+1)*W)). Bits >= n of every
/// plane word are zero -- the invariant the shift helpers and kernels rely
/// on. Labels may be any int: the plane bits of a label outside
/// [0, 2^planes) are unspecified. Returns the row's largest label compared
/// as unsigned (a negative label ranks above every alphabet), so a caller
/// learns whether the row lies in [0, sigma) without a second pass.
unsigned transposeRow(const int* labels, int n, int planes,
                      std::uint64_t* out);

/// Inverse of transposeRow: label x = the concatenation of its plane bits.
void untransposeRow(const std::uint64_t* planes, int n, int planeCount,
                    int* labels);

/// dst bit x = src bit (x + 1 mod n): the +x ("east") neighbour's bit
/// stream. src and dst are wordsPerRow(n) words; src bits >= n must be
/// zero, and dst keeps that invariant. dst must not alias src.
void shiftUpCyclic(const std::uint64_t* src, std::uint64_t* dst, int n);

/// dst bit x = src bit (x - 1 mod n): the -x ("west") neighbour's stream.
void shiftDownCyclic(const std::uint64_t* src, std::uint64_t* dst, int n);

/// A sigma x sigma pair predicate compiled to a plane-level boolean
/// network: eval populates out[w] with bit x = P(lo_x, hi_x) for the 64
/// pairs of word w, given the plane-major word buffers of the lo and hi
/// label streams. Sum-of-minterms over the smaller of the allowed /
/// forbidden pair sets; `complement` marks the forbidden-side form.
struct PairNetwork {
  /// One minterm: AND over all planes of (plane XNOR the term's bit), for
  /// the lo and hi streams. xorMask[b] is 0 when the term wants bit b set
  /// and ~0 when it wants it clear, so a literal is one XOR + one AND.
  struct Term {
    std::array<std::uint64_t, 3> loXor{};
    std::array<std::uint64_t, 3> hiXor{};
  };

  int planes = 0;
  bool complement = false;  // terms enumerate the *forbidden* pairs
  /// Shape fast path: the predicate is exactly lo != hi on [0, sigma)^2
  /// (colouring-style constraints), so eval is one XOR + OR per plane
  /// instead of the minterm loop, and a 2D plan whose networks are both
  /// notEqual runs the verifier's byte-lane kernel instead of planes.
  /// terms still hold the generic form.
  bool notEqual = false;
  std::vector<Term> terms;

  /// lo/hi are plane-major (plane b at [b*words, (b+1)*words)). Bits >= n
  /// of the output are garbage; callers mask with rowTailMask.
  void eval(const std::uint64_t* lo, const std::uint64_t* hi,
            std::size_t words, std::uint64_t* out) const;
};

/// Compiles `ok(lo, hi)` over [0, sigma)^2 into a PairNetwork. sigma must
/// lie in [1, 8] (at most 3 planes per side).
PairNetwork compilePairNetwork(int sigma,
                               const std::function<bool(int, int)>& ok);

/// Word-op budget guard: a network with more terms than this is slower
/// than the row-pointer kernel it replaces, so plan synthesis gives up.
inline constexpr int kMaxPairTerms = 24;

/// Automatic-selection floor: below this many nodes the kernel's per-call
/// setup (scratch buffers, row staging) outweighs the word-parallel win
/// and the verifier stays on the row-pointer kernel. The kernels
/// themselves handle any size -- the property tests drive them directly
/// on tiny odd grids through verifier_detail.
inline constexpr long long kMinNodesForBitslice = 256;

/// The 1024-bit validity LUT of the nibble tier, stored in the layout the
/// kernel's inner loop reads: bit w of `byWest[c | n<<2 | e<<4 | s<<6]`
/// is set iff the table allows the tuple with west label w -- one byte
/// extraction per node keys the whole neighbourhood. Built for sigma <= 4
/// so every label fits two bits of a packed lane.
struct NibbleLut {
  std::array<std::uint8_t, 256> byWest{};
};
NibbleLut compileNibbleLut(
    int sigma, const std::function<bool(int c, int n, int e, int s, int w)>& ok);

/// The per-problem plan attached to a compiled LclTable (2D).
struct BitslicePlan {
  enum class Kind {
    kPairPlanes,  // edge-decomposable: h/v pair networks over bit-planes
    kNibbleLut,   // sigma <= 4 fallback: LUT over packed 4-bit labels
  };
  Kind kind = Kind::kPairPlanes;
  int planes = 0;  // bit-planes per label (kPairPlanes only)
  PairNetwork h;   // horizontalOk(west, east)
  PairNetwork v;   // verticalOk(south, north)
  NibbleLut nibble{};
};

/// The per-problem plan attached to a compiled LclTableD (d >= 3; a d = 2
/// table reaches the 2D plan through as2d()). Decomposable-only: one pair
/// network per axis, pairOk(axis, lower, upper).
struct BitslicePlanD {
  int planes = 0;
  std::vector<PairNetwork> axes;
};

}  // namespace bitslice

/// A labelling transposed into bit-planes, row by row: `rows` grid rows
/// (Torus2D) or axis-0 lines (TorusD) of `n` labels each, `planes` planes
/// per row. Storage is row-major, plane-major within a row:
/// word w of plane b of row r lives at [(r * planes + b) * W + w].
class LabelPlanes {
 public:
  LabelPlanes() = default;
  LabelPlanes(int n, long long rows, int planes);

  /// A read-only view of `rows` rows already laid out as above at `words`
  /// (a mapped LCLLABv2 payload): nothing is copied or owned, and setRows
  /// on a view throws.
  static LabelPlanes view(const std::uint64_t* words, int n, long long rows,
                          int planes);

  int n() const { return n_; }
  long long rows() const { return rows_; }
  int planes() const { return planes_; }
  std::size_t wordsPerRow() const { return words_; }

  /// Plane-major word buffer of one row (planes() * wordsPerRow() words).
  std::uint64_t* row(long long r) {
    return const_cast<std::uint64_t*>(std::as_const(*this).row(r));
  }
  const std::uint64_t* row(long long r) const {
    return words_ == 0 ? nullptr
                       : (view_ != nullptr ? view_ : data_.data()) +
                             static_cast<std::size_t>(r) * planes_ * words_;
  }

  /// Transposes rows [rowBegin, rowEnd) of a flat row-major labelling
  /// (labels.size() == rows() * n()) into this buffer and returns the
  /// rows' largest label as unsigned (see transposeRow). Ranges let the
  /// engine shard the transposition across threads.
  unsigned setRows(std::span<const int> labels, long long rowBegin,
                   long long rowEnd);

  /// Inverse transposition of the whole buffer (out.size() == rows()*n()).
  void toLabels(std::span<int> out) const;

 private:
  int n_ = 0;
  long long rows_ = 0;
  int planes_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> data_;
  const std::uint64_t* view_ = nullptr;  // non-null: a view, data_ empty
};

}  // namespace lclgrid
