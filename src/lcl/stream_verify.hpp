// The fourth verifier tier: out-of-core streaming verification of labellings
// read from disk (docs/perf.md). A compact on-disk format holds one torus
// labelling -- a fixed header (magic, sigma, dims, side) followed by every
// axis-0 line as B = ceil(log2 sigma) bit-planes, the LabelPlanes row layout
// (lcl/label_planes.hpp) -- so a memory-mapped file *is* a plane buffer,
// 16x smaller than int32 labels for sigma <= 4. The streaming entry points
// walk the mapping in slabs of axis-0 lines with a rolling window:
//
//  * edge-decomposable problems (vertex colouring included) run the
//    pair-planes kernels on the mapped planes with no copy; every other
//    tier (nibble LUT, row-pointer table, functional) reads an int32 image
//    decoded line by line as the window advances (DecodedLabels), so the
//    in-core slices run unchanged;
//  * a validation frontier runs one wrap window ahead of the kernel, so an
//    out-of-range label (or a set tail bit the plane kernels would read) is
//    discovered before a kernel sees it (falling back to the functional
//    tier, exactly like the in-core engine);
//  * pages behind the window -- mapped and decoded -- are dropped (madvise)
//    as the cursor advances, with the wrap stash -- the first wrap window
//    of lines, needed again by the final lines' cyclic neighbours -- pinned
//    resident;
//
// so a torus with >= 10^9 nodes verifies in one pass with O(lines) resident
// memory and no full-grid allocation. Counts are bit-identical to the
// in-core engine on every tier and lane count: the slabs run the exact
// verifier_detail slices the in-core paths run.
//
// A streaming pass is a VerifyRequest naming a file or a labellingPath
// (lcl/verify_api.hpp); the engine runs each slab serially or shards it
// across its pool (engine/shard_detail.hpp streamPass). This header holds
// the format, the window geometry, the checkpoint record and the slab
// walk.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lcl/grid_lcl_d.hpp"
#include "support/mmap_file.hpp"

namespace lclgrid {

namespace stream_format {

/// "LCLLABv2": 8 magic bytes, then three little-endian uint32 fields
/// (sigma, dims, side) and a reserved zero word; then each of the
/// side^(dims-1) axis-0 lines (axis 1 fastest, the in-core line order) as
/// B = bitslice::planeCount(sigma) planes of bitslice::wordsPerRow(side)
/// little-endian uint64 words: bit x of word w of plane b is bit b of the
/// label at position 64w + x of the line, and the bits past `side` in a
/// plane's last word (the tail bits) are zero. The payload is
/// lines * B * W * 8 bytes.
inline constexpr unsigned char kMagic[8] = {'L', 'C', 'L', 'L',
                                            'A', 'B', 'v', '2'};
inline constexpr std::size_t kHeaderBytes = 24;

}  // namespace stream_format

/// Incremental writer for the on-disk labelling format: feed labels in any
/// chunking (typically one row at a time -- the point is writing a file
/// larger than RAM without a full-grid buffer); partial lines are buffered
/// and whole lines packed into planes. A label outside [0, 2^B) cannot be
/// stored and throws std::invalid_argument (labels in [sigma, 2^B) can: a
/// verifier reports them as out of alphabet); the call then stores none of
/// the labels from the offending line on. close() validates that exactly
/// side^dims labels were written and flushes; the destructor closes
/// without the completeness check (so an abandoned writer cannot throw).
class StreamLabellingWriter {
 public:
  StreamLabellingWriter(const std::string& path, int sigma, int dims, int n);
  ~StreamLabellingWriter();
  StreamLabellingWriter(const StreamLabellingWriter&) = delete;
  StreamLabellingWriter& operator=(const StreamLabellingWriter&) = delete;

  void appendLabels(std::span<const int> labels);
  void close();
  /// Labels accepted so far: the stored lines' and the partial line's.
  long long written() const {
    return written_ + static_cast<long long>(pending_.size());
  }

 private:
  /// Packs one line into `out`; throws std::invalid_argument on a label
  /// outside [0, 2^planes_).
  void packLine(const int* labels, std::uint64_t* out) const;
  /// Writes the first `lines` packed lines of staged_.
  void flushLines(std::size_t lines);

  std::string path_;
  void* file_ = nullptr;  // std::FILE*, kept out of the header
  int n_ = 0;
  int planes_ = 0;
  std::size_t lineWords_ = 0;
  long long expected_ = 0;
  long long written_ = 0;               // labels of the stored lines
  std::vector<int> pending_;            // a partial line's labels
  std::vector<std::uint64_t> staged_;   // packed lines awaiting fwrite
  bool closed_ = false;
};

/// One-call writer for in-memory labellings (tests, small benches).
void writeLabellingFile(const std::string& path, int sigma, int dims, int n,
                        std::span<const int> labels);

/// A labelling memory-mapped from the on-disk format. Construction
/// validates the header and the payload size in O(1) (std::runtime_error,
/// naming LCLLABv2, on any other magic; std::runtime_error on malformed
/// fields or a truncated payload); the payload's tail bits and labels are
/// checked by the streaming frontier, not here.
class StreamLabelling {
 public:
  explicit StreamLabelling(const std::string& path);

  int sigma() const { return sigma_; }
  int dims() const { return dims_; }
  int n() const { return n_; }
  /// Total nodes: n()^dims().
  long long size() const { return size_; }
  /// Axis-0 lines (2D grid rows / TorusD lines): size() / n().
  long long lines() const { return size_ / n_; }
  /// Bit-planes per line: bitslice::planeCount(sigma()).
  int planes() const { return planes_; }
  /// The mapped planes of line `line` (planes() * wordsPerRow(n()) words,
  /// the LabelPlanes row layout).
  const std::uint64_t* line(long long line) const;

  /// True iff lines [lineBegin, lineEnd) can be read in place by the plane
  /// kernels: every tail bit is zero and every label is below sigma()
  /// (checked on the planes when sigma() is not a power of two).
  bool linesClean(long long lineBegin, long long lineEnd) const;
  /// False iff linesClean has nothing to check (64 | n and sigma = 2^B,
  /// e.g. vertex 4-colouring on a 9216-torus): every line is clean.
  bool linesChecked() const {
    return n_ % 64 != 0 || (1LL << planes_) != sigma_;
  }

  /// Decodes lines [lineBegin, lineEnd) into (lineEnd - lineBegin) * n()
  /// int32 labels at `out`, ignoring tail bits.
  void decodeLines(long long lineBegin, long long lineEnd, int* out) const;

  /// Drops the resident pages of payload lines [lineBegin, lineEnd) --
  /// advisory (MmapFile::dropRange); the streaming pass calls this behind
  /// its cursor.
  void dropRows(long long lineBegin, long long lineEnd) const;

  /// Content fingerprint for checkpoint binding: FNV-1a over the header
  /// fields, the payload size, and the first/last 4 KiB of the packed
  /// payload. Deliberately O(1) in the file size -- a resumable pass must
  /// not re-read a multi-GiB payload just to identify it -- so it detects a
  /// swapped or re-generated file, not a single flipped label in the
  /// middle.
  std::uint64_t fingerprint() const;

 private:
  support::MmapFile file_;
  int sigma_ = 0;
  int dims_ = 0;
  int n_ = 0;
  int planes_ = 0;
  long long size_ = 0;
};

/// Slab geometry of a streaming pass. rows == 0 picks the slab
/// resolveWindowRows sizes as ~8 MiB of int32 labels (at least one row;
/// 0.5 MiB of LCLLABv2 planes for sigma <= 4). Lines behind the cursor are
/// always dropped (madvise), so the resident set stays near one slab.
struct StreamWindow {
  long long rows = 0;
  /// Crash-safe resume (count passes only -- verify early-exits and is
  /// cheap to rerun): when non-empty, the pass maintains a sidecar
  /// checkpoint file at this path, written atomically (tmp + fsync +
  /// rename) after every slab and removed on completion. A pass finding
  /// a checkpoint whose labelling and problem fingerprints match resumes
  /// from the recorded cursor; counts are bit-identical to an
  /// uninterrupted run because totals are exact int64 sums over disjoint
  /// row ranges (docs/robustness.md).
  std::string checkpointPath = {};
};

/// The sidecar checkpoint record of a resumable streaming count pass
/// ("LCLCKPv1", 64 bytes, docs/robustness.md). Exposed for tests and
/// recovery tooling; the pass reads and writes it internally.
struct StreamCheckpoint {
  /// False: the table-tier walk (frontier meaningful). True: the
  /// functional fallback walk (a restart after an out-of-range label).
  bool functionalPhase = false;
  std::uint64_t labellingFingerprint = 0;
  std::uint64_t problemFingerprint = 0;
  /// First row the resumed pass still has to process.
  long long nextRow = 0;
  /// Validation frontier (table phase): rows [0, frontier) are in-range.
  /// A resumed pass re-admits from nextRow - wrap window instead (the
  /// decoded lines of the killed pass are gone), so this is a record only.
  long long frontier = 0;
  /// Violations accumulated over rows [0, nextRow).
  std::int64_t total = 0;
};

/// Writes `checkpoint` durably (tmp file, fsync, rename). Returns false --
/// without throwing -- when the write fails: a checkpoint is an
/// optimisation, and a pass that cannot checkpoint degrades to a plain
/// uninterruptible pass rather than failing verification.
bool writeStreamCheckpoint(const std::string& path,
                           const StreamCheckpoint& checkpoint);

/// Loads a checkpoint; nullopt when the file is absent, truncated, has a
/// bad magic/version or fails its checksum. Fingerprint matching is the
/// caller's decision.
std::optional<StreamCheckpoint> loadStreamCheckpoint(const std::string& path);

/// Removes a checkpoint file (best-effort; absent is fine).
void removeStreamCheckpoint(const std::string& path);

/// The slab-walking machinery behind the engine's streaming pass. Not
/// stable API.
namespace stream_verify_detail {

/// Rows per slab: the explicit request, else ~8 MiB of int32 labels (the
/// decoded image's share of a slab), clamped to [1, lines].
long long resolveWindowRows(int n, long long lines, long long requested);

/// The wrap window: rows pinned resident at the front of the payload (the
/// final rows' cyclic neighbours), and the lookahead the validation
/// frontier keeps ahead of the kernel. 1 row for dims <= 2; n^(dims-2)
/// rows (one outermost-axis block) for d >= 3, where the farthest
/// neighbour line of the table kernel lives.
long long wrapWindowRows(int dims, int n);

/// The int32 image of a mapped labelling that the non-plane tiers read:
/// an anonymous mapping of size() labels (support::MmapFile::anonymous),
/// so the in-core slices index it unchanged, of which only the lines the
/// pass decoded and has not dropped are resident.
class DecodedLabels {
 public:
  explicit DecodedLabels(const StreamLabelling& file) : file_(&file) {}

  /// Reserves the image (once; call before sharding decode()).
  void reserve();
  /// Decodes lines [lineBegin, lineEnd) into the image (reserve() first);
  /// true iff every label decoded lies in [0, sigma). Disjoint ranges may
  /// decode concurrently.
  bool decode(long long lineBegin, long long lineEnd) const;
  /// The whole image (reserve() first).
  std::span<const int> all() const;
  /// Drops the resident pages of lines [lineBegin, lineEnd); they read
  /// back as zeros, so the pass drops only lines no slab reads again.
  void dropRows(long long lineBegin, long long lineEnd) const;

 private:
  const StreamLabelling* file_;
  support::MmapFile image_;
};

/// One streaming pass, parameterised over how a slab executes (the engine
/// runs the verifier_detail slices inline or through its pool).
/// tablePath == false skips validation and runs functionalRows only; an
/// out-of-range row on the table path restarts the whole pass on
/// functionalRows, mirroring the in-core fallback.
struct StreamPass {
  const StreamLabelling* file = nullptr;
  long long window = 1;
  long long wrapKeep = 1;
  bool tablePath = false;
  /// Makes rows [rowBegin, rowEnd) readable by the next phase's slices
  /// (decoding them when that phase reads int32 labels). With `check` (the
  /// table phase: the validation frontier) it returns true iff the rows
  /// are fit for kernelRows -- labels in [0, sigma), and zero tail bits
  /// for the plane kernels; without it (the functional phase) it returns
  /// true.
  std::function<bool(long long rowBegin, long long rowEnd, bool check)>
      admitRows;
  /// Table/bit-sliced violations of rows [rowBegin, rowEnd).
  std::function<std::int64_t(long long rowBegin, long long rowEnd,
                             bool stopAtFirst)>
      kernelRows;
  /// Functional violations of rows [rowBegin, rowEnd).
  std::function<std::int64_t(long long rowBegin, long long rowEnd,
                             bool stopAtFirst)>
      functionalRows;
  /// The decoded image admitRows fills, if any: dropped behind the cursor
  /// together with the mapped lines.
  const DecodedLabels* decoded = nullptr;
  /// Crash-safe resume (StreamWindow::checkpointPath): count passes load a
  /// fingerprint-matching checkpoint at entry, write one after every slab,
  /// and remove it on completion. Ignored for stopAtFirst passes.
  std::string checkpointPath;
  std::uint64_t labellingFingerprint = 0;
  std::uint64_t problemFingerprint = 0;
};

/// Copies a window's checkpoint configuration onto a pass, binding the
/// labelling fingerprint (computed only when checkpointing is on) and the
/// problem fingerprint.
void applyCheckpointConfig(StreamPass& pass, const StreamLabelling& file,
                           const StreamWindow& window,
                           std::uint64_t problemFingerprint);

std::int64_t runStreamPass(const StreamPass& pass, bool stopAtFirst);

/// Request validation: the file's dims and sigma must match the problem's
/// (std::invalid_argument otherwise). A 2D problem arrives as its d = 2
/// form.
void checkStreamD(const StreamLabelling& file, const GridLclD& lcl);

}  // namespace stream_verify_detail

}  // namespace lclgrid
