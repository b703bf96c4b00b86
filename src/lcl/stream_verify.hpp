// The fourth verifier tier: out-of-core streaming verification of labellings
// read from disk (docs/perf.md). A compact on-disk format holds one torus
// labelling -- a fixed header (magic, sigma, dims, side) followed by the
// row-major int32 label payload, byte-identical to the in-core layout -- so
// a memory-mapped file *is* a label buffer and the existing row/line kernels
// run on it zero-copy. The streaming entry points walk the mapping in slabs
// of axis-0 rows with a rolling window:
//
//  * the kernel reads rows [slab - 1, slab + 1] (2D) or the neighbour-line
//    window of the outer axes (d >= 3);
//  * a validation frontier runs one wrap window ahead of the kernel, so an
//    out-of-range label is discovered before it can index a table row
//    (falling back to the functional tier, exactly like the in-core engine);
//  * pages behind the window are dropped (madvise) as the cursor advances,
//    with the wrap stash -- the first wrap window of rows, needed again by
//    the final rows' cyclic neighbours -- pinned resident;
//
// so a torus with >= 10^9 nodes verifies in one pass with O(rows) resident
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

#include "lcl/grid_lcl_d.hpp"
#include "support/mmap_file.hpp"

namespace lclgrid {

namespace stream_format {

/// "LCLLABv1": 8 magic bytes, then three little-endian uint32 fields
/// (sigma, dims, side) and a reserved zero word, then size() int32
/// little-endian labels, row-major with axis 0 fastest -- the in-core
/// layout of Torus2D (dims = 2) and TorusD labellings.
inline constexpr unsigned char kMagic[8] = {'L', 'C', 'L', 'L',
                                            'A', 'B', 'v', '1'};
inline constexpr std::size_t kHeaderBytes = 24;

}  // namespace stream_format

/// Incremental writer for the on-disk labelling format: feed labels in any
/// chunking (typically one row at a time -- the point is writing a file
/// larger than RAM without a full-grid buffer). close() validates that
/// exactly side^dims labels were written and flushes; the destructor closes
/// without the completeness check (so an abandoned writer cannot throw).
class StreamLabellingWriter {
 public:
  StreamLabellingWriter(const std::string& path, int sigma, int dims, int n);
  ~StreamLabellingWriter();
  StreamLabellingWriter(const StreamLabellingWriter&) = delete;
  StreamLabellingWriter& operator=(const StreamLabellingWriter&) = delete;

  void appendLabels(std::span<const int> labels);
  void close();
  long long written() const { return written_; }

 private:
  std::string path_;
  void* file_ = nullptr;  // std::FILE*, kept out of the header
  long long expected_ = 0;
  long long written_ = 0;
  bool closed_ = false;
};

/// One-call writer for in-memory labellings (tests, small benches).
void writeLabellingFile(const std::string& path, int sigma, int dims, int n,
                        std::span<const int> labels);

/// A labelling memory-mapped from the on-disk format. Construction
/// validates the header and the payload size (std::runtime_error on bad
/// magic / malformed fields / truncated payload); labels() is the mapped
/// int32 payload, directly consumable by the in-core kernels.
class StreamLabelling {
 public:
  explicit StreamLabelling(const std::string& path);

  int sigma() const { return sigma_; }
  int dims() const { return dims_; }
  int n() const { return n_; }
  /// Total nodes: n()^dims().
  long long size() const { return size_; }
  /// Axis-0 rows (2D grid rows / TorusD lines): size() / n().
  long long lines() const { return size_ / n_; }
  const int* labels() const;

  /// Drops the resident pages of payload rows [rowBegin, rowEnd) --
  /// advisory (MmapFile::dropRange); the streaming pass calls this behind
  /// its cursor.
  void dropRows(long long rowBegin, long long rowEnd) const;

  /// Content fingerprint for checkpoint binding: FNV-1a over the header
  /// fields, the payload size, and the first/last 4 KiB of the payload.
  /// Deliberately O(1) in the file size -- a resumable pass must not
  /// re-read a multi-GiB payload just to identify it -- so it detects a
  /// swapped or re-generated file, not a single flipped label in the
  /// middle.
  std::uint64_t fingerprint() const;

 private:
  support::MmapFile file_;
  int sigma_ = 0;
  int dims_ = 0;
  int n_ = 0;
  long long size_ = 0;
};

/// Slab geometry of a streaming pass. rows == 0 picks a slab of ~8 MiB of
/// payload (at least one row); dropBehind toggles the madvise reclamation
/// (off: the page cache decides, resident set may grow to the file size).
struct StreamWindow {
  long long rows = 0;
  bool dropBehind = true;
  /// Crash-safe resume (count passes only -- verify early-exits and is
  /// cheap to rerun): when non-empty, the pass maintains a sidecar
  /// checkpoint file at this path, written atomically (tmp + fsync +
  /// rename) at slab boundaries and removed on completion. A pass finding
  /// a checkpoint whose labelling and problem fingerprints match resumes
  /// from the recorded cursor; counts are bit-identical to an
  /// uninterrupted run because totals are exact int64 sums over disjoint
  /// row ranges (docs/robustness.md).
  std::string checkpointPath = {};
  /// Checkpoint cadence: write every this many slabs (>= 1).
  long long checkpointEverySlabs = 1;
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

/// Rows per slab: the explicit request, else ~8 MiB of payload, clamped to
/// [1, lines].
long long resolveWindowRows(int n, long long lines, long long requested);

/// The wrap window: rows pinned resident at the front of the payload (the
/// final rows' cyclic neighbours), and the lookahead the validation
/// frontier keeps ahead of the kernel. 1 row for dims <= 2; n^(dims-2)
/// rows (one outermost-axis block) for d >= 3, where the farthest
/// neighbour line of the table kernel lives.
long long wrapWindowRows(int dims, int n);

/// One streaming pass, parameterised over how a slab executes (the engine
/// runs the verifier_detail slices inline or through its pool).
/// tablePath == false skips validation and runs functionalRows only; an
/// out-of-range row on the table path restarts the whole pass on
/// functionalRows, mirroring the in-core fallback.
struct StreamPass {
  const StreamLabelling* file = nullptr;
  long long window = 1;
  long long wrapKeep = 1;
  bool dropBehind = true;
  bool tablePath = false;
  /// True iff every label of rows [rowBegin, rowEnd) is in [0, sigma).
  std::function<bool(long long rowBegin, long long rowEnd)> rowsInRange;
  /// Table/bit-sliced violations of rows [rowBegin, rowEnd).
  std::function<std::int64_t(long long rowBegin, long long rowEnd,
                             bool stopAtFirst)>
      kernelRows;
  /// Functional violations of rows [rowBegin, rowEnd).
  std::function<std::int64_t(long long rowBegin, long long rowEnd,
                             bool stopAtFirst)>
      functionalRows;
  /// Crash-safe resume (StreamWindow::checkpointPath): count passes load a
  /// fingerprint-matching checkpoint at entry, write one every
  /// checkpointEverySlabs slabs, and remove it on completion. Ignored for
  /// stopAtFirst passes.
  std::string checkpointPath;
  long long checkpointEverySlabs = 1;
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

/// Kernel tier of a streaming table path (the same at every lane count).
/// d = 2 mirrors the in-core selection (verifier_detail::bitsliceSelectedD:
/// the delegated 2D rolling kernel, which streams fine); d >= 3 stays on
/// the row-pointer kernel -- the staged d >= 3 bit-sliced path needs the
/// whole labelling transposed into plane buffers, which is exactly the
/// full-grid allocation streaming exists to avoid.
bool streamUsesBitsliceD(const StreamLabelling& file, const GridLclD& lcl);

/// Request validation: the file's dims and sigma must match the problem's
/// (std::invalid_argument otherwise). A 2D problem arrives as its d = 2
/// form.
void checkStreamD(const StreamLabelling& file, const GridLclD& lcl);

}  // namespace stream_verify_detail

}  // namespace lclgrid
