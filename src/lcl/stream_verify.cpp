// The streaming out-of-core verifier's library half (lcl/stream_verify.hpp):
// the on-disk format (writer + memory-mapped reader) and the slab-walking
// pass the engine drives. The kernels themselves are the verifier_detail
// slices of the in-core engine, run zero-copy on the mapped payload, so
// counts are bit-identical by construction.
#include "lcl/stream_verify.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "lcl/verifier.hpp"
#include "lcl/verify_probes.hpp"
#include "support/faultpoint.hpp"
#include "support/timing.hpp"

#if __has_include(<unistd.h>)
#include <unistd.h>
#define LCLGRID_HAVE_FSYNC 1
#endif

namespace lclgrid {

// The payload is consumed in place as int32 labels.
static_assert(sizeof(int) == 4, "labelling files assume 32-bit int");

namespace {

using stream_format::kHeaderBytes;
using stream_format::kMagic;

std::FILE* asFile(void* file) { return static_cast<std::FILE*>(file); }

void put32le(unsigned char* out, std::uint32_t value) {
  out[0] = static_cast<unsigned char>(value & 0xff);
  out[1] = static_cast<unsigned char>((value >> 8) & 0xff);
  out[2] = static_cast<unsigned char>((value >> 16) & 0xff);
  out[3] = static_cast<unsigned char>((value >> 24) & 0xff);
}

std::uint32_t get32le(const std::byte* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

void put64le(unsigned char* out, std::uint64_t value) {
  put32le(out, static_cast<std::uint32_t>(value & 0xffffffffu));
  put32le(out + 4, static_cast<std::uint32_t>(value >> 32));
}

std::uint64_t get64le(const unsigned char* in) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | in[i];
  return value;
}

/// n^dims with an overflow guard (the node count must also leave room for
/// the 4x byte size of the payload).
long long nodeCount(int n, int dims) {
  constexpr long long kMaxNodes = std::numeric_limits<long long>::max() / 8;
  long long nodes = 1;
  for (int axis = 0; axis < dims; ++axis) {
    if (nodes > kMaxNodes / n) {
      throw std::runtime_error("labelling file: node count overflows");
    }
    nodes *= n;
  }
  return nodes;
}

void checkHeaderFields(int sigma, int dims, int n) {
  if (sigma < 1 || dims < 1 || n < 1) {
    throw std::runtime_error(
        "labelling file: bad header field (sigma, dims and side must be "
        "positive)");
  }
}

}  // namespace

// --- writer ----------------------------------------------------------------

StreamLabellingWriter::StreamLabellingWriter(const std::string& path,
                                             int sigma, int dims, int n)
    : path_(path) {
  if (sigma < 1 || dims < 1 || n < 1) {
    throw std::invalid_argument(
        "StreamLabellingWriter: sigma, dims and side must be positive");
  }
  expected_ = nodeCount(n, dims);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("StreamLabellingWriter: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  unsigned char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  put32le(header + 8, static_cast<std::uint32_t>(sigma));
  put32le(header + 12, static_cast<std::uint32_t>(dims));
  put32le(header + 16, static_cast<std::uint32_t>(n));
  put32le(header + 20, 0);  // reserved
  if (std::fwrite(header, 1, kHeaderBytes, file) != kHeaderBytes) {
    std::fclose(file);
    throw std::runtime_error("StreamLabellingWriter: header write failed '" +
                             path + "'");
  }
  file_ = file;
}

StreamLabellingWriter::~StreamLabellingWriter() {
  if (!closed_ && file_ != nullptr) std::fclose(asFile(file_));
}

void StreamLabellingWriter::appendLabels(std::span<const int> labels) {
  if (closed_ || file_ == nullptr) {
    throw std::logic_error("StreamLabellingWriter: writer is closed");
  }
  if (written_ + static_cast<long long>(labels.size()) > expected_) {
    throw std::runtime_error(
        "StreamLabellingWriter: more labels than side^dims '" + path_ + "'");
  }
  {
    // Injected disk failure: a short write counts the clamped prefix as
    // stored (the real partial-fwrite shape) and both fail typed.
    namespace fp = support::faultpoint;
    const auto fault = FAULT_POINT("stream.writer_append");
    if (fault.action == fp::Action::kErrno ||
        fault.action == fp::Action::kShort) {
      if (fault.action == fp::Action::kShort) {
        const auto clamp = std::min<long long>(
            fault.arg / static_cast<long long>(sizeof(int)),
            static_cast<long long>(labels.size()));
        written_ += clamp;
      }
      throw std::runtime_error(
          "StreamLabellingWriter: write failed '" + path_ + "': " +
          std::strerror(fault.action == fp::Action::kErrno ? fault.errnoValue
                                                           : ENOSPC));
    }
  }
  std::size_t stored;
  if constexpr (std::endian::native == std::endian::little) {
    stored = std::fwrite(labels.data(), sizeof(int), labels.size(),
                         asFile(file_));
  } else {
    stored = 0;
    unsigned char bytes[4];
    for (int label : labels) {
      put32le(bytes, static_cast<std::uint32_t>(label));
      if (std::fwrite(bytes, 1, 4, asFile(file_)) != 4) break;
      ++stored;
    }
  }
  written_ += static_cast<long long>(stored);
  if (stored != labels.size()) {
    throw std::runtime_error("StreamLabellingWriter: write failed '" + path_ +
                             "': " + std::strerror(errno));
  }
}

void StreamLabellingWriter::close() {
  if (closed_) return;
  closed_ = true;
  std::FILE* file = asFile(file_);
  file_ = nullptr;
  if (written_ != expected_) {
    if (file != nullptr) std::fclose(file);
    throw std::runtime_error(
        "StreamLabellingWriter: wrote " + std::to_string(written_) +
        " labels, expected " + std::to_string(expected_) + " '" + path_ + "'");
  }
  if (file == nullptr || std::fclose(file) != 0) {
    throw std::runtime_error("StreamLabellingWriter: close failed '" + path_ +
                             "'");
  }
}

void writeLabellingFile(const std::string& path, int sigma, int dims, int n,
                        std::span<const int> labels) {
  StreamLabellingWriter writer(path, sigma, dims, n);
  writer.appendLabels(labels);
  writer.close();
}

// --- reader ----------------------------------------------------------------

StreamLabelling::StreamLabelling(const std::string& path) : file_(path) {
  if constexpr (std::endian::native != std::endian::little) {
    throw std::runtime_error(
        "StreamLabelling: big-endian hosts are not supported (the payload "
        "is consumed in place as little-endian int32)");
  }
  if (file_.size() < kHeaderBytes) {
    throw std::runtime_error("labelling file: truncated header '" + path +
                             "'");
  }
  if (std::memcmp(file_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("labelling file: bad magic '" + path + "'");
  }
  const std::byte* header = file_.data();
  const std::uint32_t sigma = get32le(header + 8);
  const std::uint32_t dims = get32le(header + 12);
  const std::uint32_t n = get32le(header + 16);
  const std::uint32_t reserved = get32le(header + 20);
  constexpr std::uint32_t kMaxField =
      static_cast<std::uint32_t>(std::numeric_limits<int>::max());
  if (sigma > kMaxField || dims > kMaxField || n > kMaxField ||
      reserved != 0) {
    throw std::runtime_error("labelling file: bad header field '" + path +
                             "'");
  }
  sigma_ = static_cast<int>(sigma);
  dims_ = static_cast<int>(dims);
  n_ = static_cast<int>(n);
  checkHeaderFields(sigma_, dims_, n_);
  size_ = nodeCount(n_, dims_);
  const std::size_t expectedBytes =
      kHeaderBytes + static_cast<std::size_t>(size_) * sizeof(int);
  if (file_.size() != expectedBytes) {
    throw std::runtime_error(
        "labelling file: payload size mismatch (truncated or trailing "
        "bytes) '" + path + "'");
  }
}

const int* StreamLabelling::labels() const {
  return reinterpret_cast<const int*>(file_.data() + kHeaderBytes);
}

void StreamLabelling::dropRows(long long rowBegin, long long rowEnd) const {
  if (rowEnd <= rowBegin) return;
  const std::size_t rowBytes = static_cast<std::size_t>(n_) * sizeof(int);
  file_.dropRange(kHeaderBytes + static_cast<std::size_t>(rowBegin) * rowBytes,
                  static_cast<std::size_t>(rowEnd - rowBegin) * rowBytes);
}

std::uint64_t StreamLabelling::fingerprint() const {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash = kOffset;
  auto mixByte = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= kPrime;
  };
  auto mix64 = [&mixByte](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) mixByte((value >> (8 * i)) & 0xff);
  };
  mix64(static_cast<std::uint64_t>(sigma_));
  mix64(static_cast<std::uint64_t>(dims_));
  mix64(static_cast<std::uint64_t>(n_));
  mix64(static_cast<std::uint64_t>(size_));
  const std::byte* payload = file_.data() + kHeaderBytes;
  const std::size_t bytes = file_.size() - kHeaderBytes;
  const std::size_t sample = std::min<std::size_t>(4096, bytes);
  for (std::size_t i = 0; i < sample; ++i) {
    mixByte(static_cast<unsigned char>(payload[i]));
  }
  for (std::size_t i = bytes - sample; i < bytes; ++i) {
    mixByte(static_cast<unsigned char>(payload[i]));
  }
  return hash;
}

// --- checkpoints ------------------------------------------------------------

namespace {

/// "LCLCKPv1": 8 magic bytes, u32 flags (bit 0 = functional phase), u32
/// reserved, the labelling and problem fingerprints, nextRow / frontier /
/// total as int64, and an FNV-1a checksum of the preceding 56 bytes.
constexpr unsigned char kCheckpointMagic[8] = {'L', 'C', 'L', 'C',
                                               'K', 'P', 'v', '1'};
constexpr std::size_t kCheckpointBytes = 64;

std::uint64_t checkpointChecksum(const unsigned char* buffer) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < kCheckpointBytes - 8; ++i) {
    hash ^= buffer[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

bool writeStreamCheckpoint(const std::string& path,
                           const StreamCheckpoint& checkpoint) {
  namespace fp = support::faultpoint;
  const auto fault = FAULT_POINT("stream.checkpoint_write");
  if (fault.action == fp::Action::kErrno) {
    errno = fault.errnoValue;
    return false;
  }
  if (fault.action == fp::Action::kDrop) return false;

  unsigned char buffer[kCheckpointBytes];
  std::memcpy(buffer, kCheckpointMagic, sizeof(kCheckpointMagic));
  put32le(buffer + 8, checkpoint.functionalPhase ? 1u : 0u);
  put32le(buffer + 12, 0);  // reserved
  put64le(buffer + 16, checkpoint.labellingFingerprint);
  put64le(buffer + 24, checkpoint.problemFingerprint);
  put64le(buffer + 32, static_cast<std::uint64_t>(checkpoint.nextRow));
  put64le(buffer + 40, static_cast<std::uint64_t>(checkpoint.frontier));
  put64le(buffer + 48, static_cast<std::uint64_t>(checkpoint.total));
  put64le(buffer + 56, checkpointChecksum(buffer));

  // tmp + fsync + rename: a crash leaves either the previous checkpoint or
  // the new one, never a torn record.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = std::fwrite(buffer, 1, kCheckpointBytes, file) ==
                kCheckpointBytes &&
            std::fflush(file) == 0;
#ifdef LCLGRID_HAVE_FSYNC
  if (ok) ok = ::fsync(::fileno(file)) == 0;
#endif
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<StreamCheckpoint> loadStreamCheckpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  unsigned char buffer[kCheckpointBytes];
  const std::size_t got = std::fread(buffer, 1, kCheckpointBytes, file);
  std::fclose(file);
  if (got != kCheckpointBytes) return std::nullopt;
  if (std::memcmp(buffer, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return std::nullopt;
  }
  if (get64le(buffer + 56) != checkpointChecksum(buffer)) return std::nullopt;
  const std::uint32_t flags = get32le(reinterpret_cast<std::byte*>(buffer) + 8);
  StreamCheckpoint checkpoint;
  checkpoint.functionalPhase = (flags & 1u) != 0;
  checkpoint.labellingFingerprint = get64le(buffer + 16);
  checkpoint.problemFingerprint = get64le(buffer + 24);
  checkpoint.nextRow = static_cast<long long>(get64le(buffer + 32));
  checkpoint.frontier = static_cast<long long>(get64le(buffer + 40));
  checkpoint.total = static_cast<std::int64_t>(get64le(buffer + 48));
  if (checkpoint.nextRow < 0 || checkpoint.frontier < 0) return std::nullopt;
  return checkpoint;
}

void removeStreamCheckpoint(const std::string& path) {
  std::remove(path.c_str());
}

// --- slab machinery --------------------------------------------------------

namespace stream_verify_detail {

long long resolveWindowRows(int n, long long lines, long long requested) {
  if (requested > 0) return std::min(requested, lines);
  constexpr long long kTargetBytes = 8LL << 20;
  const long long rowBytes = static_cast<long long>(n) * sizeof(int);
  return std::clamp(kTargetBytes / rowBytes, 1LL, lines);
}

long long wrapWindowRows(int dims, int n) {
  long long rows = 1;
  for (int axis = 2; axis < dims; ++axis) rows *= n;
  return rows;
}

bool streamUsesBitsliceD(const StreamLabelling& file, const GridLclD& lcl) {
  return lcl.hasTable() && lcl.dims() == 2 &&
         verifier_detail::bitsliceSelectedD(lcl, file.size());
}

void checkStreamD(const StreamLabelling& file, const GridLclD& lcl) {
  if (file.dims() != lcl.dims()) {
    throw std::invalid_argument(
        "stream verify: file dims " + std::to_string(file.dims()) +
        " does not match problem dims " + std::to_string(lcl.dims()));
  }
  if (file.sigma() != lcl.sigma()) {
    throw std::invalid_argument(
        "stream verify: file sigma " + std::to_string(file.sigma()) +
        " does not match problem sigma " + std::to_string(lcl.sigma()));
  }
}

void applyCheckpointConfig(StreamPass& pass, const StreamLabelling& file,
                           const StreamWindow& window,
                           std::uint64_t problemFingerprint) {
  if (window.checkpointPath.empty()) return;
  pass.checkpointPath = window.checkpointPath;
  pass.checkpointEverySlabs = std::max(1LL, window.checkpointEverySlabs);
  pass.labellingFingerprint = file.fingerprint();
  pass.problemFingerprint = problemFingerprint;
}

namespace {

/// Writes one checkpoint record for the pass; failures degrade to "no
/// checkpoint" (counted, never fatal). The stream.checkpoint fault point
/// fires only after a durable write, so abort@nth=K in a crash test kills
/// the pass with exactly K checkpoints on disk.
void checkpointSlab(const StreamPass& pass, bool functionalPhase,
                    long long nextRow, long long frontier,
                    std::int64_t total) {
  static const telemetry::Counter written =
      telemetry::counter("stream.checkpoints");
  static const telemetry::Counter failed =
      telemetry::counter("stream.checkpoint_failures");
  StreamCheckpoint checkpoint;
  checkpoint.functionalPhase = functionalPhase;
  checkpoint.labellingFingerprint = pass.labellingFingerprint;
  checkpoint.problemFingerprint = pass.problemFingerprint;
  checkpoint.nextRow = nextRow;
  checkpoint.frontier = frontier;
  checkpoint.total = total;
  if (writeStreamCheckpoint(pass.checkpointPath, checkpoint)) {
    written.increment();
    (void)FAULT_POINT("stream.checkpoint");
  } else {
    failed.increment();
  }
}

}  // namespace

std::int64_t runStreamPass(const StreamPass& pass, bool stopAtFirst) {
  const StreamLabelling& file = *pass.file;
  const long long lines = file.lines();
  bool table = pass.tablePath;
  // Checkpointing covers count passes only: verify early-exits, is cheap
  // to rerun, and its "first violation" short-circuit would make resumed
  // totals meaningless.
  const bool checkpointing = !stopAtFirst && !pass.checkpointPath.empty();
  // Streaming-tier attribution and the bounded-memory gauges: one call per
  // pass, slabs and dropped rows as they stream by, and the process RSS
  // high-water after the pass (the docs/perf.md bounded-window claim in
  // gauge form).
  verify_probes::recordCall(verify_probes::Tier::kStream, file.size());
  telemetry::ScopedSpan passSpan(
      verify_probes::spanName(verify_probes::Tier::kStream));
  static const telemetry::Counter slabCounter =
      telemetry::counter("stream.slabs");
  static const telemetry::Counter droppedRows =
      telemetry::counter("stream.rows_dropped");
  static const telemetry::Counter resumeCounter =
      telemetry::counter("stream.resumes");
  static const telemetry::Gauge rssGauge =
      telemetry::gauge("stream.peak_rss_kb");
  struct RssAtExit {
    const telemetry::Gauge& gauge;
    ~RssAtExit() { gauge.max(support::peakRssKb()); }
  } rssAtExit{rssGauge};

  // Resume: a fingerprint-matching checkpoint restores the cursor, the
  // validation frontier and the running total. Bit-identity needs no slab
  // alignment -- totals are exact int64 sums over disjoint row ranges, so
  // any partition of [0, lines) yields the identical count.
  long long startRow = 0;
  long long startFrontier = 0;
  std::int64_t startTotal = 0;
  bool resumeFunctional = false;
  if (checkpointing) {
    if (const auto loaded = loadStreamCheckpoint(pass.checkpointPath)) {
      if (loaded->labellingFingerprint == pass.labellingFingerprint &&
          loaded->problemFingerprint == pass.problemFingerprint &&
          loaded->nextRow <= lines && loaded->frontier <= lines &&
          (loaded->functionalPhase || table)) {
        startRow = loaded->nextRow;
        startFrontier = loaded->frontier;
        startTotal = loaded->total;
        resumeFunctional = loaded->functionalPhase;
        resumeCounter.increment();
      }
    }
  }

  std::int64_t total = 0;
  if (table && !resumeFunctional) {
    // The wrap stash is read by the first slab's cyclic neighbours before
    // the validation cursor reaches it, so it is validated up front (a
    // resumed pass revalidates it -- cheap, and robust to a file swapped
    // underneath the checkpoint).
    const long long tailBegin = std::max(0LL, lines - pass.wrapKeep);
    if (!pass.rowsInRange(tailBegin, lines)) table = false;
  }
  if (table && !resumeFunctional) {
    // Rows [0, frontier) -- plus the wrap stash above -- are known
    // in-range; the frontier stays one wrap window ahead of the kernel so
    // no table row is ever indexed by an unvalidated label.
    long long frontier = startFrontier;
    // Rows [0, wrapKeep) stay pinned.
    long long dropCursor = std::max(pass.wrapKeep, startRow);
    long long slabsSinceCheckpoint = 0;
    total = startTotal;
    for (long long begin = startRow; begin < lines; begin += pass.window) {
      const long long end = std::min(lines, begin + pass.window);
      const long long need = std::min(lines, end + pass.wrapKeep);
      if (frontier < need) {
        if (!pass.rowsInRange(frontier, need)) {
          table = false;
          break;
        }
        frontier = need;
      }
      {
        slabCounter.increment();
        telemetry::ScopedSpan slabSpan("stream/slab");
        (void)FAULT_POINT("stream.slab");
        total += pass.kernelRows(begin, end, stopAtFirst);
      }
      if (stopAtFirst && total > 0) return total;
      if (pass.dropBehind) {
        const long long dropEnd = end - pass.wrapKeep;
        if (dropEnd > dropCursor) {
          file.dropRows(dropCursor, dropEnd);
          droppedRows.add(dropEnd - dropCursor);
          dropCursor = dropEnd;
        }
      }
      if (checkpointing && ++slabsSinceCheckpoint >= pass.checkpointEverySlabs) {
        slabsSinceCheckpoint = 0;
        checkpointSlab(pass, /*functionalPhase=*/false, end, frontier, total);
      }
    }
    if (table) {
      if (checkpointing) removeStreamCheckpoint(pass.checkpointPath);
      return total;
    }
  }
  // Functional fallback: an uncompiled problem, or an out-of-range label
  // surfaced mid-stream -- the whole pass restarts on the predicate loop,
  // mirroring the in-core engine's whole-labelling tier choice (dropped
  // pages are simply paged back in). A table-phase crash between the
  // fallback and the first functional checkpoint resumes into the table
  // phase, rediscovers the out-of-range label and falls back again --
  // always to the same functional-from-zero restart.
  const long long functionalStart = resumeFunctional ? startRow : 0;
  total = resumeFunctional ? startTotal : 0;
  long long dropCursor = std::max(pass.wrapKeep, functionalStart);
  long long slabsSinceCheckpoint = 0;
  for (long long begin = functionalStart; begin < lines;
       begin += pass.window) {
    const long long end = std::min(lines, begin + pass.window);
    {
      slabCounter.increment();
      telemetry::ScopedSpan slabSpan("stream/slab");
      (void)FAULT_POINT("stream.slab");
      total += pass.functionalRows(begin, end, stopAtFirst);
    }
    if (stopAtFirst && total > 0) return total;
    if (pass.dropBehind) {
      const long long dropEnd = end - pass.wrapKeep;
      if (dropEnd > dropCursor) {
        file.dropRows(dropCursor, dropEnd);
        droppedRows.add(dropEnd - dropCursor);
        dropCursor = dropEnd;
      }
    }
    if (checkpointing && ++slabsSinceCheckpoint >= pass.checkpointEverySlabs) {
      slabsSinceCheckpoint = 0;
      checkpointSlab(pass, /*functionalPhase=*/true, end, /*frontier=*/0,
                     total);
    }
  }
  if (checkpointing) removeStreamCheckpoint(pass.checkpointPath);
  return total;
}

}  // namespace stream_verify_detail

}  // namespace lclgrid
