// The streaming out-of-core verifier's library half (lcl/stream_verify.hpp):
// the on-disk format (writer + memory-mapped reader), the decoded int32
// image and the slab-walking pass the engine drives. The kernels themselves
// are the verifier_detail slices of the in-core engine, run on the mapped
// planes in place or on the decoded image, so counts are bit-identical by
// construction.
#include "lcl/stream_verify.hpp"

#include <algorithm>
#include <array>
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

// The decoded image holds int32 labels.
static_assert(sizeof(int) == 4, "labelling files assume 32-bit int");

namespace {

using stream_format::kHeaderBytes;
using stream_format::kMagic;

/// Packed lines the writer stages per fwrite: ~64 KiB.
constexpr std::size_t kStageBytes = std::size_t{1} << 16;

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
/// the 4x byte size of the decoded image).
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

/// Words of one packed line: planes * wordsPerRow(n).
std::size_t lineWords(int planes, int n) {
  return static_cast<std::size_t>(planes) * bitslice::wordsPerRow(n);
}

/// Payload bytes of `lines` packed lines, with an overflow guard.
std::size_t payloadBytes(long long lines, int planes, int n) {
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(static_cast<std::size_t>(lines),
                             lineWords(planes, n) * 8, &bytes) ||
      bytes > std::numeric_limits<std::size_t>::max() - kHeaderBytes) {
    throw std::runtime_error("labelling file: payload size overflows");
  }
  return bytes;
}

}  // namespace

// --- writer ----------------------------------------------------------------

StreamLabellingWriter::StreamLabellingWriter(const std::string& path,
                                             int sigma, int dims, int n)
    : path_(path), n_(n) {
  if (sigma < 1 || dims < 1 || n < 1) {
    throw std::invalid_argument(
        "StreamLabellingWriter: sigma, dims and side must be positive");
  }
  expected_ = nodeCount(n, dims);
  planes_ = bitslice::planeCount(sigma);
  lineWords_ = lineWords(planes_, n);
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

void StreamLabellingWriter::packLine(const int* labels,
                                     std::uint64_t* out) const {
  unsigned maxLabel = 0;
  if (planes_ <= 8) {
    maxLabel = bitslice::transposeRow(labels, n_, planes_, out);
  } else {
    // Beyond transposeRow's 8 planes a scalar loop will do: such
    // alphabets are far past every compiled tier.
    const std::size_t W = bitslice::wordsPerRow(n_);
    std::fill(out, out + lineWords_, 0);
    for (int x = 0; x < n_; ++x) {
      const unsigned label = static_cast<unsigned>(labels[x]);
      maxLabel = std::max(maxLabel, label);
      for (int b = 0; b < planes_; ++b) {
        out[static_cast<std::size_t>(b) * W +
            static_cast<std::size_t>(x / 64)] |=
            static_cast<std::uint64_t>((label >> b) & 1u) << (x % 64);
      }
    }
  }
  // transposeRow's max ranks a negative label above every alphabet.
  if ((maxLabel >> planes_) != 0) {
    throw std::invalid_argument(
        "StreamLabellingWriter: a label outside [0, " +
        std::to_string(1ULL << planes_) + ") cannot be stored in " +
        std::to_string(planes_) + " planes '" + path_ + "'");
  }
}

void StreamLabellingWriter::flushLines(std::size_t lines) {
  if (lines == 0) return;
  const std::size_t words = lines * lineWords_;
  std::size_t stored;
  if constexpr (std::endian::native == std::endian::little) {
    stored = std::fwrite(staged_.data(), sizeof(std::uint64_t), words,
                         asFile(file_));
  } else {
    stored = 0;
    unsigned char bytes[8];
    for (std::size_t i = 0; i < words; ++i) {
      put64le(bytes, staged_[i]);
      if (std::fwrite(bytes, 1, 8, asFile(file_)) != 8) break;
      ++stored;
    }
  }
  written_ += static_cast<long long>(stored / lineWords_) * n_;
  if (stored != words) {
    throw std::runtime_error("StreamLabellingWriter: write failed '" + path_ +
                             "': " + std::strerror(errno));
  }
}

void StreamLabellingWriter::appendLabels(std::span<const int> labels) {
  if (closed_ || file_ == nullptr) {
    throw std::logic_error("StreamLabellingWriter: writer is closed");
  }
  if (written() + static_cast<long long>(labels.size()) > expected_) {
    throw std::runtime_error(
        "StreamLabellingWriter: more labels than side^dims '" + path_ + "'");
  }
  const std::size_t n = static_cast<std::size_t>(n_);
  {
    // Injected disk failure: a short write counts the whole lines its
    // byte budget covers as stored (the real partial-fwrite shape) and
    // both fail typed.
    namespace fp = support::faultpoint;
    const auto fault = FAULT_POINT("stream.writer_append");
    if (fault.action == fp::Action::kErrno ||
        fault.action == fp::Action::kShort) {
      if (fault.action == fp::Action::kShort) {
        const auto lineBytes = static_cast<long long>(lineWords_ * 8);
        written_ += std::min<long long>(
                        fault.arg / lineBytes,
                        static_cast<long long>(labels.size() / n)) *
                    n_;
      }
      throw std::runtime_error(
          "StreamLabellingWriter: write failed '" + path_ + "': " +
          std::strerror(fault.action == fp::Action::kErrno ? fault.errnoValue
                                                           : ENOSPC));
    }
  }
  const std::size_t stageLines =
      std::max<std::size_t>(1, kStageBytes / (lineWords_ * 8));
  staged_.resize(stageLines * lineWords_);
  std::size_t staged = 0;
  std::size_t i = 0;
  while (i < labels.size()) {
    const int* line;
    if (pending_.empty() && labels.size() - i >= n) {
      line = labels.data() + i;
      i += n;
    } else {
      const std::size_t take =
          std::min(n - pending_.size(), labels.size() - i);
      const auto from = labels.begin() + static_cast<std::ptrdiff_t>(i);
      pending_.insert(pending_.end(), from,
                      from + static_cast<std::ptrdiff_t>(take));
      i += take;
      if (pending_.size() < n) break;
      line = pending_.data();
    }
    try {
      packLine(line, staged_.data() + staged * lineWords_);
    } catch (const std::invalid_argument&) {
      // The lines before the offending one are stored; it and the rest of
      // the call are not.
      pending_.clear();
      flushLines(staged);
      throw;
    }
    pending_.clear();
    if (++staged == stageLines) {
      flushLines(staged);
      staged = 0;
    }
  }
  flushLines(staged);
}

void StreamLabellingWriter::close() {
  if (closed_) return;
  closed_ = true;
  std::FILE* file = asFile(file_);
  file_ = nullptr;
  if (written() != expected_) {
    if (file != nullptr) std::fclose(file);
    throw std::runtime_error(
        "StreamLabellingWriter: wrote " + std::to_string(written()) +
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
        "is read in place as little-endian uint64 words)");
  }
  if (file_.size() < kHeaderBytes) {
    throw std::runtime_error("labelling file: truncated header '" + path +
                             "'");
  }
  if (std::memcmp(file_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(
        "labelling file: bad magic (not LCLLABv2; older formats must be "
        "rewritten with StreamLabellingWriter) '" + path + "'");
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
  planes_ = bitslice::planeCount(sigma_);
  size_ = nodeCount(n_, dims_);
  if (file_.size() - kHeaderBytes != payloadBytes(lines(), planes_, n_)) {
    throw std::runtime_error(
        "labelling file: payload size mismatch (truncated or trailing "
        "bytes) '" + path + "'");
  }
}

const std::uint64_t* StreamLabelling::line(long long line) const {
  return reinterpret_cast<const std::uint64_t*>(file_.data() + kHeaderBytes) +
         static_cast<std::size_t>(line) * lineWords(planes_, n_);
}

bool StreamLabelling::linesClean(long long lineBegin,
                                 long long lineEnd) const {
  const bool tailBits = n_ % 64 != 0;
  const bool aboveSigma = (1LL << planes_) != sigma_;
  const std::size_t W = bitslice::wordsPerRow(n_);
  const std::uint64_t tail = bitslice::rowTailMask(n_);
  const auto top = static_cast<std::uint64_t>(sigma_ - 1);
  for (long long l = lineBegin; l < lineEnd; ++l) {
    const std::uint64_t* planes = line(l);
    if (tailBits) {
      for (int b = 0; b < planes_; ++b) {
        if ((planes[static_cast<std::size_t>(b) * W + W - 1] & ~tail) != 0) {
          return false;
        }
      }
    }
    if (!aboveSigma) continue;
    // label > sigma - 1, bit-serially from the top plane: `above` gathers
    // the lanes already greater, `equal` those still tied.
    for (std::size_t w = 0; w < W; ++w) {
      std::uint64_t above = 0;
      std::uint64_t equal = ~std::uint64_t{0};
      for (int b = planes_ - 1; b >= 0; --b) {
        const std::uint64_t bits = planes[static_cast<std::size_t>(b) * W + w];
        if ((top >> b) & 1u) {
          equal &= bits;
        } else {
          above |= equal & bits;
          equal &= ~bits;
        }
      }
      if ((above & (w + 1 == W ? tail : ~std::uint64_t{0})) != 0) return false;
    }
  }
  return true;
}

void StreamLabelling::decodeLines(long long lineBegin, long long lineEnd,
                                  int* out) const {
  if (planes_ > 8) {
    for (long long l = lineBegin; l < lineEnd; ++l) {
      bitslice::untransposeRow(
          line(l), n_, planes_,
          out + static_cast<std::size_t>(l - lineBegin) * n_);
    }
    return;
  }
  // Eight labels at a time: byte j of kSpread[v] holds bit j of v, so
  // plane b's byte of eight lane bits, spread and shifted by b, ORs bit b
  // into each of the eight labels' bytes.
  static constexpr auto kSpread = [] {
    std::array<std::uint64_t, 256> spread{};
    for (std::size_t v = 0; v < 256; ++v) {
      for (int j = 0; j < 8; ++j) {
        spread[v] |= static_cast<std::uint64_t>((v >> j) & 1u) << (8 * j);
      }
    }
    return spread;
  }();
  const std::size_t W = bitslice::wordsPerRow(n_);
  for (long long l = lineBegin; l < lineEnd; ++l) {
    const std::uint64_t* planes = line(l);
    int* row = out + static_cast<std::size_t>(l - lineBegin) * n_;
    for (int x0 = 0; x0 < n_; x0 += 8) {
      const std::size_t w = static_cast<std::size_t>(x0) / 64;
      const int shift = x0 % 64;
      std::uint64_t bytes = 0;
      for (int b = 0; b < planes_; ++b) {
        bytes |= kSpread[(planes[static_cast<std::size_t>(b) * W + w] >>
                          shift) & 0xffu]
                 << b;
      }
      const int count = std::min(8, n_ - x0);
      for (int j = 0; j < count; ++j) {
        row[x0 + j] = static_cast<int>((bytes >> (8 * j)) & 0xffu);
      }
    }
  }
}

void StreamLabelling::dropRows(long long lineBegin, long long lineEnd) const {
  if (lineEnd <= lineBegin) return;
  const std::size_t lineBytes = lineWords(planes_, n_) * 8;
  file_.dropRange(
      kHeaderBytes + static_cast<std::size_t>(lineBegin) * lineBytes,
      static_cast<std::size_t>(lineEnd - lineBegin) * lineBytes);
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
  return verifier_detail::bitsliceSelectedD(lcl, file.size());
}

void DecodedLabels::reserve() {
  if (image_.size() == 0) {
    image_ = support::MmapFile::anonymous(
        static_cast<std::size_t>(file_->size()) * sizeof(int));
  }
}

bool DecodedLabels::decode(long long lineBegin, long long lineEnd) const {
  const std::size_t n = static_cast<std::size_t>(file_->n());
  int* out = reinterpret_cast<int*>(image_.writableData()) +
             static_cast<std::size_t>(lineBegin) * n;
  file_->decodeLines(lineBegin, lineEnd, out);
  return verifier_detail::allLabelsInRange(
      file_->sigma(),
      std::span<const int>(
          out, static_cast<std::size_t>(lineEnd - lineBegin) * n));
}

std::span<const int> DecodedLabels::all() const {
  return {reinterpret_cast<const int*>(image_.data()),
          static_cast<std::size_t>(file_->size())};
}

void DecodedLabels::dropRows(long long lineBegin, long long lineEnd) const {
  if (lineEnd <= lineBegin || image_.size() == 0) return;
  const std::size_t lineBytes =
      static_cast<std::size_t>(file_->n()) * sizeof(int);
  image_.dropRange(static_cast<std::size_t>(lineBegin) * lineBytes,
                   static_cast<std::size_t>(lineEnd - lineBegin) * lineBytes);
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
  const long long keep = pass.wrapKeep;
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

  // Resume: a fingerprint-matching checkpoint restores the cursor and the
  // running total. Bit-identity needs no slab alignment -- totals are exact
  // int64 sums over disjoint row ranges, so any partition of [0, lines)
  // yields the identical count.
  bool table = pass.tablePath;
  long long startRow = 0;
  std::int64_t startTotal = 0;
  bool resumeFunctional = false;
  if (checkpointing) {
    if (const auto loaded = loadStreamCheckpoint(pass.checkpointPath)) {
      if (loaded->labellingFingerprint == pass.labellingFingerprint &&
          loaded->problemFingerprint == pass.problemFingerprint &&
          loaded->nextRow <= lines && loaded->frontier <= lines &&
          (loaded->functionalPhase || table)) {
        startRow = loaded->nextRow;
        startTotal = loaded->total;
        resumeFunctional = loaded->functionalPhase;
        resumeCounter.increment();
      }
    }
  }

  // One walk over the slabs from `begin0` with running total `total`, on
  // the table kernels (the validation frontier checks what it admits;
  // nullopt when a row is unfit) or on the functional tier. Rows are
  // admitted one wrap window ahead of the kernel, so no kernel reads an
  // unchecked row; the last wrap window is admitted up front (the first
  // slab's cyclic neighbours), and a resumed walk re-admits the first one
  // (the final slab's), which stays pinned while the pages behind the
  // cursor are dropped.
  const auto walk = [&](bool functional, long long begin0,
                        std::int64_t total) -> std::optional<std::int64_t> {
    const bool check = !functional;
    if (!pass.admitRows(std::max(0LL, lines - keep), lines, check)) {
      return std::nullopt;
    }
    long long admitted = std::max(0LL, begin0 - keep);
    if (admitted <= keep) {
      admitted = 0;
    } else if (!pass.admitRows(0, keep, check)) {
      return std::nullopt;
    }
    long long dropCursor = std::max(keep, begin0);
    long long slabsSinceCheckpoint = 0;
    for (long long begin = begin0; begin < lines; begin += pass.window) {
      const long long end = std::min(lines, begin + pass.window);
      const long long need = std::min(lines, end + keep);
      if (admitted < need) {
        if (!pass.admitRows(admitted, need, check)) return std::nullopt;
        admitted = need;
      }
      {
        slabCounter.increment();
        telemetry::ScopedSpan slabSpan("stream/slab");
        (void)FAULT_POINT("stream.slab");
        total += functional ? pass.functionalRows(begin, end, stopAtFirst)
                            : pass.kernelRows(begin, end, stopAtFirst);
      }
      if (stopAtFirst && total > 0) return total;
      if (pass.dropBehind) {
        const long long dropEnd = end - keep;
        if (dropEnd > dropCursor) {
          file.dropRows(dropCursor, dropEnd);
          if (pass.decoded != nullptr) {
            pass.decoded->dropRows(dropCursor, dropEnd);
          }
          droppedRows.add(dropEnd - dropCursor);
          dropCursor = dropEnd;
        }
      }
      if (checkpointing &&
          ++slabsSinceCheckpoint >= pass.checkpointEverySlabs) {
        slabsSinceCheckpoint = 0;
        checkpointSlab(pass, functional, end, functional ? 0 : admitted,
                       total);
      }
    }
    return total;
  };

  if (table && !resumeFunctional) {
    if (const std::optional<std::int64_t> total =
            walk(/*functional=*/false, startRow, startTotal)) {
      if (checkpointing) removeStreamCheckpoint(pass.checkpointPath);
      return *total;
    }
  }
  // Functional fallback: an uncompiled problem, or an unfit row surfaced
  // mid-stream -- the whole pass restarts on the predicate loop, mirroring
  // the in-core engine's whole-labelling tier choice (dropped lines are
  // simply decoded again). A table-phase crash between the fallback and
  // the first functional checkpoint resumes into the table phase,
  // rediscovers the unfit row and falls back again -- always to the same
  // functional-from-zero restart.
  const std::int64_t total =
      *walk(/*functional=*/true, resumeFunctional ? startRow : 0,
            resumeFunctional ? startTotal : 0);
  if (checkpointing) removeStreamCheckpoint(pass.checkpointPath);
  return total;
}

}  // namespace stream_verify_detail

}  // namespace lclgrid
