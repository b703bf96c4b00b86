// The streaming (out-of-core) verifier tier: the LCLLABv2 format contract
// (round-trips, chunking-independent bytes, the payload size, the writer's
// range check, the retired v1 magic), bit-identical agreement with the
// in-core functional tier across window geometries, kernel tiers and lane
// counts, the out-of-range functional fallback, the reader's error paths,
// and seeded hostile files. The format is load-bearing for the zero-copy
// claim -- the plane kernels read the mapped payload in place -- so the
// round-trip tests compare entire label vectors, not counts.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "grid/torus2d.hpp"
#include "engine/thread_pool.hpp"
#include "grid/torusd.hpp"
#include "helpers/verify_request.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"

using namespace lclgrid;

namespace {

/// A uniquely named file under the test temp dir, unlinked on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path_ = std::filesystem::path(::testing::TempDir()) /
            (stem + "-" + std::to_string(++counter) + ".lcllab");
  }
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::vector<GridLcl> problemRegistry() {
  std::vector<GridLcl> registry;
  for (int k = 2; k <= 5; ++k) registry.push_back(problems::vertexColouring(k));
  registry.push_back(problems::maximalIndependentSet());
  registry.push_back(problems::independentSet());
  registry.push_back(problems::maximalMatching());
  registry.push_back(problems::edgeColouring(3));
  registry.push_back(problems::orientation({1, 3}));
  registry.push_back(problems::noHorizontalOnePair());
  registry.push_back(problems::weakColouring(3, 1));
  return registry;
}

std::vector<int> randomLabels(long long count, int range, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, range - 1);
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int& label : labels) label = dist(rng);
  return labels;
}

/// The reference of the streamed passes: the exact count of the in-core
/// functional tier at one lane.
template <typename Torus, typename Lcl>
std::int64_t functionalCount(const Torus& torus, const Lcl& lcl,
                             std::span<const int> labels) {
  return verify(verifyRequest(torus, lcl, labels, /*count=*/true, 1,
                              TierPin::kFunctional))
      .violations;
}

/// The in-core count of `pin` at one lane.
template <typename Torus, typename Lcl>
std::int64_t pinnedCount(const Torus& torus, const Lcl& lcl,
                         std::span<const int> labels, TierPin pin) {
  return verify(verifyRequest(torus, lcl, labels, /*count=*/true, 1, pin))
      .violations;
}

/// One streamed pass over `file`: the exact count, or the early-exit
/// verdict, at `threads` lanes in slabs of `window`.
template <typename Lcl>
VerifyResult streamed(const StreamLabelling& file, const Lcl& lcl, bool count,
                      int threads = 1, const StreamWindow& window = {}) {
  VerifyRequest request = verifyRequest(file, lcl, {}, count, threads);
  request.options.window = window;
  return verify(request);
}

constexpr unsigned char kMagicV2[8] = {'L', 'C', 'L', 'L', 'A', 'B', 'v', '2'};

/// Writes a file whose header fields are given verbatim (no validation),
/// followed by `payload`, for the reader error-path tests.
void writeRawFile(const std::string& path, const unsigned char magic[8],
                  std::uint32_t sigma, std::uint32_t dims, std::uint32_t n,
                  std::uint32_t reserved, const std::string& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(reinterpret_cast<const char*>(magic), 8);
  const auto put32 = [&](std::uint32_t value) {
    unsigned char bytes[4] = {static_cast<unsigned char>(value & 0xFF),
                              static_cast<unsigned char>((value >> 8) & 0xFF),
                              static_cast<unsigned char>((value >> 16) & 0xFF),
                              static_cast<unsigned char>((value >> 24) & 0xFF)};
    out.write(reinterpret_cast<const char*>(bytes), 4);
  };
  put32(sigma);
  put32(dims);
  put32(n);
  put32(reserved);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  ASSERT_TRUE(out.good());
}

std::string readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The LCLLABv2 payload size: lines * B * W * 8 bytes.
std::uintmax_t payloadBytes(int sigma, int dims, int n) {
  std::uintmax_t lines = 1;
  for (int a = 1; a < dims; ++a) lines *= static_cast<std::uintmax_t>(n);
  return lines * static_cast<std::uintmax_t>(bitslice::planeCount(sigma)) *
         bitslice::wordsPerRow(n) * 8;
}

/// The whole labelling of a mapped file, decoded.
std::vector<int> decodeAll(const StreamLabelling& file) {
  std::vector<int> labels(static_cast<std::size_t>(file.size()));
  file.decodeLines(0, file.lines(), labels.data());
  return labels;
}

}  // namespace

TEST(StreamFormat, WriterReaderRoundTrip2D) {
  for (int n : {3, 16, 65}) {
    const std::vector<int> labels =
        randomLabels(static_cast<long long>(n) * n, 4,
                     static_cast<std::uint32_t>(n));
    TempFile file("roundtrip2d");
    writeLabellingFile(file.str(), 4, 2, n, labels);
    StreamLabelling mapped(file.str());
    EXPECT_EQ(mapped.sigma(), 4);
    EXPECT_EQ(mapped.dims(), 2);
    EXPECT_EQ(mapped.n(), n);
    EXPECT_EQ(mapped.size(), static_cast<long long>(n) * n);
    EXPECT_EQ(mapped.lines(), n);
    EXPECT_EQ(decodeAll(mapped), labels) << "n=" << n;
  }
}

TEST(StreamFormat, WriterReaderRoundTripD) {
  for (int dims : {1, 3, 4}) {
    const int n = dims >= 4 ? 3 : 5;
    long long size = 1;
    for (int a = 0; a < dims; ++a) size *= n;
    const std::vector<int> labels =
        randomLabels(size, 3, static_cast<std::uint32_t>(dims * 100 + n));
    TempFile file("roundtripd");
    writeLabellingFile(file.str(), 3, dims, n, labels);
    StreamLabelling mapped(file.str());
    EXPECT_EQ(mapped.dims(), dims);
    EXPECT_EQ(mapped.size(), size);
    EXPECT_EQ(decodeAll(mapped), labels) << "dims=" << dims;
  }
}

TEST(StreamFormat, IncrementalWriterMatchesOneShot) {
  const int n = 33;
  const std::vector<int> labels =
      randomLabels(static_cast<long long>(n) * n, 5, 909u);
  TempFile oneShot("oneshot");
  writeLabellingFile(oneShot.str(), 5, 2, n, labels);
  TempFile rowByRow("rowbyrow");
  {
    StreamLabellingWriter writer(rowByRow.str(), 5, 2, n);
    for (int y = 0; y < n; ++y) {
      writer.appendLabels(std::span<const int>(labels).subspan(
          static_cast<std::size_t>(y) * n, static_cast<std::size_t>(n)));
    }
    EXPECT_EQ(writer.written(), static_cast<long long>(n) * n);
    writer.close();
  }
  EXPECT_EQ(readBytes(oneShot.str()), readBytes(rowByRow.str()));
}

TEST(StreamFormat, LineSplittingChunkingsWriteIdenticalBytes) {
  // Chunks that end mid-line, span lines or cover several lines buffer
  // and pack alike: the bytes depend on the labels alone. sigma = 300
  // takes the writer's scalar packer (9 planes), the others transposeRow.
  const int n = 37;
  for (int sigma : {3, 5, 300}) {
    const std::vector<int> labels =
        randomLabels(static_cast<long long>(n) * n, sigma,
                     static_cast<std::uint32_t>(sigma));
    TempFile oneShot("chunks-oneshot");
    writeLabellingFile(oneShot.str(), sigma, 2, n, labels);
    const std::string expected = readBytes(oneShot.str());
    EXPECT_EQ(decodeAll(StreamLabelling(oneShot.str())), labels);
    for (std::size_t chunk : {1, 7, 36, 37, 38, 100, 1000}) {
      TempFile chunked("chunks");
      StreamLabellingWriter writer(chunked.str(), sigma, 2, n);
      for (std::size_t i = 0; i < labels.size(); i += chunk) {
        writer.appendLabels(std::span<const int>(labels).subspan(
            i, std::min(chunk, labels.size() - i)));
      }
      EXPECT_EQ(writer.written(), static_cast<long long>(labels.size()));
      writer.close();
      EXPECT_EQ(readBytes(chunked.str()), expected)
          << "sigma=" << sigma << " chunk=" << chunk;
    }
  }
}

TEST(StreamFormat, PayloadIsLinesTimesPlanesTimesWords) {
  for (int dims : {2, 3, 4}) {
    const int n = dims == 2 ? 70 : (dims == 3 ? 9 : 5);
    long long size = 1;
    for (int a = 0; a < dims; ++a) size *= n;
    for (int sigma : {1, 2, 3, 4, 5, 8, 9, 70}) {
      TempFile file("payload");
      writeLabellingFile(file.str(), sigma, dims, n,
                         randomLabels(size, sigma, 7u));
      EXPECT_EQ(std::filesystem::file_size(file.str()),
                stream_format::kHeaderBytes + payloadBytes(sigma, dims, n))
          << "dims=" << dims << " sigma=" << sigma;
      const StreamLabelling mapped(file.str());
      EXPECT_EQ(mapped.planes(), bitslice::planeCount(sigma));
    }
  }
  // sigma <= 4 on a 9216-torus: 2 planes of 144 words per line, 16x below
  // the 4 bytes per label of an int32 payload.
  EXPECT_EQ(stream_format::kHeaderBytes + payloadBytes(4, 2, 9216),
            21233688u);
}

TEST(StreamFormat, ReaderRejectsV1NamingV2) {
  const unsigned char v1[8] = {'L', 'C', 'L', 'L', 'A', 'B', 'v', '1'};
  TempFile file("v1");
  writeRawFile(file.str(), v1, 3, 2, 2, 0, std::string(16, '\0'));
  try {
    StreamLabelling mapped(file.str());
    FAIL() << "an LCLLABv1 file opened";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::strstr(error.what(), "LCLLABv2"), nullptr) << error.what();
  }
}

TEST(StreamFormat, WriterRejectsLabelsOutsidePlanes) {
  // sigma = 3 stores 2 planes: 3 is out of alphabet but storable (the
  // verifiers report it), -1 and 4 = 2^B are not.
  for (int bad : {-1, 4}) {
    TempFile file("rejects");
    StreamLabellingWriter writer(file.str(), 3, 2, 4);
    writer.appendLabels(std::vector<int>{0, 1, 2, 3});
    EXPECT_THROW(writer.appendLabels(std::vector<int>{0, 1, bad, 2}),
                 std::invalid_argument)
        << "label " << bad;
    // The stored line stays; the offending one is not stored.
    EXPECT_EQ(writer.written(), 4);
  }
  TempFile file("rejects5");
  StreamLabellingWriter writer(file.str(), 5, 1, 3);
  EXPECT_THROW(writer.appendLabels(std::vector<int>{7, 8, 0}),
               std::invalid_argument);
  writer.appendLabels(std::vector<int>{7, 6, 5});
  writer.close();
  EXPECT_EQ(decodeAll(StreamLabelling(file.str())),
            (std::vector<int>{7, 6, 5}));
}

TEST(StreamFormat, WriterCloseRejectsShortPayload) {
  TempFile file("short");
  StreamLabellingWriter writer(file.str(), 3, 2, 4);
  const std::vector<int> oneRow = {0, 1, 2, 0};
  writer.appendLabels(oneRow);
  EXPECT_THROW(writer.close(), std::runtime_error);
}

TEST(StreamFormat, ReaderRejectsBadMagic) {
  const unsigned char wrong[8] = {'L', 'C', 'L', 'L', 'A', 'B', 'v', '9'};
  TempFile file("badmagic");
  writeRawFile(file.str(), wrong, 3, 2, 2, 0, std::string(32, '\0'));
  EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
}

TEST(StreamFormat, ReaderRejectsTruncatedHeader) {
  TempFile file("shorthdr");
  std::ofstream out(file.str(), std::ios::binary);
  out.write("LCLLABv2\x03\x00", 10);
  out.close();
  EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
}

TEST(StreamFormat, ReaderRejectsTruncatedPayload) {
  const int n = 8;
  const std::vector<int> labels =
      randomLabels(static_cast<long long>(n) * n, 3, 5u);
  TempFile file("shortpay");
  writeLabellingFile(file.str(), 3, 2, n, labels);
  std::filesystem::resize_file(
      file.str(), stream_format::kHeaderBytes + payloadBytes(3, 2, n) - 1);
  EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
}

TEST(StreamFormat, ReaderRejectsTrailingBytes) {
  const int n = 4;
  const std::vector<int> labels(static_cast<std::size_t>(n) * n, 0);
  TempFile file("trailing");
  writeLabellingFile(file.str(), 3, 2, n, labels);
  std::ofstream out(file.str(), std::ios::binary | std::ios::app);
  out.write("x", 1);
  out.close();
  EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
}

TEST(StreamFormat, ReaderRejectsBadHeaderFields) {
  // Each payload has the size the other fields would call for.
  const unsigned char* magic = kMagicV2;
  {
    TempFile file("zerosigma");
    writeRawFile(file.str(), magic, 0, 2, 2, 0, std::string(16, '\0'));
    EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
  }
  {
    TempFile file("zerodims");
    writeRawFile(file.str(), magic, 3, 0, 2, 0, std::string(16, '\0'));
    EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
  }
  {
    TempFile file("reserved");
    writeRawFile(file.str(), magic, 3, 2, 2, 7, std::string(32, '\0'));
    EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
  }
  {
    TempFile file("hugeside");
    writeRawFile(file.str(), magic, 3, 4, 0x7fffffffu, 0,
                 std::string(32, '\0'));
    EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
  }
  {
    TempFile file("missing");
    EXPECT_THROW(StreamLabelling{file.str()}, std::runtime_error);
  }
}

TEST(StreamVerify, MismatchedProblemThrows) {
  const int n = 4;
  const std::vector<int> labels(static_cast<std::size_t>(n) * n, 0);
  TempFile file("mismatch");
  writeLabellingFile(file.str(), 3, 2, n, labels);
  StreamLabelling mapped(file.str());
  // sigma mismatch (2D): vertexColouring(4) has sigma 4, the file says 3.
  EXPECT_THROW(streamed(mapped, problems::vertexColouring(4), true),
               std::invalid_argument);
  // dims mismatch (D): the file is 2-dimensional.
  EXPECT_THROW(streamed(mapped, problems_d::vertexColouring(3, 3), true),
               std::invalid_argument);
  // sigma mismatch (D).
  EXPECT_THROW(streamed(mapped, problems_d::vertexColouring(2, 4), true),
               std::invalid_argument);
  // 1-dimensional file through the 2D entry point.
  TempFile file1d("mismatch1d");
  writeLabellingFile(file1d.str(), 3, 1, n, std::vector<int>(n, 0));
  StreamLabelling mapped1d(file1d.str());
  EXPECT_THROW(streamed(mapped1d, problems::vertexColouring(3), true),
               std::invalid_argument);
}

TEST(StreamVerify, MatchesInCoreOverRegistry2D) {
  // Sides straddling the word boundary plus a wrap-heavy small one; window
  // geometries down to one row per slab stress the rolling wrap stash.
  for (int n : {5, 64, 65}) {
    Torus2D torus(n);
    for (const GridLcl& lcl : problemRegistry()) {
      const std::vector<int> labels = randomLabels(
          torus.size(), lcl.sigma(), 41u + static_cast<std::uint32_t>(n));
      const std::int64_t reference = functionalCount(torus, lcl, labels);
      TempFile file("registry2d");
      writeLabellingFile(file.str(), lcl.sigma(), 2, n, labels);
      StreamLabelling mapped(file.str());
      for (long long rows : {1LL, 2LL, 3LL, 0LL}) {
        const StreamWindow window{.rows = rows};
        ASSERT_EQ(streamed(mapped, lcl, true, 1, window).violations, reference)
            << lcl.name() << " n=" << n << " rows=" << rows;
        ASSERT_EQ(streamed(mapped, lcl, false, 1, window).feasible,
                  reference == 0)
            << lcl.name() << " n=" << n << " rows=" << rows;
      }
    }
  }
}

TEST(StreamVerify, MatchesInCoreWithBitsliceOnAndOff) {
  // The streamed pass runs the bit-sliced kernel for a problem with a plan
  // and the table kernel for one without; each matches its in-core pin.
  const int n = 65;
  Torus2D torus(n);
  const GridLcl sliced = problems::vertexColouring(4);
  const GridLcl tabled = problems::maximalMatching();
  for (const auto& [lcl, pin] : {std::pair{&sliced, TierPin::kBitsliced},
                                 std::pair{&tabled, TierPin::kTable}}) {
    const std::vector<int> labels =
        randomLabels(torus.size(), lcl->sigma(), 77u);
    TempFile file("tiers");
    writeLabellingFile(file.str(), lcl->sigma(), 2, n, labels);
    StreamLabelling mapped(file.str());
    EXPECT_EQ(verifier_detail::bitsliceSelectedD(lcl->asD(), mapped.size()),
              pin == TierPin::kBitsliced)
        << lcl->name();
    const std::int64_t reference = pinnedCount(torus, *lcl, labels, pin);
    EXPECT_EQ(reference, functionalCount(torus, *lcl, labels)) << lcl->name();
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(streamed(mapped, *lcl, true, threads).violations, reference)
          << lcl->name() << " threads=" << threads;
    }
  }
}

TEST(StreamVerify, PlanlessProblemsStreamTheTableKernel) {
  // Problems without a bit-slice plan stream on the table kernel at every
  // size: the coverage of the streamed table path. Should one gain a plan,
  // the selection assertion fails and another problem must take its place.
  const GridLcl matching = problems::maximalMatching();
  const GridLclD parity = problems_d::xorParity(3);
  const auto check = [](const auto& torus, const auto& lcl, int dims,
                        const std::vector<int>& labels,
                        const std::string& what) {
    ASSERT_TRUE(lcl.hasTable()) << what;
    ASSERT_FALSE(verifier_detail::bitsliceSelectedD(asD(lcl), torus.size()))
        << what;
    const std::int64_t reference =
        pinnedCount(torus, lcl, labels, TierPin::kTable);
    TempFile file("planless");
    writeLabellingFile(file.str(), lcl.sigma(), dims, torus.n(), labels);
    StreamLabelling mapped(file.str());
    for (long long rows : {2LL, 0LL}) {
      const StreamWindow window{.rows = rows};
      for (int threads : {1, 2, 8}) {
        ASSERT_EQ(streamed(mapped, lcl, true, threads, window).violations,
                  reference)
            << what << " rows=" << rows << " threads=" << threads;
        ASSERT_EQ(streamed(mapped, lcl, false, threads, window).feasible,
                  reference == 0)
            << what << " rows=" << rows << " threads=" << threads;
      }
    }
  };
  for (int n : {64, 65}) {
    const Torus2D torus(n);
    check(torus, matching, 2,
          randomLabels(torus.size(), matching.sigma(),
                       static_cast<std::uint32_t>(n)),
          "matching n=" + std::to_string(n));
  }
  const TorusD torus(3, 9);
  check(torus, parity, 3, randomLabels(torus.size(), parity.sigma(), 93u),
        "xor parity d=3");
  check(torus, parity, 3, std::vector<int>(torus.size(), 0),
        "xor parity d=3 zeros");
}

TEST(StreamVerify, ThreadedCountsAreBitIdentical2D) {
  const int n = 65;
  Torus2D torus(n);
  for (const GridLcl& lcl : problemRegistry()) {
    const std::vector<int> labels =
        randomLabels(torus.size(), lcl.sigma(), 271u);
    const std::int64_t reference = functionalCount(torus, lcl, labels);
    TempFile file("threads2d");
    writeLabellingFile(file.str(), lcl.sigma(), 2, n, labels);
    StreamLabelling mapped(file.str());
    for (int threads : {1, 2, 8}) {
      ASSERT_EQ(streamed(mapped, lcl, true, threads).violations, reference)
          << lcl.name() << " threads=" << threads;
      ASSERT_EQ(streamed(mapped, lcl, false, threads).feasible,
                reference == 0)
          << lcl.name() << " threads=" << threads;
    }
  }
}

TEST(StreamVerifyD, MatchesInCoreOnTorusD) {
  for (int dims : {1, 2, 3, 4}) {
    std::vector<GridLclD> registry;
    registry.push_back(problems_d::vertexColouring(dims, 4));
    registry.push_back(problems_d::xorParity(dims));
    registry.push_back(problems_d::monotoneAxis(dims, 0, 3));
    for (int side : {4, 9}) {
      TorusD torus(dims, side);
      for (const GridLclD& lcl : registry) {
        const std::vector<int> labels = randomLabels(
            torus.size(), lcl.sigma(),
            static_cast<std::uint32_t>(dims * 1000 + side));
        const std::int64_t reference = functionalCount(torus, lcl, labels);
        TempFile file("registryd");
        writeLabellingFile(file.str(), lcl.sigma(), dims, side, labels);
        StreamLabelling mapped(file.str());
        for (long long rows : {1LL, 3LL, 0LL}) {
          const StreamWindow window{.rows = rows};
          ASSERT_EQ(streamed(mapped, lcl, true, 1, window).violations,
                    reference)
              << lcl.name() << " dims=" << dims << " side=" << side
              << " rows=" << rows;
          ASSERT_EQ(streamed(mapped, lcl, false, 1, window).feasible,
                    reference == 0)
              << lcl.name() << " dims=" << dims << " side=" << side
              << " rows=" << rows;
        }
        for (int threads : {2, 8}) {
          ASSERT_EQ(streamed(mapped, lcl, true, threads).violations,
                    reference)
              << lcl.name() << " dims=" << dims << " side=" << side
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(StreamVerify, OutOfRangeLabelFallsBackToFunctionalTier) {
  const int n = 33;
  Torus2D torus(n);
  const GridLcl lcl = problems::vertexColouring(3);
  std::vector<int> labels = randomLabels(torus.size(), lcl.sigma(), 11u);
  // A label at sigma poisons the table path; the streaming pass must
  // restart on the functional tier and agree with the in-core engine --
  // including when the bad label sits in the wrap stash (row 0) or the
  // final slab.
  for (const int victim :
       {0, n / 2, torus.size() / 2, torus.size() - 1}) {
    std::vector<int> poisoned = labels;
    poisoned[static_cast<std::size_t>(victim)] = lcl.sigma();
    const std::int64_t reference = functionalCount(torus, lcl, poisoned);
    TempFile file("fallback");
    writeLabellingFile(file.str(), lcl.sigma(), 2, n, poisoned);
    StreamLabelling mapped(file.str());
    for (long long rows : {1LL, 4LL, 0LL}) {
      const StreamWindow window{.rows = rows};
      ASSERT_EQ(streamed(mapped, lcl, true, 1, window).violations, reference)
          << "victim=" << victim << " rows=" << rows;
      ASSERT_FALSE(streamed(mapped, lcl, false, 1, window).feasible)
          << "victim=" << victim << " rows=" << rows;
    }
    for (int threads : {2, 8}) {
      ASSERT_EQ(streamed(mapped, lcl, true, threads).violations, reference)
          << "victim=" << victim << " threads=" << threads;
    }
  }
}

TEST(StreamVerifyDetail, WindowGeometry) {
  using stream_verify_detail::resolveWindowRows;
  using stream_verify_detail::wrapWindowRows;
  // Explicit requests clamp to [1, lines]; the default targets ~8 MiB.
  EXPECT_EQ(resolveWindowRows(10, 100, 7), 7);
  EXPECT_EQ(resolveWindowRows(10, 100, 1000), 100);
  EXPECT_EQ(resolveWindowRows(10, 100, 0), 100);  // tiny rows: whole file
  const long long bigSide = 1 << 20;  // 4 MiB per row -> 2 rows per slab
  EXPECT_EQ(resolveWindowRows(static_cast<int>(bigSide), 1000, 0), 2);
  EXPECT_EQ(wrapWindowRows(1, 9), 1);
  EXPECT_EQ(wrapWindowRows(2, 9), 1);
  EXPECT_EQ(wrapWindowRows(3, 9), 9);
  EXPECT_EQ(wrapWindowRows(4, 9), 81);
}

namespace {

/// One hostile mutant of a valid file: `bytes` either fails to open with
/// std::runtime_error or opens and then verifies, in count and verify mode
/// at 1 and 8 lanes, to the in-core functional count of the labelling it
/// decodes to. Returns whether it opened.
template <typename Lcl>
bool mutantMatchesFunctional(const std::string& bytes, const Lcl& lcl,
                             engine::ThreadPool& pool,
                             const std::string& what) {
  TempFile file("hostile");
  writeBytes(file.str(), bytes);
  std::optional<StreamLabelling> mapped;
  try {
    mapped.emplace(file.str());
  } catch (const std::runtime_error&) {
    return false;
  }
  // No single header edit reaches another shape with a matching payload.
  EXPECT_EQ(mapped->sigma(), lcl.sigma()) << what;
  EXPECT_EQ(mapped->dims(), asD(lcl).dims()) << what;
  const std::vector<int> labels = decodeAll(*mapped);
  const TorusD torus(mapped->dims(), mapped->n());
  const std::int64_t reference =
      verify(verifyRequest(torus, asD(lcl), labels, /*count=*/true, 1,
                           TierPin::kFunctional))
          .violations;
  for (int threads : {1, 8}) {
    for (bool count : {true, false}) {
      VerifyRequest request =
          verifyRequest(*mapped, lcl, {}, count, threads);
      if (threads > 1) request.options.engine.pool = &pool;
      request.options.window.rows = 3;
      const VerifyResult result = verify(request);
      EXPECT_EQ(result.feasible, reference == 0)
          << what << " threads=" << threads << " count=" << count;
      if (count) {
        EXPECT_EQ(result.violations, reference)
            << what << " threads=" << threads;
      }
    }
  }
  return true;
}

}  // namespace

TEST(StreamHostileFiles, MutantsThrowTypedOrMatchFunctional) {
  // Seeded mutants of valid files on each streamed tier -- in-place planes
  // in 2D and 3D (sigma = 3: the frontier checks labels >= sigma and tail
  // bits on the planes), the decoded nibble and table tiers -- with header
  // and payload bit flips, set tail bits, truncation and trailing bytes.
  engine::ThreadPool pool(8);
  std::mt19937 rng(20261021u);
  int opened = 0;
  int rejected = 0;
  int tailOpened = 0;
  const auto mutate = [&](const std::string& valid, int n, int planes,
                          const auto& lcl) {
    const std::size_t header = stream_format::kHeaderBytes;
    const std::size_t W = bitslice::wordsPerRow(n);
    const std::size_t lines = (valid.size() - header) / (planes * W * 8);
    for (int round = 0; round < 48; ++round) {
      std::string bytes = valid;
      std::string what;
      const int kind = round % 6;
      if (kind == 0) {
        const std::size_t bit = rng() % (header * 8);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
        what = "header bit " + std::to_string(bit);
      } else if (kind == 1 || kind == 2) {
        for (int flip = 0; flip < kind; ++flip) {
          const std::size_t bit = rng() % ((bytes.size() - header) * 8);
          bytes[header + bit / 8] = static_cast<char>(
              bytes[header + bit / 8] ^ (1 << (bit % 8)));
          what += "payload bit " + std::to_string(bit) + " ";
        }
      } else if (kind == 3) {
        // A tail bit past n in some plane's last word (none when 64 | n);
        // every other one at bit n itself, which the plane kernels' cyclic
        // east shift would carry into the line's last node.
        if (n % 64 == 0) continue;
        const std::size_t line = rng() % lines;
        const std::size_t plane = rng() % static_cast<std::size_t>(planes);
        const int x = round % 12 == 3
                          ? n % 64
                          : n % 64 + static_cast<int>(rng() % (64 - n % 64));
        const std::size_t word =
            header + ((line * planes + plane) * W + W - 1) * 8;
        bytes[word + static_cast<std::size_t>(x / 8)] = static_cast<char>(
            bytes[word + static_cast<std::size_t>(x / 8)] | (1 << (x % 8)));
        what = "tail bit line " + std::to_string(line);
      } else if (kind == 4) {
        bytes.resize(bytes.size() - 1 - rng() % 16);
        what = "truncated";
      } else {
        bytes.append(1 + rng() % 16, '\x5a');
        what = "trailing bytes";
      }
      if (mutantMatchesFunctional(bytes, lcl, pool, what)) {
        ++opened;
        if (kind == 3) ++tailOpened;
      } else {
        ++rejected;
      }
    }
  };
  const auto base = [&](const auto& lcl, int n, std::uint32_t seed) {
    long long size = 1;
    const int dims = asD(lcl).dims();
    for (int a = 0; a < dims; ++a) size *= n;
    TempFile file("hostile-base");
    writeLabellingFile(file.str(), lcl.sigma(), dims, n,
                       randomLabels(size, lcl.sigma(), seed));
    mutate(readBytes(file.str()), n, bitslice::planeCount(lcl.sigma()), lcl);
  };
  base(problems::vertexColouring(3), 37, 1u);
  base(problems::weakColouring(3, 1), 37, 2u);
  base(problems::maximalIndependentSet(), 23, 3u);
  base(problems_d::vertexColouring(3, 3), 9, 4u);
  base(problems_d::monotoneAxis(3, 0, 3), 7, 5u);
  EXPECT_GT(opened, 0);
  EXPECT_GT(rejected, 0);
  // Tail bits are the frontier's to find, not the O(1) open's.
  EXPECT_GT(tailOpened, 0);
}
