// The verification service daemon (src/service): protocol round-trips,
// request semantics against the in-process engine, and -- the point of a
// networked daemon -- the error paths: bad magic, oversized and truncated
// frames, mid-request disconnects, unknown specs/fingerprints, the
// explicit-BUSY admission policy, and concurrent-client determinism across
// service thread counts. Workers are held busy with the service.dispatch
// fault point (a delay before a request executes). Every service here
// binds an ephemeral TCP loopback port (or a throwaway Unix socket), so
// tests can run in parallel.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "grid/torus2d.hpp"
#include "helpers/json_value.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"
#include "service/client.hpp"
#include "service/problem_registry.hpp"
#include "service/service.hpp"
#include "support/faultpoint.hpp"
#include "support/telemetry.hpp"

using namespace lclgrid;
using service::ServiceClient;
using service::ServiceConfig;
using service::VerificationService;
namespace fp = support::faultpoint;
namespace wire = service::wire;

namespace {

ServiceConfig testConfig() {
  ServiceConfig config;
  config.serviceThreads = 2;
  return config;
}

/// Every test that arms faults scopes them: leaking an armed point into
/// the next test would make the suite order-dependent.
struct FaultGuard {
  ~FaultGuard() { fp::disarmAll(); }
};

std::vector<int> properFourColouring(int n) {
  std::vector<int> labels(static_cast<std::size_t>(n) * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      labels[static_cast<std::size_t>(y) * n + x] = 2 * (y % 2) + (x % 2);
    }
  }
  return labels;
}

service::VerifyRequestFrame verifyFrame(const std::string& spec, int n,
                                        std::span<const int> labels,
                                        bool count = true) {
  service::VerifyRequestFrame frame;
  frame.spec = spec;
  frame.countViolations = count;
  frame.n = static_cast<std::uint32_t>(n);
  frame.labels = labels;
  return frame;
}

std::string tempName(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

}  // namespace

TEST(ServiceProtocol, HeaderAndPayloadRoundTrips) {
  std::vector<std::uint8_t> bytes;
  wire::appendHeader(bytes, wire::FrameType::kVerify, 42, 1234);
  ASSERT_EQ(bytes.size(), wire::kHeaderBytes);
  wire::FrameHeader header;
  ASSERT_TRUE(wire::decodeHeader(bytes.data(), &header));
  EXPECT_EQ(header.type, wire::FrameType::kVerify);
  EXPECT_EQ(header.requestId, 42u);
  EXPECT_EQ(header.payloadBytes, 1234u);
  bytes[0] = 'X';
  EXPECT_FALSE(wire::decodeHeader(bytes.data(), &header));

  const std::vector<int> labels = {0, 1, 2, 3};
  service::VerifyRequestFrame request;
  request.spec = "vc:4";
  request.countViolations = true;
  request.tierPin = 2;
  request.threads = 3;
  request.n = 2;
  request.labels = labels;
  const std::vector<std::uint8_t> payload = encodeVerifyRequest(request);
  const service::VerifyRequestFrame decoded = service::decodeVerifyRequest(payload);
  EXPECT_EQ(decoded.spec, "vc:4");
  EXPECT_TRUE(decoded.countViolations);
  EXPECT_EQ(decoded.tierPin, 2);
  EXPECT_EQ(decoded.threads, 3u);
  ASSERT_EQ(decoded.labels.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(decoded.labels[i], labels[i]);
  }

  service::VerifyResultFrame result;
  result.feasible = true;
  result.tier = 2;
  result.violations = 7;
  result.labellings = 3;
  result.fingerprint = 0xabcdef0102030405ull;
  result.nanos = 123456;
  result.violationsPerLabelling = {0, 7, 0};
  const service::VerifyResultFrame echoed =
      service::decodeVerifyResult(encodeVerifyResult(result));
  EXPECT_EQ(echoed.feasible, result.feasible);
  EXPECT_EQ(echoed.violations, result.violations);
  EXPECT_EQ(echoed.fingerprint, result.fingerprint);
  EXPECT_EQ(echoed.violationsPerLabelling, result.violationsPerLabelling);

  service::ClassifyRequestFrame classifyRequest;
  classifyRequest.spec = "cmis";
  const service::ClassifyRequestFrame classifyEchoed =
      service::decodeClassifyRequest(encodeClassifyRequest(classifyRequest));
  EXPECT_EQ(classifyEchoed.spec, "cmis");
}

TEST(ServiceProtocol, MalformedPayloadsThrow) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(service::decodeVerifyRequest(empty), service::ProtocolError);
  // A spec length pointing past the payload.
  service::VerifyRequestFrame request;
  request.spec = "vc:4";
  request.labelling = service::LabellingKind::kPath;
  request.path = "x";
  std::vector<std::uint8_t> payload = encodeVerifyRequest(request);
  payload[28] = 0xff;  // specLen low byte
  EXPECT_THROW(service::decodeVerifyRequest(payload), service::ProtocolError);
  // Label payload not matching batch * n^dims.
  const std::vector<int> labels = {0, 1, 2};
  service::VerifyRequestFrame wrong;
  wrong.spec = "vc:4";
  wrong.n = 2;  // needs 4 labels, has 3
  wrong.labels = labels;
  std::vector<std::uint8_t> bad;
  EXPECT_NO_THROW(bad = encodeVerifyRequest(wrong));
  EXPECT_THROW(service::decodeVerifyRequest(bad), service::ProtocolError);
}

TEST(ServiceDaemon, VerifyMatchesLocalEngine) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  EXPECT_TRUE(client.ping());

  const int n = 8;
  const Torus2D torus(n);
  const GridLcl local = problems::vertexColouring(4);
  std::vector<int> labels = properFourColouring(n);
  auto feasible = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(feasible.has_value());
  EXPECT_TRUE(feasible->feasible);
  EXPECT_EQ(feasible->violations, 0);
  EXPECT_EQ(feasible->fingerprint, local.table().fingerprint());

  labels[5] = labels[4];  // adjacent equal pair
  auto infeasible = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(infeasible.has_value());
  EXPECT_FALSE(infeasible->feasible);
  EXPECT_EQ(infeasible->violations, countViolations(torus, local, labels));
  daemon.stop();
}

TEST(ServiceDaemon, MultiLaneRequestsShareOneEnginePool) {
  // The daemon builds its ThreadPool(engineThreads) once; no request --
  // one lane inline, two lanes on that pool, in-core or streamed -- starts
  // a pool thread of its own.
  if (!support::telemetry::kCompiledIn) GTEST_SKIP() << "telemetry off";
  const auto threadsStarted = [] {
    for (const auto& counter : support::telemetry::snapshotMetrics().counters) {
      if (counter.name == "pool.threads_started") return counter.value;
    }
    return std::int64_t{0};
  };
  const int n = 64;
  std::vector<int> labels = properFourColouring(n);
  labels[100] = labels[101];
  const std::int64_t expect =
      countViolations(Torus2D(n), problems::vertexColouring(4), labels);
  const std::string path = tempName("service_pool");
  writeLabellingFile(path, 4, 2, n, labels);
  for (int engineThreads : {1, 2}) {
    ServiceConfig config = testConfig();
    config.engineThreads = engineThreads;
    const std::int64_t before = threadsStarted();
    VerificationService daemon(config);
    EXPECT_EQ(threadsStarted() - before, engineThreads - 1);
    daemon.start();
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    const std::int64_t started = threadsStarted();
    for (int i = 0; i < 8; ++i) {
      service::VerifyRequestFrame frame = verifyFrame("vc:4", n, labels);
      frame.threads = static_cast<std::uint32_t>(1 + i % 2);
      if (i % 4 == 3) {
        frame.labelling = service::LabellingKind::kPath;
        frame.path = path;
        frame.labels = {};
      }
      const auto result = client.verify(frame);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->violations, expect) << "request " << i;
    }
    EXPECT_EQ(threadsStarted(), started) << "engineThreads=" << engineThreads;
    daemon.stop();
  }
  std::remove(path.c_str());
}

TEST(ServiceDaemon, FingerprintReferenceAndUnknownFingerprint) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const int n = 6;
  const std::vector<int> labels = properFourColouring(n);
  const auto bySpec = client.verify(verifyFrame("vc:4", n, labels));
  ASSERT_TRUE(bySpec.has_value());

  service::VerifyRequestFrame byFingerprint = verifyFrame("", n, labels);
  byFingerprint.problemRef = service::ProblemRefKind::kFingerprint;
  byFingerprint.fingerprint = bySpec->fingerprint;
  const auto cached = client.verify(byFingerprint);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->feasible, bySpec->feasible);

  byFingerprint.fingerprint ^= 1;
  try {
    (void)client.verify(byFingerprint);
    FAIL() << "expected RemoteError";
  } catch (const service::RemoteError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown problem fingerprint"),
              std::string::npos);
  }
  daemon.stop();
}

TEST(ServiceDaemon, BatchAndDProblemAndPathRequests) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());

  // Batch: 2 labellings, one proper and one broken.
  const int n = 6;
  std::vector<int> batch = properFourColouring(n);
  std::vector<int> broken = properFourColouring(n);
  broken[1] = broken[0];
  batch.insert(batch.end(), broken.begin(), broken.end());
  service::VerifyRequestFrame frame = verifyFrame("vc:4", n, batch);
  frame.batch = 2;
  const auto result = client.verify(frame);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->labellings, 2);
  ASSERT_EQ(result->violationsPerLabelling.size(), 2u);
  EXPECT_EQ(result->violationsPerLabelling[0], 0);
  EXPECT_GT(result->violationsPerLabelling[1], 0);

  // d-dimensional: xorParity on the 3-torus, all-zero labels are feasible
  // iff every line's parity is 0 -- all zeros: feasible.
  std::vector<int> zeros(4 * 4 * 4, 0);
  service::VerifyRequestFrame frameD = verifyFrame("xor:3", 4, zeros);
  frameD.dims = 3;
  const auto resultD = client.verify(frameD);
  ASSERT_TRUE(resultD.has_value());
  EXPECT_TRUE(resultD->feasible);

  // Path request: the daemon opens the LCLLABv2 file itself (stream tier).
  const std::string path = tempName("service_stream");
  const std::vector<int> labels = properFourColouring(8);
  writeLabellingFile(path, 4, 2, 8, labels);
  service::VerifyRequestFrame pathFrame;
  pathFrame.spec = "vc:4";
  pathFrame.countViolations = true;
  pathFrame.labelling = service::LabellingKind::kPath;
  pathFrame.path = path;
  const auto streamed = client.verify(pathFrame);
  ASSERT_TRUE(streamed.has_value());
  EXPECT_TRUE(streamed->feasible);
  EXPECT_EQ(streamed->tier, 3);  // VerifyTier::kStream
  std::remove(path.c_str());
  daemon.stop();
}

TEST(ServiceDaemon, ClassifyGridAndCycle) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());

  service::ClassifyRequestFrame cycleRequest;
  cycleRequest.spec = "cvc:3";
  const auto cycleJson = client.classify(cycleRequest);
  ASSERT_TRUE(cycleJson.has_value());
  const support::JsonValue cycleDoc = support::parseJson(*cycleJson);
  EXPECT_EQ(cycleDoc.at("engine").asString(), "cycle");
  EXPECT_FALSE(cycleDoc.at("complexity").asString().empty());

  service::ClassifyRequestFrame gridRequest;
  gridRequest.spec = "vc:2";
  const auto gridJson = client.classify(gridRequest);
  ASSERT_TRUE(gridJson.has_value());
  const support::JsonValue gridDoc = support::parseJson(*gridJson);
  EXPECT_EQ(gridDoc.at("engine").asString(), "grid");
  EXPECT_FALSE(gridDoc.at("cache_hit").asBool());

  // Second classification of the same problem: served from the report
  // cache.
  const auto cachedJson = client.classify(gridRequest);
  ASSERT_TRUE(cachedJson.has_value());
  EXPECT_TRUE(support::parseJson(*cachedJson).at("cache_hit").asBool());
  daemon.stop();
}

TEST(ServiceDaemon, ErrorPathsBadMagicOversizedTruncatedDisconnect) {
  FaultGuard guard;
  ServiceConfig config = testConfig();
  config.maxPayloadBytes = 4096;
  VerificationService daemon(config);
  daemon.start();

  {  // Bad magic mid-stream: kError, then the daemon closes the stream.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    ASSERT_TRUE(client.ping());  // binary mode established
    std::vector<std::uint8_t> garbage(wire::kHeaderBytes, 0x5a);
    client.sendRaw(garbage);
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::FrameType::kError);
    EXPECT_FALSE(client.receive().has_value());  // connection closed
  }
  {  // Oversized frame: kError naming the limit, then close.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    client.sendFrame(wire::FrameType::kPing, 9, {});
    ASSERT_TRUE(client.receive().has_value());
    std::vector<std::uint8_t> header;
    wire::appendHeader(header, wire::FrameType::kVerify, 10, 1u << 20);
    client.sendRaw(header);
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::FrameType::kError);
    EXPECT_FALSE(client.receive().has_value());
  }
  {  // Truncated frame then disconnect: the daemon just drops the
     // connection; no crash, and it still serves new clients.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    std::vector<std::uint8_t> header;
    wire::appendHeader(header, wire::FrameType::kVerify, 11, 100);
    header.resize(header.size() + 10, 0);  // 10 of the promised 100 bytes
    client.sendRaw(header);
    client.close();
  }
  {  // Disconnect mid-request: the response hits a closed socket; the
     // daemon must shrug it off.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    fp::armEntry("service.dispatch:delay=50@once");
    client.sendFrame(wire::FrameType::kPing, 12, {});
    client.close();
  }
  ServiceClient survivor = ServiceClient::connectTcp(daemon.port());
  EXPECT_TRUE(survivor.ping());
  daemon.stop();
}

TEST(ServiceDaemon, NonProtocolFirstBytesAnswerErrorAndClose) {
  VerificationService daemon(testConfig());
  daemon.start();
  {  // A line of JSON is not a frame: one kError, then the daemon closes,
     // without waiting for the 16 header bytes the line never completes.
    ServiceClient client = ServiceClient::connectTcp(daemon.port());
    const std::string line = "{\"op\":\"ping\"}\n";
    client.sendRaw({reinterpret_cast<const std::uint8_t*>(line.data()),
                    line.size()});
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::FrameType::kError);
    EXPECT_FALSE(client.receive().has_value());  // connection closed
  }
  ServiceClient second = ServiceClient::connectTcp(daemon.port());
  EXPECT_TRUE(second.ping());
  daemon.stop();
}

TEST(ServiceDaemon, UnassignedFrameTypeAnswersError) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  std::vector<std::uint8_t> payload;
  wire::appendU32(payload, 50);
  client.sendFrame(static_cast<wire::FrameType>(0x06), 21, payload);
  const auto reply = client.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, wire::FrameType::kError);
  EXPECT_EQ(reply->requestId, 21u);
  EXPECT_TRUE(client.ping());  // a payload-level error keeps the stream
  daemon.stop();
}

TEST(ServiceDaemon, ReservedVerifyFlagsAreIgnored) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const int n = 8;
  const Torus2D torus(n);
  const GridLcl local = problems::vertexColouring(4);
  std::vector<int> broken = properFourColouring(n);
  broken[1] = broken[0];
  broken[20] = broken[28];
  const std::int64_t planted = countViolations(torus, local, broken);
  ASSERT_GT(planted, 0);

  // Bit 0 of the request flags word (payload bytes 36..39) set: the word
  // is reserved, so the daemon must still answer the exact count.
  std::vector<std::uint8_t> payload =
      service::encodeVerifyRequest(verifyFrame("vc:4", n, broken));
  payload[36] |= 1u;
  client.sendFrame(wire::FrameType::kVerify, 31, payload);
  const auto reply = client.receive();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, wire::FrameType::kVerifyResult);
  ASSERT_GE(reply->payload.size(), 4u);
  EXPECT_EQ(reply->payload[3], 0u);  // result flags byte
  const service::VerifyResultFrame result =
      service::decodeVerifyResult(reply->payload);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.violations, planted);
  daemon.stop();
}

TEST(ServiceDaemon, UnknownSpecAndCycleVerifyRejected) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const std::vector<int> labels(16, 0);
  EXPECT_THROW((void)client.verify(verifyFrame("nope:1", 4, labels)),
               service::RemoteError);
  EXPECT_THROW((void)client.verify(verifyFrame("cmis", 4, labels)),
               service::RemoteError);
  service::ClassifyRequestFrame dRequest;
  dRequest.spec = "xor:3";
  EXPECT_THROW((void)client.classify(dRequest), service::RemoteError);
  daemon.stop();
}

TEST(ServiceDaemon, OverloadAnswersExplicitBusyNeverSilent) {
  FaultGuard guard;
  ServiceConfig config = testConfig();
  config.serviceThreads = 1;
  config.maxQueuedPerClient = 1;
  VerificationService daemon(config);
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  ASSERT_TRUE(client.ping());

  // 5 pings back-to-back, each held 30 ms on the worker, against a budget
  // of 1: every frame must be answered -- admitted ones with kPong, the
  // excess with kBusy.
  fp::armEntry("service.dispatch:delay=30");
  const int frames = 5;
  for (int i = 0; i < frames; ++i) {
    client.sendFrame(wire::FrameType::kPing,
                     static_cast<std::uint32_t>(100 + i), {});
  }
  int pongs = 0;
  int busy = 0;
  for (int i = 0; i < frames; ++i) {
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value()) << "response " << i << " went missing";
    if (reply->type == wire::FrameType::kPong) ++pongs;
    if (reply->type == wire::FrameType::kBusy) ++busy;
  }
  EXPECT_EQ(pongs + busy, frames);
  EXPECT_GE(busy, 1);
  EXPECT_GE(pongs, 1);
  EXPECT_GE(daemon.counters().busyRejections, 1);
  fp::disarmAll();

  // After the backlog drains, the client is admitted again.
  EXPECT_TRUE(client.ping());
  daemon.stop();
}

TEST(ServiceDaemon, ConcurrentClientsDeterministicAcrossServiceThreads) {
  const int n = 8;
  const Torus2D torus(n);
  const GridLcl local = problems::vertexColouring(4);
  std::vector<int> broken = properFourColouring(n);
  broken[7] = broken[6];
  const std::int64_t expected = countViolations(torus, local, broken);
  ASSERT_GT(expected, 0);

  for (int serviceThreads : {1, 2, 8}) {
    ServiceConfig config = testConfig();
    config.serviceThreads = serviceThreads;
    VerificationService daemon(config);
    daemon.start();
    std::vector<std::thread> clients;
    std::vector<int> failures(8, 0);
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        ServiceClient client = ServiceClient::connectTcp(daemon.port());
        for (int i = 0; i < 20; ++i) {
          const auto result = client.verify(verifyFrame("vc:4", n, broken));
          if (!result || result->violations != expected) {
            ++failures[static_cast<std::size_t>(c)];
          }
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
    for (int count : failures) {
      EXPECT_EQ(count, 0) << "serviceThreads=" << serviceThreads;
    }
    daemon.stop();
  }
}

TEST(ServiceDaemon, StatsFrameCarriesServiceAndCacheCounters) {
  VerificationService daemon(testConfig());
  daemon.start();
  ServiceClient client = ServiceClient::connectTcp(daemon.port());
  const std::vector<int> labels = properFourColouring(6);
  ASSERT_TRUE(client.verify(verifyFrame("vc:4", 6, labels)).has_value());
  ASSERT_TRUE(client.verify(verifyFrame("vc:4", 6, labels)).has_value());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  const support::JsonValue doc = support::parseJson(*stats);
  const support::JsonValue& svc = doc.at("service");
  EXPECT_GE(svc.at("requests").asInt(), 2);
  EXPECT_GE(svc.at("verify_requests").asInt(), 2);
  // Same spec twice: the second resolution hits the problem cache.
  EXPECT_GE(svc.at("problem_cache").at("hits").asInt(), 1);
  EXPECT_NE(doc.find("metrics"), nullptr);
  daemon.stop();
}

TEST(ServiceDaemon, UnixSocketAndShutdownRequest) {
  ServiceConfig config = testConfig();
  config.unixSocketPath = tempName("service_sock");
  VerificationService daemon(config);
  daemon.start();
  EXPECT_EQ(daemon.port(), -1);
  ServiceClient client = ServiceClient::connectUnix(config.unixSocketPath);
  EXPECT_TRUE(client.ping());
  const std::vector<int> labels = properFourColouring(6);
  EXPECT_TRUE(client.verify(verifyFrame("vc:4", 6, labels)).has_value());
  client.requestShutdown();
  daemon.waitForShutdown();  // returns because the client asked
  daemon.stop();
}
