// The two service phases, both against an in-process VerificationService on
// TCP loopback, driven only through ServiceClient's public frame surface
// (encode, sendFrame, receive, decode -- the steps ServiceClient::verify
// takes, split so the traced run can time each one).
//
//  serve_mix       closed loop, 2 blocking connections; per 32 requests:
//                  29 count-mode vc:4 32x32 verifies by fingerprint, one
//                  cvc:3 classify, one cached vc:5 classify, one stats.
//  serve_overload  open loop, 2 connections, a fixed send schedule at
//                  kOverloadRate against 1 service thread; count-mode vc:4
//                  256x256 inline verifies with allowDegrade; latency timed
//                  from the due time.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "engine/family_sweep.hpp"
#include "labels.hpp"
#include "service/client.hpp"
#include "service/problem_registry.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace svc = lclgrid::service;
using svc::wire::FrameType;

namespace {

/// Requests per second of the overload schedule, fixed so every commit is
/// offered the same load. On the commit that introduced this benchmark
/// (4-vCPU Xeon, AVX-512) the overload daemon (1 service thread, 256x256
/// count verifies) answered 10-11k requests/s at most, so this is ~1.6x its
/// capacity; it refuses about half and answers ~8k/s. 2x is not steady on
/// that host: every 256 KiB frame crosses loopback TCP and is
/// read in full even to be refused, and from ~20k/s the readers starve the
/// worker, so the answered rate and the latency collapse.
constexpr double kOverloadRate = 17000.0;
/// Queue-wait deadline of the overload daemon (kTimeout past it).
constexpr int kOverloadDeadlineMs = 10;
constexpr int kMixSide = 32;
constexpr int kMixLabellings = 16;
constexpr int kOverloadSide = 256;
constexpr int kOverloadLabellings = 8;
constexpr int kSetupRepeats = 5;

/// Sets the request's allowDegrade flag where the protocol still has one.
template <class Frame>
void allowDegrade(Frame& frame) {
  if constexpr (requires { frame.allowDegrade; }) frame.allowDegrade = true;
}

/// Planted sites for one labelling of `nodes` nodes under a workload.
std::int64_t sitesFor(const std::string& workload, std::int64_t nodes,
                      Rng& rng) {
  if (workload == "dense_faults") {
    return std::int64_t(rng.below(std::uint64_t(nodes / 32) + 1));
  }
  return std::int64_t(rng.below(3));
}

std::vector<Labelling> makeLabellings(const RunOptions& options, int side,
                                      int count, std::uint64_t stream) {
  Rng rng(options.seed, stream);
  std::vector<Labelling> out;
  for (int i = 0; i < count; ++i) {
    const std::int64_t sites =
        sitesFor(options.workload, std::int64_t(side) * side, rng);
    out.push_back(makeLabelling(Problem::kVc4, side, options.seed,
                                stream * 1000 + std::uint64_t(i), sites));
  }
  return out;
}

/// Outcome counts of one phase. Wrong and errored requests are failures;
/// refusals and client drops are counted apart and are not.
struct Outcomes {
  std::int64_t attempted = 0;
  std::int64_t answered = 0;
  std::int64_t refused = 0;
  std::int64_t errored = 0;
  std::int64_t wrong = 0;
  /// Open loop only: requests the client dropped unsent (kMaxSendLagNs).
  std::int64_t dropped = 0;

  void add(const Outcomes& o) {
    attempted += o.attempted;
    answered += o.answered;
    refused += o.refused;
    errored += o.errored;
    wrong += o.wrong;
    dropped += o.dropped;
  }
  void write(Json& json) const {
    json.key("attempted").value(attempted);
    json.key("answered").value(answered);
    json.key("refused").value(refused);
    json.key("errored").value(errored);
    json.key("wrong").value(wrong);
    json.key("dropped").value(dropped);
  }
};

/// A verify answer is right iff it matches the planted count; a degraded
/// answer (early-exit verify under shed) only has to get feasibility right
/// with a count that bounds the truth from below.
bool verifyCorrect(const svc::VerifyResultFrame& result, std::int64_t expected,
                   bool degraded) {
  if (result.feasible != (expected == 0)) return false;
  if (!degraded) return result.violations == expected;
  return result.violations <= expected &&
         (expected == 0 || result.violations >= 1);
}

template <class Result>
bool isDegraded(const Result& result) {
  if constexpr (requires { result.degraded; }) {
    return result.degraded;
  } else {
    return false;
  }
}

bool isLogStar(const std::string& classifyJson) {
  return classifyJson.find("\"complexity\":\"Theta(log* n)\"") !=
         std::string::npos;
}

std::string payloadText(const svc::ServiceClient::Reply& reply) {
  return std::string(reinterpret_cast<const char*>(reply.payload.data()),
                     reply.payload.size());
}

std::vector<std::uint8_t> classifyPayload(const std::string& spec) {
  svc::ClassifyRequestFrame frame;
  frame.spec = spec;
  return svc::encodeClassifyRequest(frame);
}

// --- serve_mix ----------------------------------------------------------------

struct MixDaemon {
  std::unique_ptr<svc::VerificationService> daemon;
  std::uint64_t fingerprint = 0;
};

struct MixClient {
  // Latencies, and completion times in ms from the window start (run.py
  // takes its medians per sub-window, so a short host stall stays local).
  std::vector<double> verifyUs, classifyCycleUs, classifyGridUs, statsUs;
  std::vector<double> verifyAt, classifyCycleAt, classifyGridAt, statsAt;
  std::vector<double> engineUs;
  Outcomes outcomes;
  SpanLog spans;
};

/// One closed-loop connection until `deadlineNs`.
void runMixClient(int port, int index, const RunOptions& options,
                  const std::vector<Labelling>& labellings,
                  std::uint64_t fingerprint, std::int64_t windowStartNs,
                  std::int64_t deadlineNs, std::uint64_t streamBase,
                  MixClient* out) {
  svc::ServiceClient client = svc::ServiceClient::connectTcp(port);
  client.setDeadlineMs(5000);
  Rng rng(options.seed, streamBase + std::uint64_t(index));
  std::vector<svc::VerifyRequestFrame> frames(labellings.size());
  for (std::size_t i = 0; i < labellings.size(); ++i) {
    frames[i].problemRef = svc::ProblemRefKind::kFingerprint;
    frames[i].fingerprint = fingerprint;
    frames[i].countViolations = true;
    frames[i].n = std::uint32_t(labellings[i].n);
    frames[i].labels = labellings[i].labels;
  }
  const std::vector<std::uint8_t> cyclePayload = classifyPayload("cvc:3");
  const std::vector<std::uint8_t> gridPayload = classifyPayload("vc:5");
  SpanLog& log = out->spans;
  std::uint32_t requestId = 1;

  for (std::int64_t i = 0; nowNs() < deadlineNs; ++i) {
    const int slot = int(i % 32);
    const std::uint64_t spanId =
        (std::uint64_t(index + 1) << 40) | std::uint64_t(i);
    const std::uint32_t id = requestId++;
    ++out->outcomes.attempted;
    try {
      const std::int64_t start = nowNs();
      const auto done = [&](std::vector<double>& us, std::vector<double>& at) {
        const std::int64_t end = nowNs();
        us.push_back(double(end - start) * 1e-3);
        at.push_back(double(end - windowStartNs) * 1e-6);
      };
      if (slot == 7 || slot == 15) {
        const bool cycle = slot == 7;
        ScopedSpan root(log, cycle ? "serve.classify_cycle" : "serve.classify_grid",
                        spanId);
        std::optional<svc::ServiceClient::Reply> reply;
        {
          ScopedSpan wire(log, "service.wire", spanId, root.index());
          client.sendFrame(FrameType::kClassify, id,
                           cycle ? cyclePayload : gridPayload);
          reply = client.receive();
        }
        if (!reply || reply->type == FrameType::kError) {
          ++out->outcomes.errored;
        } else if (reply->type != FrameType::kClassifyResult) {
          ++out->outcomes.refused;
        } else {
          ++out->outcomes.answered;
          if (!isLogStar(payloadText(*reply))) ++out->outcomes.wrong;
          if (cycle) {
            done(out->classifyCycleUs, out->classifyCycleAt);
          } else {
            done(out->classifyGridUs, out->classifyGridAt);
          }
        }
      } else if (slot == 23) {
        ScopedSpan root(log, "serve.stats", spanId);
        std::optional<svc::ServiceClient::Reply> reply;
        {
          ScopedSpan wire(log, "service.wire", spanId, root.index());
          client.sendFrame(FrameType::kStats, id, {});
          reply = client.receive();
        }
        if (!reply || reply->type == FrameType::kError) {
          ++out->outcomes.errored;
        } else if (reply->type != FrameType::kStatsResult) {
          ++out->outcomes.refused;
        } else {
          ++out->outcomes.answered;
          if (reply->payload.empty() || reply->payload[0] != '{') {
            ++out->outcomes.wrong;
          }
          done(out->statsUs, out->statsAt);
        }
      } else {
        const std::size_t which = rng.below(labellings.size());
        ScopedSpan root(log, "serve.verify", spanId);
        std::vector<std::uint8_t> payload;
        {
          ScopedSpan encode(log, "service.encode", spanId, root.index());
          payload = svc::encodeVerifyRequest(frames[which]);
        }
        std::optional<svc::ServiceClient::Reply> reply;
        {
          ScopedSpan wire(log, "service.wire", spanId, root.index());
          client.sendFrame(FrameType::kVerify, id, payload);
          reply = client.receive();
        }
        if (!reply || reply->type == FrameType::kError) {
          ++out->outcomes.errored;
        } else if (reply->type != FrameType::kVerifyResult) {
          ++out->outcomes.refused;
        } else {
          svc::VerifyResultFrame result;
          {
            ScopedSpan decode(log, "service.decode", spanId, root.index());
            result = svc::decodeVerifyResult(reply->payload);
          }
          ++out->outcomes.answered;
          if (!verifyCorrect(result, labellings[which].expected,
                             isDegraded(result))) {
            ++out->outcomes.wrong;
          }
          done(out->verifyUs, out->verifyAt);
          out->engineUs.push_back(double(result.nanos) * 1e-3);
        }
      }
    } catch (const std::exception&) {
      ++out->outcomes.errored;
      if (!client.connected()) client.reconnect();
    }
  }
}

/// Thread entry: a connection that cannot be (re)established ends this
/// client's loop as one errored request.
void mixClientLoop(int port, int index, const RunOptions& options,
                   const std::vector<Labelling>& labellings,
                   std::uint64_t fingerprint, std::int64_t windowStartNs,
                   std::int64_t deadlineNs, std::uint64_t streamBase,
                   MixClient* out) {
  try {
    runMixClient(port, index, options, labellings, fingerprint, windowStartNs,
                 deadlineNs, streamBase, out);
  } catch (const std::exception&) {
    ++out->outcomes.errored;
  }
}

/// Daemon start, the one grid classification, fingerprint priming and a
/// short warm-up: everything before the measured window.
MixDaemon setUpMixDaemon(const std::vector<Labelling>& labellings,
                         Outcomes& outcomes) {
  MixDaemon out;
  svc::ServiceConfig config;
  config.serviceThreads = 2;
  config.engineThreads = 1;
  out.daemon = std::make_unique<svc::VerificationService>(config);
  out.daemon->start();
  svc::ServiceClient client = svc::ServiceClient::connectTcp(out.daemon->port());

  svc::ClassifyRequestFrame grid;
  grid.spec = "vc:5";
  ++outcomes.attempted;
  const std::optional<std::string> report = client.classify(grid);
  if (!report) {
    ++outcomes.refused;
  } else {
    ++outcomes.answered;
    if (!isLogStar(*report)) ++outcomes.wrong;
  }

  svc::VerifyRequestFrame bySpec;
  bySpec.spec = "vc:4";
  bySpec.countViolations = true;
  bySpec.n = std::uint32_t(labellings[0].n);
  bySpec.labels = labellings[0].labels;
  ++outcomes.attempted;
  const auto first = client.verify(bySpec);
  if (!first) {
    ++outcomes.refused;
  } else {
    ++outcomes.answered;
    if (!verifyCorrect(*first, labellings[0].expected, false)) ++outcomes.wrong;
    out.fingerprint = first->fingerprint;
  }

  svc::VerifyRequestFrame byFingerprint = bySpec;
  byFingerprint.spec.clear();
  byFingerprint.problemRef = svc::ProblemRefKind::kFingerprint;
  byFingerprint.fingerprint = out.fingerprint;
  for (int i = 0; i < 64; ++i) {
    const Labelling& l = labellings[std::size_t(i) % labellings.size()];
    byFingerprint.labels = l.labels;
    ++outcomes.attempted;
    const auto result = client.verify(byFingerprint);
    if (!result) {
      ++outcomes.refused;
      continue;
    }
    ++outcomes.answered;
    if (!verifyCorrect(*result, l.expected, false)) ++outcomes.wrong;
  }
  return out;
}

struct MixWindow {
  std::vector<MixClient> clients;
  double seconds = 0;
  double cpuSeconds = 0;  // the whole process: clients and daemon
};

MixWindow runMixWindow(const MixDaemon& daemon, const RunOptions& options,
                       const std::vector<Labelling>& labellings,
                       double seconds, bool traced, std::uint64_t streamBase) {
  MixWindow window;
  window.clients.resize(2);
  for (MixClient& c : window.clients) c.spans = SpanLog(traced);
  const std::int64_t cpuStart = processCpuNs();
  const std::int64_t start = nowNs();
  const std::int64_t deadline = start + std::int64_t(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back(mixClientLoop, daemon.daemon->port(), i,
                         std::cref(options), std::cref(labellings),
                         daemon.fingerprint, start, deadline, streamBase,
                         &window.clients[std::size_t(i)]);
  }
  for (std::thread& t : threads) t.join();
  window.seconds = secondsSince(start);
  window.cpuSeconds = double(processCpuNs() - cpuStart) * 1e-9;
  return window;
}

void writeMixWindow(Json& json, const MixWindow& window) {
  const auto merged = [&](std::vector<double> MixClient::*field) {
    std::vector<double> out;
    for (const MixClient& c : window.clients) {
      out.insert(out.end(), (c.*field).begin(), (c.*field).end());
    }
    return out;
  };
  Outcomes outcomes;
  for (const MixClient& c : window.clients) outcomes.add(c.outcomes);
  json.beginObject();
  json.key("seconds").value(window.seconds);
  json.key("cpu_s").value(window.cpuSeconds);
  outcomes.write(json);
  json.key("verify_us").array(merged(&MixClient::verifyUs));
  json.key("verify_at_ms").array(merged(&MixClient::verifyAt));
  json.key("engine_us").array(merged(&MixClient::engineUs));
  json.key("classify_cycle_us").array(merged(&MixClient::classifyCycleUs));
  json.key("classify_cycle_at_ms").array(merged(&MixClient::classifyCycleAt));
  json.key("classify_grid_us").array(merged(&MixClient::classifyGridUs));
  json.key("classify_grid_at_ms").array(merged(&MixClient::classifyGridAt));
  json.key("stats_us").array(merged(&MixClient::statsUs));
  json.key("stats_at_ms").array(merged(&MixClient::statsAt));
  if (window.clients[0].spans.enabled()) {
    json.key("spans");
    writeSpans(json, {&window.clients[0].spans, &window.clients[1].spans});
  }
  json.endObject();
}

// --- serve_overload -------------------------------------------------------------

enum Status : int {
  kNone = 0, kOk = 1, kWrong = 2, kBusy = 3, kTimeout = 4, kError = 5, kDropped = 6
};

/// A request the client could not send within this long of its due time is
/// dropped unsent: it could no longer be answered within the goodput limit
/// (run.py's OVERLOAD_LIMIT_US), and sending it would only grow a backlog
/// that outlives the host stall that caused it.
constexpr std::int64_t kMaxSendLagNs = 10'000'000;

struct OverloadConnection {
  std::vector<std::int64_t> dueNs, sendStartNs, sendEndNs, doneNs, engineNs;
  std::vector<int> status, which;
  std::vector<std::uint8_t> degraded;
  std::atomic<std::int64_t> sent{-1};  // frames sent; published before the sentinel
};

void overloadSender(svc::ServiceClient* client, OverloadConnection* conn,
                    const std::vector<std::vector<std::uint8_t>>* payloads) {
  std::int64_t sent = 0;
  try {
    for (std::size_t k = 0; k < conn->dueNs.size(); ++k) {
      const std::int64_t wait = conn->dueNs[k] - nowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const std::int64_t start = nowNs();
      if (start - conn->dueNs[k] > kMaxSendLagNs) {
        conn->status[k] = kDropped;
        continue;
      }
      conn->sendStartNs[k] = start;
      // Header and payload as two writes: the pre-encoded payload is sent
      // in place, so the generator pays no per-request copy.
      const std::vector<std::uint8_t>& payload =
          (*payloads)[std::size_t(conn->which[k])];
      std::vector<std::uint8_t> header;
      svc::wire::appendHeader(header, FrameType::kVerify, std::uint32_t(k + 1),
                              std::uint32_t(payload.size()));
      client->sendRaw(header);
      client->sendRaw(payload);
      conn->sendEndNs[k] = nowNs();
      ++sent;
    }
  } catch (const std::exception&) {
    // A dead connection ends this schedule; the unsent remainder counts as
    // errored.
  }
  conn->sent.store(sent);
  try {
    client->sendFrame(FrameType::kPing, 0xffffffffu, {});
  } catch (const std::exception&) {
  }
}

void overloadReceiver(svc::ServiceClient* client, OverloadConnection* conn,
                      const std::vector<Labelling>* labellings) {
  std::int64_t received = 0;
  bool sentinel = false;
  try {
    while (!sentinel || received < conn->sent.load()) {
      std::optional<svc::ServiceClient::Reply> reply = client->receive();
      if (!reply) break;
      const std::int64_t done = nowNs();
      if (reply->requestId == 0xffffffffu) {
        sentinel = true;
        continue;
      }
      const std::size_t k = reply->requestId - 1;
      if (k >= conn->status.size() || conn->status[k] != kNone) continue;
      ++received;
      conn->doneNs[k] = done;
      switch (reply->type) {
        case FrameType::kVerifyResult: {
          const svc::VerifyResultFrame result =
              svc::decodeVerifyResult(reply->payload);
          const bool degraded = isDegraded(result);
          conn->degraded[k] = degraded;
          conn->engineNs[k] = result.nanos;
          conn->status[k] = verifyCorrect(result,
                                          (*labellings)[std::size_t(conn->which[k])].expected,
                                          degraded)
                                ? kOk
                                : kWrong;
          break;
        }
        case FrameType::kBusy: conn->status[k] = kBusy; break;
        case FrameType::kTimeout: conn->status[k] = kTimeout; break;
        default: conn->status[k] = kError; break;
      }
    }
  } catch (const std::exception&) {
    // Unanswered requests stay kNone and count as errored.
  }
}

struct OverloadDaemon {
  std::unique_ptr<svc::VerificationService> daemon;
};

OverloadDaemon setUpOverloadDaemon(
    const std::vector<std::vector<std::uint8_t>>& payloads,
    const std::vector<Labelling>& labellings, Outcomes& outcomes) {
  OverloadDaemon out;
  svc::ServiceConfig config;
  config.serviceThreads = 1;
  config.engineThreads = 1;
  config.maxQueuedPerClient = 8;
  config.requestDeadlineMs = kOverloadDeadlineMs;
  out.daemon = std::make_unique<svc::VerificationService>(config);
  out.daemon->start();
  svc::ServiceClient client = svc::ServiceClient::connectTcp(out.daemon->port());
  for (int i = 0; i < 32; ++i) {
    const std::size_t which = std::size_t(i) % payloads.size();
    ++outcomes.attempted;
    client.sendFrame(FrameType::kVerify, std::uint32_t(i + 1), payloads[which]);
    const auto reply = client.receive();
    if (reply && (reply->type == FrameType::kBusy ||
                  reply->type == FrameType::kTimeout)) {
      // A refusal, as in the measured window: the 10 ms queue deadline
      // expires whenever the host stalls the daemon for that long.
      ++outcomes.refused;
      continue;
    }
    if (!reply || reply->type != FrameType::kVerifyResult) {
      ++outcomes.errored;
      continue;
    }
    ++outcomes.answered;
    const svc::VerifyResultFrame result = svc::decodeVerifyResult(reply->payload);
    if (!verifyCorrect(result, labellings[which].expected, isDegraded(result))) {
      ++outcomes.wrong;
    }
  }
  return out;
}

void runOverloadWindow(const OverloadDaemon& daemon, const RunOptions& options,
                       const std::vector<Labelling>& labellings,
                       const std::vector<std::vector<std::uint8_t>>& payloads,
                       double seconds, bool traced, std::uint64_t stream,
                       Json& json) {
  const double periodNs = 2e9 / kOverloadRate;  // per connection
  const std::int64_t count = std::int64_t(seconds * 1e9 / periodNs);
  Rng rng(options.seed, stream);
  // The schedule: the two connections interleave at a seeded offset.
  const double phase = rng.unit() * periodNs;
  const std::int64_t start = nowNs() + 20'000'000;  // 20 ms to spin up
  std::vector<std::unique_ptr<OverloadConnection>> conns;
  std::vector<svc::ServiceClient> clients;
  for (int c = 0; c < 2; ++c) {
    auto conn = std::make_unique<OverloadConnection>();
    const std::size_t size = std::size_t(count);
    conn->dueNs.resize(size);
    for (std::size_t k = 0; k < size; ++k) {
      conn->dueNs[k] = start + std::int64_t(phase + double(c) * periodNs / 2 +
                                            double(k) * periodNs);
    }
    conn->sendStartNs.assign(size, 0);
    conn->sendEndNs.assign(size, 0);
    conn->doneNs.assign(size, 0);
    conn->engineNs.assign(size, 0);
    conn->status.assign(size, kNone);
    conn->degraded.assign(size, 0);
    conn->which.resize(size);
    for (int& w : conn->which) w = int(rng.below(payloads.size()));
    conns.push_back(std::move(conn));
    clients.push_back(svc::ServiceClient::connectTcp(daemon.daemon->port()));
    clients.back().setDeadlineMs(5000);
  }
  const std::int64_t cpuStart = processCpuNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back(overloadReceiver, &clients[std::size_t(c)],
                         conns[std::size_t(c)].get(), &labellings);
    threads.emplace_back(overloadSender, &clients[std::size_t(c)],
                         conns[std::size_t(c)].get(), &payloads);
  }
  for (std::thread& t : threads) t.join();
  const double cpuSeconds = double(processCpuNs() - cpuStart) * 1e-9;

  SpanLog spans(traced);
  std::vector<double> dueMs, latencyUs, lagUs, engineUs;
  std::vector<int> status;
  std::int64_t degraded = 0;
  Outcomes outcomes;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    const OverloadConnection& conn = *conns[c];
    for (std::size_t k = 0; k < conn.dueNs.size(); ++k) {
      ++outcomes.attempted;
      const int s = conn.status[k];
      status.push_back(s);
      dueMs.push_back(double(conn.dueNs[k] - start) * 1e-6);
      if (conn.sendStartNs[k] != 0) {
        lagUs.push_back(double(conn.sendStartNs[k] - conn.dueNs[k]) * 1e-3);
      }
      latencyUs.push_back(s == kNone ? -1.0
                                     : double(conn.doneNs[k] - conn.dueNs[k]) * 1e-3);
      if (s == kOk || s == kWrong) {
        ++outcomes.answered;
        engineUs.push_back(double(conn.engineNs[k]) * 1e-3);
        degraded += conn.degraded[k];
        if (s == kWrong) ++outcomes.wrong;
      } else if (s == kBusy || s == kTimeout) {
        ++outcomes.refused;
      } else if (s == kDropped) {
        ++outcomes.dropped;
      } else {
        ++outcomes.errored;
      }
      if (traced && s != kNone && s != kDropped) {
        const std::uint64_t id = (std::uint64_t(c + 1) << 40) | k;
        const int root = spans.record("overload.request", id, -1,
                                      conn.dueNs[k], conn.doneNs[k]);
        spans.record("overload.send", id, root, conn.sendStartNs[k],
                     conn.sendEndNs[k]);
      }
    }
  }
  json.beginObject();
  json.key("seconds").value(double(count) * periodNs * 1e-9);
  json.key("rate").value(kOverloadRate);
  json.key("cpu_s").value(cpuSeconds);
  outcomes.write(json);
  json.key("degraded").value(degraded);
  json.key("status").array(status);
  json.key("due_ms").array(dueMs);
  json.key("latency_us").array(latencyUs);
  json.key("lag_us").array(lagUs);
  json.key("engine_us").array(engineUs);
  if (traced) {
    json.key("spans");
    writeSpans(json, {&spans});
  }
  json.endObject();
}

/// The daemon's stats frame. A stats request is refused like any other
/// (kBusy, or kTimeout once the overload daemon's 10 ms queue deadline
/// passes while the host stalls it); it was not executed then, so it is
/// sent again.
std::string statsOf(int port) {
  svc::ServiceClient client = svc::ServiceClient::connectTcp(port);
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      if (std::optional<std::string> stats = client.stats()) return *stats;
    } catch (const svc::TimeoutError&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  throw std::runtime_error("stats: refused 100 times in a row");
}

}  // namespace

void runServeMix(const RunOptions& options, Json& json) {
  const std::vector<Labelling> labellings =
      makeLabellings(options, kMixSide, kMixLabellings, 100);
  Outcomes setupOutcomes;
  std::vector<double> setupS, setupCpuS;
  MixDaemon daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon.daemon) daemon.daemon->stop();
    const std::int64_t start = nowNs();
    const std::int64_t cpuStart = processCpuNs();
    daemon = setUpMixDaemon(labellings, setupOutcomes);
    setupS.push_back(secondsSince(start));
    setupCpuS.push_back(double(processCpuNs() - cpuStart) * 1e-9);
  }

  json.key("serve_mix").beginObject();
  json.key("setup_s").array(setupS);
  json.key("setup_cpu_s").array(setupCpuS);
  json.key("setup");
  json.beginObject();
  setupOutcomes.write(json);
  json.endObject();
  json.key("expected").beginArray();
  for (const Labelling& l : labellings) json.value(l.expected);
  json.endArray();
  if (options.trace) {
    // Tracing overhead: an untraced half then a traced half.
    json.key("untraced");
    writeMixWindow(json, runMixWindow(daemon, options, labellings,
                                      options.seconds / 2, false, 110));
    json.key("window");
    writeMixWindow(json, runMixWindow(daemon, options, labellings,
                                      options.seconds / 2, true, 120));
    // The cycle layer in-process: rebuilding cvc:3 from its spec (what the
    // daemon does per request) and classifying the built problem.
    std::vector<double> buildUs, classifyUs;
    std::int64_t cycleWrong = 0;
    for (int i = 0; i < 200; ++i) {
      std::int64_t t0 = nowNs();
      const lclgrid::cycle::CycleLcl problem = svc::buildCycleProblem("cvc:3");
      buildUs.push_back(double(nowNs() - t0) * 1e-3);
      t0 = nowNs();
      const auto result = lclgrid::engine::classify(problem);
      classifyUs.push_back(double(nowNs() - t0) * 1e-3);
      if (result.complexity != "Theta(log* n)") ++cycleWrong;
    }
    json.key("cycle_wrong").value(cycleWrong);
    json.key("cycle_build_us").array(buildUs);
    json.key("cycle_classify_us").array(classifyUs);
  } else {
    json.key("window");
    writeMixWindow(json, runMixWindow(daemon, options, labellings,
                                      options.seconds, false, 120));
  }
  json.key("stats").raw(statsOf(daemon.daemon->port()));
  json.endObject();
  daemon.daemon->stop();
}

void runServeOverload(const RunOptions& options, Json& json) {
  const std::vector<Labelling> labellings =
      makeLabellings(options, kOverloadSide, kOverloadLabellings, 200);
  std::vector<svc::VerifyRequestFrame> frames(labellings.size());
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < labellings.size(); ++i) {
    frames[i].spec = "vc:4";
    frames[i].countViolations = true;
    frames[i].n = std::uint32_t(kOverloadSide);
    frames[i].labels = labellings[i].labels;
    allowDegrade(frames[i]);
  }
  Outcomes setupOutcomes;
  std::vector<double> setupS, setupCpuS;
  OverloadDaemon daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon.daemon) daemon.daemon->stop();
    const std::int64_t start = nowNs();
    const std::int64_t cpuStart = processCpuNs();
    payloads.clear();
    for (const svc::VerifyRequestFrame& f : frames) {
      payloads.push_back(svc::encodeVerifyRequest(f));
    }
    daemon = setUpOverloadDaemon(payloads, labellings, setupOutcomes);
    setupS.push_back(secondsSince(start));
    setupCpuS.push_back(double(processCpuNs() - cpuStart) * 1e-9);
  }

  json.key("serve_overload").beginObject();
  json.key("setup_s").array(setupS);
  json.key("setup_cpu_s").array(setupCpuS);
  json.key("setup");
  json.beginObject();
  setupOutcomes.write(json);
  json.endObject();
  json.key("payload_bytes").value(std::int64_t(payloads[0].size()));
  if (options.trace) {
    json.key("untraced");
    runOverloadWindow(daemon, options, labellings, payloads,
                      options.seconds / 2, false, 210, json);
    json.key("window");
    runOverloadWindow(daemon, options, labellings, payloads,
                      options.seconds / 2, true, 220, json);
    std::vector<double> encodeUs;
    std::int64_t encodeWrong = 0;
    for (int rep = 0; rep < 16; ++rep) {
      for (const svc::VerifyRequestFrame& f : frames) {
        const std::int64_t t0 = nowNs();
        const std::vector<std::uint8_t> bytes = svc::encodeVerifyRequest(f);
        encodeUs.push_back(double(nowNs() - t0) * 1e-3);
        if (bytes.size() != payloads[0].size()) ++encodeWrong;
      }
    }
    json.key("encode_wrong").value(encodeWrong);
    json.key("encode_us").array(encodeUs);
  } else {
    json.key("window");
    runOverloadWindow(daemon, options, labellings, payloads, options.seconds,
                      false, 220, json);
  }
  json.key("stats").raw(statsOf(daemon.daemon->port()));
  json.endObject();
  daemon.daemon->stop();
}

}  // namespace perfbench
