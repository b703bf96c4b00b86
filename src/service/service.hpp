// The verification service daemon (docs/service.md): a long-lived process
// hosting the compiled-table engine behind a socket, so repeated
// verification / classification requests amortise table compilation,
// bit-slice plan construction and oracle runs across calls instead of
// paying them per process.
//
// Architecture (one object, in-process embeddable -- the tests and
// bench_service run the daemon in the same process; lclgrid_serve wraps it
// in a binary):
//
//  * an acceptor thread listens on a Unix socket or TCP loopback and spawns
//    one reader thread per connection (bounded by maxConnections);
//  * readers parse length-prefixed frames and admit requests into a
//    central queue, bounding each client to maxQueuedPerClient admitted
//    requests -- an over-limit request is answered with an explicit kBusy
//    frame and not executed, never silently dropped;
//  * serviceThreads worker threads drain the queue and execute requests
//    through the front doors verify(VerifyRequest) and engine::classify();
//  * problems resolve through a fingerprint-indexed LRU cache of compiled
//    problems (spec -> GridLcl/GridLclD, fingerprint -> GridLcl; a GridLcl
//    verifies as its d = 2 view GridLcl::asD()) and oracle reports reuse
//    an engine::ReportCache, both capacity-bounded;
//  * inline label batches are handed to the engine zero-copy: the int32
//    region of the receive buffer is spanned directly into
//    VerifyRequest::labels (the wire layout 4-byte-aligns it).
//
// The engine pool: requests execute with EngineOptions::threads == the
// requested lane count capped at config.engineThreads. One lane (the
// default engineThreads = 1) runs a request inline on its worker, with no
// pool -- the daemon's parallelism is across requests (serviceThreads),
// which is the high-QPS regime. More lanes parallelise single large
// requests instead, on the one ThreadPool(engineThreads) the daemon builds
// at construction and shares between its workers, so no request creates a
// thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/family_sweep.hpp"
#include "engine/thread_pool.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "service/protocol.hpp"
#include "support/lru_cache.hpp"
#include "support/telemetry.hpp"

namespace lclgrid::service {

struct ServiceConfig {
  /// Listen on this Unix socket path when non-empty; else TCP on loopback.
  std::string unixSocketPath;
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int tcpPort = 0;
  /// Worker threads executing requests (>= 1).
  int serviceThreads = 2;
  /// EngineOptions::threads per request (see the header comment).
  int engineThreads = 1;
  /// Admitted (queued + executing) requests per client before kBusy.
  int maxQueuedPerClient = 8;
  /// Compiled problems kept by the spec/fingerprint LRU.
  std::size_t problemCacheCapacity = 64;
  /// Oracle reports kept by the classification LRU.
  std::size_t reportCacheCapacity = 64;
  /// Frames above this payload size are a framing error (connection
  /// closes); bounds a client's buffer demand.
  std::size_t maxPayloadBytes = std::size_t{64} << 20;
  /// Concurrent connections; further accepts are closed immediately.
  int maxConnections = 64;
  /// Per-request deadline: a request still queued this many ms after
  /// admission is answered kTimeout instead of executed (0 = no deadline).
  /// Bounds queue-wait latency; an already-executing request is never
  /// preempted (docs/robustness.md).
  int requestDeadlineMs = 0;
  /// SO_SNDTIMEO on every connection socket: bounds a worker blocked
  /// writing a response to a wedged peer (0 = no bound).
  int sendTimeoutMs = 5000;
  /// stop() drains admitted requests for this long, then answers the still
  /// queued remainder with kTimeout -- typed, never a silent drop.
  /// The request currently executing on each worker still completes.
  int drainTimeoutMs = 2000;
};

/// Point-in-time service counters (plain values, available regardless of
/// whether telemetry is compiled in; also exported in the stats frame).
struct ServiceCounters {
  std::int64_t requests = 0;
  std::int64_t verifyRequests = 0;
  std::int64_t classifyRequests = 0;
  std::int64_t busyRejections = 0;
  std::int64_t errors = 0;
  std::int64_t connectionsAccepted = 0;
  std::int64_t connectionsRejected = 0;
  std::int64_t queueDepth = 0;      // now
  std::int64_t queuePeakDepth = 0;  // high-water mark
  /// kTimeout responses: queue-wait deadline expiries plus requests still
  /// queued when the drain window closed. Never silently dropped -- every
  /// one was answered.
  std::int64_t timeouts = 0;
};

class VerificationService {
 public:
  explicit VerificationService(ServiceConfig config);
  ~VerificationService();  // stop()s if still running
  VerificationService(const VerificationService&) = delete;
  VerificationService& operator=(const VerificationService&) = delete;

  /// Binds, listens and spawns the acceptor + workers; throws
  /// std::runtime_error on socket failures.
  void start();
  /// Graceful teardown: stops accepting, unblocks readers/workers, joins
  /// every thread. Idempotent.
  void stop();
  /// Blocks until a client's kShutdown request, noteSignalShutdown() or
  /// stop().
  void waitForShutdown();
  /// Async-signal-safe shutdown request (the daemon binary's SIGINT /
  /// SIGTERM handler): one atomic store, observed by waitForShutdown's
  /// bounded waits.
  void noteSignalShutdown() { shutdownRequested_.store(true); }

  /// The resolved TCP port (after start(); -1 on a Unix socket).
  int port() const { return port_; }
  const ServiceConfig& config() const { return config_; }

  ServiceCounters counters() const;
  /// The stats document served by kStats: {"metrics": <telemetry
  /// metrics_snapshot>, "service": {counters, queue, caches}}.
  std::string statsJson() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex writeMutex;
    /// Admitted requests not yet answered: the budget maxQueuedPerClient
    /// bounds. A slot is released before its reply is written, so a client
    /// that sends its next request on the reply always finds it free.
    std::atomic<int> admitted{0};
    /// Admitted requests whose worker has not finished with the connection
    /// (their reply may still be in write).
    std::atomic<int> inflight{0};
    /// Set by the reader on exit; the side that observes inflight == 0
    /// afterwards closes the fd (reader or the last worker, whichever is
    /// later -- responses to a disconnected client must not write a
    /// recycled descriptor).
    std::atomic<bool> closeRequested{false};
  };
  struct Task {
    std::shared_ptr<Connection> conn;
    wire::FrameType type = wire::FrameType::kPing;
    std::uint32_t requestId = 0;
    std::vector<std::uint8_t> payload;
    /// Admission time; the worker enforces requestDeadlineMs against it.
    std::chrono::steady_clock::time_point admitted;
    /// The task still holds its client's admission slot.
    bool holdsSlot = false;
  };

  /// Compiled problems by spec string, with a fingerprint index maintained
  /// through the LRU's eviction callback (so fingerprint refs only resolve
  /// while the problem is cached). 2D problems only in the fingerprint
  /// index -- VerifyRequest's resolver is 2D, matching the service contract.
  class ProblemCache {
   public:
    explicit ProblemCache(std::size_t capacity);
    std::shared_ptr<const GridLcl> bySpec(const std::string& spec);
    std::shared_ptr<const GridLclD> bySpecD(const std::string& spec);
    std::shared_ptr<const GridLcl> byFingerprint(std::uint64_t fingerprint);
    support::LruStats stats() const;

   private:
    mutable std::mutex mutex_;
    support::LruCache<std::string, std::shared_ptr<const GridLcl>> specs_;
    support::LruCache<std::string, std::shared_ptr<const GridLclD>> specsD_;
    std::unordered_map<std::uint64_t, std::shared_ptr<const GridLcl>>
        fingerprints_;
  };

  void acceptLoop();
  void connectionLoop(std::shared_ptr<Connection> conn);
  /// Admission control: answers kBusy over the client's budget, else
  /// enqueues.
  void admit(Task task);
  void workerLoop();
  void execute(Task& task);
  void requestShutdown();
  void closeConnection(Connection& conn);
  /// Answers a task kTimeout without executing it; counts it.
  void sendTimeout(Task& task);
  /// Releases the task's admission slot (once), then writes its reply.
  void reply(Task& task, wire::FrameType type,
             std::span<const std::uint8_t> payload);
  /// Gives the task's admission slot back; a no-op once it has.
  void releaseSlot(Task& task);

  VerifyResultFrame runVerify(const VerifyRequestFrame& frame);
  std::string runClassify(const ClassifyRequestFrame& frame);

  void sendFrame(Connection& conn, wire::FrameType type,
                 std::uint32_t requestId,
                 std::span<const std::uint8_t> payload);
  void sendError(Connection& conn, std::uint32_t requestId,
                 const std::string& message);

  ServiceConfig config_;
  int listenFd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdownRequested_{false};
  /// stop() is draining: admissions answer kBusy, keeping the drain bound.
  std::atomic<bool> draining_{false};
  /// The drain deadline expired: workers answer queued tasks kTimeout.
  std::atomic<bool> cancelQueued_{false};
  /// Queue depth mirrored atomically for stop()'s lock-free drain wait.
  std::atomic<std::int64_t> queueDepthAtomic_{0};
  /// Requests currently executing on workers (the drain wait's second
  /// condition next to an empty queue).
  std::atomic<int> executing_{0};
  std::mutex shutdownMutex_;
  std::condition_variable shutdownCv_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex connectionsMutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> connectionThreads_;
  std::atomic<int> liveConnections_{0};

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<Task> queue_;

  ProblemCache problems_;
  engine::ReportCache reports_;
  /// The multi-lane requests' pool (null when engineThreads == 1).
  std::unique_ptr<engine::ThreadPool> enginePool_;

  mutable std::mutex countersMutex_;
  ServiceCounters counters_;
  support::telemetry::Counter requestCounter_;
  support::telemetry::Counter busyCounter_;
  support::telemetry::Counter errorCounter_;
  support::telemetry::Counter timeoutCounter_;
  support::telemetry::Gauge queueGauge_;
};

}  // namespace lclgrid::service
