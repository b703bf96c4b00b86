#include "service/service.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "grid/torusd.hpp"
#include "lcl/verify_api.hpp"
#include "service/problem_registry.hpp"
#include "support/faultpoint.hpp"
#include "support/json.hpp"

namespace lclgrid::service {

namespace {

namespace fp = support::faultpoint;

using support::JsonWriter;

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("service: " + what + ": " + std::strerror(errno));
}

/// Blocking read of exactly `bytes`, looping over EINTR and partial
/// recvs; false on EOF or a hard error (the connection is then treated as
/// disconnected, mid-frame or not). The service.read_request fault point
/// injects a hard recv error (errno) or clamps one recv to a partial read
/// (short), which the loop must absorb.
bool readFully(int fd, void* data, std::size_t bytes) {
  long long shortClamp = 0;
  {
    const auto fault = FAULT_POINT("service.read_request");
    if (fault.action == fp::Action::kErrno) {
      errno = fault.errnoValue;
      return false;
    }
    if (fault.action == fp::Action::kShort) shortClamp = fault.arg;
  }
  auto* out = static_cast<std::uint8_t*>(data);
  while (bytes > 0) {
    std::size_t ask = bytes;
    if (shortClamp > 0) {
      ask = std::min(ask, static_cast<std::size_t>(shortClamp));
      shortClamp = 0;
    }
    const ssize_t got = ::recv(fd, out, ask, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Best-effort blocking write, looping over EINTR and partial sends; a
/// failure (client went away mid-response, or send timed out against
/// SO_SNDTIMEO) is deliberately ignored -- the reader side notices the
/// disconnect. The service.write_response fault point drops the whole
/// frame (the client's deadline turns that into a typed timeout), injects
/// a hard send error, or clamps one send short.
void writeFully(int fd, const void* data, std::size_t bytes) {
  long long shortClamp = 0;
  {
    const auto fault = FAULT_POINT("service.write_response");
    if (fault.action == fp::Action::kDrop ||
        fault.action == fp::Action::kErrno) {
      return;
    }
    if (fault.action == fp::Action::kShort) shortClamp = fault.arg;
  }
  const auto* in = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    std::size_t ask = bytes;
    if (shortClamp > 0) {
      ask = std::min(ask, static_cast<std::size_t>(shortClamp));
      shortClamp = 0;
    }
    const ssize_t put = ::send(fd, in, ask, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return;
    }
    in += put;
    bytes -= static_cast<std::size_t>(put);
  }
}

}  // namespace

// --- ProblemCache -----------------------------------------------------------

VerificationService::ProblemCache::ProblemCache(std::size_t capacity)
    : specs_(capacity, "service.problem_cache"),
      specsD_(capacity, "service.problem_cache_d") {
  // Keep the fingerprint index consistent with the LRU: an evicted problem
  // must stop resolving by fingerprint (the index would otherwise pin its
  // memory forever and grow without bound).
  specs_.setEvictionCallback(
      [this](const std::string&, const std::shared_ptr<const GridLcl>& lcl) {
        if (!lcl->hasTable()) return;
        const auto it = fingerprints_.find(lcl->table().fingerprint());
        if (it != fingerprints_.end() && it->second.get() == lcl.get()) {
          fingerprints_.erase(it);
        }
      });
}

std::shared_ptr<const GridLcl> VerificationService::ProblemCache::bySpec(
    const std::string& spec) {
  std::lock_guard lock(mutex_);
  if (std::optional hit = specs_.get(spec)) return *hit;
  auto built = std::make_shared<const GridLcl>(buildProblem(spec));
  specs_.put(spec, built);
  if (built->hasTable()) {
    fingerprints_[built->table().fingerprint()] = built;
  }
  return built;
}

std::shared_ptr<const GridLclD> VerificationService::ProblemCache::bySpecD(
    const std::string& spec) {
  std::lock_guard lock(mutex_);
  if (std::optional hit = specsD_.get(spec)) return *hit;
  auto built = std::make_shared<const GridLclD>(buildProblemD(spec));
  specsD_.put(spec, built);
  return built;
}

std::shared_ptr<const GridLcl>
VerificationService::ProblemCache::byFingerprint(std::uint64_t fingerprint) {
  std::lock_guard lock(mutex_);
  const auto it = fingerprints_.find(fingerprint);
  return it == fingerprints_.end() ? nullptr : it->second;
}

support::LruStats VerificationService::ProblemCache::stats() const {
  std::lock_guard lock(mutex_);
  const support::LruStats a = specs_.stats();
  const support::LruStats b = specsD_.stats();
  return {a.hits + b.hits, a.misses + b.misses, a.evictions + b.evictions,
          a.entries + b.entries};
}

// --- lifecycle --------------------------------------------------------------

VerificationService::VerificationService(ServiceConfig config)
    : config_(std::move(config)),
      problems_(config_.problemCacheCapacity),
      reports_(config_.reportCacheCapacity, "service.report_cache"),
      requestCounter_(telemetry::counter("service.requests")),
      busyCounter_(telemetry::counter("service.busy")),
      errorCounter_(telemetry::counter("service.errors")),
      timeoutCounter_(telemetry::counter("service.timeouts")),
      queueGauge_(telemetry::gauge("service.queue_depth")) {
  config_.serviceThreads = std::max(1, config_.serviceThreads);
  config_.engineThreads = std::max(1, config_.engineThreads);
  config_.maxQueuedPerClient = std::max(1, config_.maxQueuedPerClient);
  config_.maxConnections = std::max(1, config_.maxConnections);
  if (config_.engineThreads > 1) {
    enginePool_ = std::make_unique<engine::ThreadPool>(config_.engineThreads);
  }
}

VerificationService::~VerificationService() { stop(); }

void VerificationService::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("service: already started");
  }
  shutdownRequested_.store(false);
  draining_.store(false);
  cancelQueued_.store(false);
  if (!config_.unixSocketPath.empty()) {
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      running_.store(false);
      throwErrno("socket(AF_UNIX)");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unixSocketPath.size() >= sizeof(addr.sun_path)) {
      ::close(listenFd_);
      listenFd_ = -1;
      running_.store(false);
      throw std::runtime_error("service: unix socket path too long");
    }
    std::strncpy(addr.sun_path, config_.unixSocketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unixSocketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listenFd_);
      listenFd_ = -1;
      running_.store(false);
      throwErrno("bind(" + config_.unixSocketPath + ")");
    }
    port_ = -1;
  } else {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      running_.store(false);
      throwErrno("socket(AF_INET)");
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcpPort));
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listenFd_);
      listenFd_ = -1;
      running_.store(false);
      throwErrno("bind(loopback)");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listenFd_, 64) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    running_.store(false);
    throwErrno("listen");
  }
  workers_.reserve(static_cast<std::size_t>(config_.serviceThreads));
  for (int i = 0; i < config_.serviceThreads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  acceptor_ = std::thread([this] { acceptLoop(); });
}

void VerificationService::stop() {
  // Phase 0: new admissions answer kBusy from here on, so the drain below
  // is a race against a bounded backlog, not a live request stream.
  draining_.store(true);
  if (!running_.exchange(false)) return;
  {
    std::lock_guard lock(shutdownMutex_);
  }
  shutdownCv_.notify_all();
  if (listenFd_ >= 0) {
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listenFd_ = -1;
  // Phase 1: bounded drain -- give admitted requests drainTimeoutMs to
  // finish (connections stay open so their responses still land). Workers
  // keep popping because the queue is non-empty; they exit once it drains.
  queueCv_.notify_all();
  const auto drainDeadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(0, config_.drainTimeoutMs));
  while (std::chrono::steady_clock::now() < drainDeadline) {
    if (queueDepthAtomic_.load(std::memory_order_relaxed) == 0 &&
        executing_.load(std::memory_order_relaxed) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Phase 2: deadline expired (or drain done) -- remaining queued requests
  // are answered kTimeout by the workers, typed rather than dropped. The
  // flush is quick (no execution), so wait for it unboundedly short of the
  // executing requests, which cannot be preempted.
  cancelQueued_.store(true);
  queueCv_.notify_all();
  const auto flushDeadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while ((queueDepthAtomic_.load(std::memory_order_relaxed) > 0 ||
          executing_.load(std::memory_order_relaxed) > 0) &&
         std::chrono::steady_clock::now() < flushDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear the connections down and join everything.
  {
    std::lock_guard lock(connectionsMutex_);
    for (const auto& conn : connections_) {
      std::lock_guard writeLock(conn->writeMutex);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  // The acceptor is joined, so no new connection threads appear.
  for (auto& thread : connectionThreads_) {
    if (thread.joinable()) thread.join();
  }
  queueCv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  for (const auto& conn : connections_) closeConnection(*conn);
  connections_.clear();
  connectionThreads_.clear();
  if (!config_.unixSocketPath.empty()) {
    ::unlink(config_.unixSocketPath.c_str());
  }
  draining_.store(false);
  cancelQueued_.store(false);
}

void VerificationService::waitForShutdown() {
  // Bounded waits, not a plain wait: noteSignalShutdown() runs in a signal
  // handler and can only store the flag, never touch the cv.
  std::unique_lock lock(shutdownMutex_);
  while (!shutdownCv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
    return shutdownRequested_.load() || !running_.load();
  })) {
  }
}

void VerificationService::requestShutdown() {
  shutdownRequested_.store(true);
  {
    std::lock_guard lock(shutdownMutex_);
  }
  shutdownCv_.notify_all();
}

void VerificationService::closeConnection(Connection& conn) {
  std::lock_guard lock(conn.writeMutex);
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

// --- accept / read side -----------------------------------------------------

void VerificationService::acceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    {
      // Injected accept failure: the connection is refused (closed before
      // any frame) -- connection-level, so the client sees a reset, not a
      // silent request drop.
      const auto fault = FAULT_POINT("service.accept");
      if (fault.action == fp::Action::kErrno ||
          fault.action == fp::Action::kDrop) {
        ::close(fd);
        std::lock_guard lock(countersMutex_);
        ++counters_.connectionsRejected;
        continue;
      }
    }
    if (liveConnections_.fetch_add(1) >= config_.maxConnections) {
      liveConnections_.fetch_sub(1);
      ::close(fd);
      std::lock_guard lock(countersMutex_);
      ++counters_.connectionsRejected;
      continue;
    }
    {
      std::lock_guard lock(countersMutex_);
      ++counters_.connectionsAccepted;
    }
    if (config_.sendTimeoutMs > 0) {
      // Bounds a worker blocked in send() against a wedged peer; a timed
      // out response write is absorbed like a disconnect.
      timeval tv{};
      tv.tv_sec = config_.sendTimeoutMs / 1000;
      tv.tv_usec = (config_.sendTimeoutMs % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard lock(connectionsMutex_);
    connections_.push_back(conn);
    connectionThreads_.emplace_back(
        [this, conn] { connectionLoop(conn); });
  }
}

void VerificationService::connectionLoop(std::shared_ptr<Connection> conn) {
  std::uint8_t header[wire::kHeaderBytes];
  while (running_.load()) {
    // The magic is read (and checked) on its own: a peer speaking another
    // protocol gets its kError without the daemon waiting for a full header
    // it may never send.
    if (!readFully(conn->fd, header, sizeof(wire::kMagic))) break;
    if (std::memcmp(header, wire::kMagic, sizeof(wire::kMagic)) != 0) {
      // The stream cannot be re-synchronised after a framing error; report
      // and close (docs/service.md).
      sendError(*conn, 0, "service: bad frame magic");
      break;
    }
    if (!readFully(conn->fd, header + sizeof(wire::kMagic),
                   sizeof(header) - sizeof(wire::kMagic))) {
      break;
    }
    wire::FrameHeader frame;
    wire::decodeHeader(header, &frame);  // the magic matched above
    if (frame.payloadBytes > config_.maxPayloadBytes) {
      sendError(*conn, frame.requestId,
                "service: frame payload exceeds the configured size limit");
      break;
    }
    Task task;
    task.payload.resize(frame.payloadBytes);
    if (!readFully(conn->fd, task.payload.data(), task.payload.size())) {
      break;  // disconnect mid-frame
    }
    if (frame.type == wire::FrameType::kShutdown) {
      sendFrame(*conn, wire::FrameType::kShutdownAck, frame.requestId, {});
      requestShutdown();
      continue;
    }
    task.conn = conn;
    task.type = frame.type;
    task.requestId = frame.requestId;
    admit(std::move(task));
  }
  liveConnections_.fetch_sub(1);
  // Close now unless a worker still owes this client responses; the last
  // such worker closes instead (both sides re-check, so the close cannot
  // be lost between the two).
  conn->closeRequested.store(true, std::memory_order_release);
  if (conn->inflight.load(std::memory_order_acquire) == 0) {
    closeConnection(*conn);
  }
}

void VerificationService::admit(Task task) {
  Connection& conn = *task.conn;
  // Draining means stop() is waiting for the queue to empty -- every new
  // admission would extend the drain, so all of them answer kBusy.
  const int budget = draining_.load(std::memory_order_acquire)
                         ? 0
                         : config_.maxQueuedPerClient;
  // Only this connection's reader increments, so load-then-add is not a
  // race against other admissions for the same client.
  if (conn.inflight.load(std::memory_order_acquire) >= budget) {
    {
      std::lock_guard lock(countersMutex_);
      ++counters_.busyRejections;
    }
    busyCounter_.increment();
    sendFrame(conn, wire::FrameType::kBusy, task.requestId, {});
    return;
  }
  conn.inflight.fetch_add(1, std::memory_order_acq_rel);
  task.admitted = std::chrono::steady_clock::now();
  std::size_t depth;
  {
    std::lock_guard lock(queueMutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
    queueDepthAtomic_.store(static_cast<std::int64_t>(depth),
                            std::memory_order_relaxed);
  }
  queueCv_.notify_one();
  queueGauge_.set(static_cast<std::int64_t>(depth));
  std::lock_guard lock(countersMutex_);
  counters_.queueDepth = static_cast<std::int64_t>(depth);
  counters_.queuePeakDepth =
      std::max(counters_.queuePeakDepth, counters_.queueDepth);
}

// --- worker side ------------------------------------------------------------

void VerificationService::workerLoop() {
  while (true) {
    Task task;
    std::int64_t depth;
    {
      std::unique_lock lock(queueMutex_);
      queueCv_.wait(lock, [this] {
        return !queue_.empty() || !running_.load() ||
               cancelQueued_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (!running_.load()) return;  // spurious wake with no work
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = static_cast<std::int64_t>(queue_.size());
      queueDepthAtomic_.store(depth, std::memory_order_relaxed);
      // Incremented under the queue lock so stop()'s drain wait can never
      // observe queue == 0 && executing == 0 while a popped task is still
      // between the pop and its execution.
      executing_.fetch_add(1, std::memory_order_relaxed);
    }
    queueGauge_.set(depth);
    {
      // counters_ is guarded by countersMutex_, as in admit().
      std::lock_guard lock(countersMutex_);
      counters_.queueDepth = depth;
    }
    // Typed refusals: a task still queued when the drain deadline
    // expired, or whose queue-wait deadline passed, is answered kTimeout --
    // the request was never executed, so a retry is always safe.
    const bool cancelled = cancelQueued_.load(std::memory_order_acquire);
    const bool expired =
        config_.requestDeadlineMs > 0 &&
        std::chrono::steady_clock::now() - task.admitted >=
            std::chrono::milliseconds(config_.requestDeadlineMs);
    if (cancelled || expired) {
      sendTimeout(task);
    } else {
      (void)FAULT_POINT("service.dispatch");
      execute(task);
    }
    executing_.fetch_sub(1, std::memory_order_relaxed);
    Connection& conn = *task.conn;
    if (conn.inflight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        conn.closeRequested.load(std::memory_order_acquire)) {
      closeConnection(conn);
    }
  }
}

void VerificationService::execute(Task& task) {
  Connection& conn = *task.conn;
  requestCounter_.increment();
  {
    std::lock_guard lock(countersMutex_);
    ++counters_.requests;
    if (task.type == wire::FrameType::kVerify) ++counters_.verifyRequests;
    if (task.type == wire::FrameType::kClassify) ++counters_.classifyRequests;
  }
  try {
    switch (task.type) {
      case wire::FrameType::kPing:
        sendFrame(conn, wire::FrameType::kPong, task.requestId, {});
        break;
      case wire::FrameType::kVerify: {
        const VerifyRequestFrame request = decodeVerifyRequest(task.payload);
        const VerifyResultFrame result = runVerify(request);
        const std::vector<std::uint8_t> payload = encodeVerifyResult(result);
        sendFrame(conn, wire::FrameType::kVerifyResult, task.requestId,
                  payload);
        break;
      }
      case wire::FrameType::kClassify: {
        const ClassifyRequestFrame request =
            decodeClassifyRequest(task.payload);
        const std::string json = runClassify(request);
        sendFrame(conn, wire::FrameType::kClassifyResult, task.requestId,
                  {reinterpret_cast<const std::uint8_t*>(json.data()),
                   json.size()});
        break;
      }
      case wire::FrameType::kStats: {
        const std::string json = statsJson();
        sendFrame(conn, wire::FrameType::kStatsResult, task.requestId,
                  {reinterpret_cast<const std::uint8_t*>(json.data()),
                   json.size()});
        break;
      }
      default:
        throw std::invalid_argument("service: unknown request frame type");
    }
  } catch (const std::exception& error) {
    {
      std::lock_guard lock(countersMutex_);
      ++counters_.errors;
    }
    errorCounter_.increment();
    sendError(conn, task.requestId, error.what());
  }
}

// --- request execution ------------------------------------------------------

void VerificationService::sendTimeout(Task& task) {
  {
    std::lock_guard lock(countersMutex_);
    ++counters_.timeouts;
  }
  timeoutCounter_.increment();
  sendFrame(*task.conn, wire::FrameType::kTimeout, task.requestId, {});
}

VerifyResultFrame VerificationService::runVerify(
    const VerifyRequestFrame& frame) {
  VerifyRequest request;
  // The shared_ptrs keep cached problems alive across a concurrent
  // eviction for the duration of the call. A 2D problem runs as its d = 2
  // view, so every request is a GridLclD over a TorusD.
  std::shared_ptr<const GridLcl> held;
  std::shared_ptr<const GridLclD> heldD;
  if (frame.problemRef == ProblemRefKind::kFingerprint) {
    held = problems_.byFingerprint(frame.fingerprint);
    if (!held) {
      throw std::invalid_argument(
          "service: unknown problem fingerprint (not in the cache; send the "
          "spec once first)");
    }
  } else if (isCycleSpec(frame.spec)) {
    throw std::invalid_argument(
        "service: cycle problems take classify requests, not verify");
  } else if (isProblemDSpec(frame.spec)) {
    heldD = problems_.bySpecD(frame.spec);
  } else {
    held = problems_.bySpec(frame.spec);
  }
  request.problemD = held ? &held->asD() : heldD.get();
  if (frame.tierPin > 3) {
    throw std::invalid_argument("service: unknown tier pin");
  }
  request.options.tier = static_cast<TierPin>(frame.tierPin);
  request.options.countViolations = frame.countViolations;
  // Per-request parallelism is capped by the daemon's engineThreads budget
  // (0 on the wire asks for the daemon default).
  const int askedThreads =
      frame.threads == 0 ? config_.engineThreads
                         : static_cast<int>(frame.threads);
  request.options.engine.threads =
      std::clamp(askedThreads, 1, config_.engineThreads);
  if (request.options.engine.threads > 1) {
    request.options.engine.pool = enginePool_.get();
  }

  std::optional<TorusD> torus;
  if (frame.labelling == LabellingKind::kPath) {
    request.labellingPath = frame.path;
  } else {
    torus.emplace(static_cast<int>(frame.dims), static_cast<int>(frame.n));
    request.torusD = &*torus;
    request.labels = frame.labels;
  }

  VerifyResult result = verify(request);
  VerifyResultFrame out;
  out.feasible = result.feasible;
  out.tier = static_cast<std::uint8_t>(result.tier);
  out.violations = result.violations;
  out.labellings = result.labellings;
  out.fingerprint = result.fingerprint;
  out.nanos = result.nanos;
  out.feasiblePerLabelling = std::move(result.feasiblePerLabelling);
  out.violationsPerLabelling = std::move(result.violationsPerLabelling);
  return out;
}

std::string VerificationService::runClassify(
    const ClassifyRequestFrame& frame) {
  engine::ClassifyOptions options;
  options.reportCache = &reports_;
  engine::ClassifyResult result;
  const char* engineName = "grid";
  if (frame.problemRef == ProblemRefKind::kFingerprint) {
    const std::shared_ptr<const GridLcl> held =
        problems_.byFingerprint(frame.fingerprint);
    if (!held) {
      throw std::invalid_argument(
          "service: unknown problem fingerprint (not in the cache; send the "
          "spec once first)");
    }
    result = engine::classify(*held, options);
  } else if (isCycleSpec(frame.spec)) {
    result = engine::classify(buildCycleProblem(frame.spec), options);
    engineName = "cycle";
  } else if (isProblemDSpec(frame.spec)) {
    throw std::invalid_argument(
        "service: classification covers 2D grid and cycle problems");
  } else {
    const std::shared_ptr<const GridLcl> held = problems_.bySpec(frame.spec);
    result = engine::classify(*held, options);
  }
  JsonWriter json;
  json.beginObject();
  json.key("problem").value(result.problem);
  json.key("engine").value(engineName);
  json.key("complexity").value(result.complexity);
  json.key("fingerprint").value(JsonWriter::hex(result.fingerprint));
  json.key("cache_hit").value(result.cacheHit);
  json.key("seconds").value(result.seconds);
  if (result.grid) {
    json.key("trivial_label").value(result.grid->trivialLabel);
    json.key("attempts").value(
        static_cast<long long>(result.grid->attempts.size()));
  }
  if (result.cycle) {
    json.key("flexible_node").value(result.cycle->flexibleNode);
    json.key("flexibility").value(result.cycle->flexibility);
    json.key("has_self_loop").value(result.cycle->hasSelfLoop);
    json.key("has_cycle").value(result.cycle->hasCycle);
  }
  json.endObject();
  return json.str();
}

// --- stats ------------------------------------------------------------------

ServiceCounters VerificationService::counters() const {
  std::lock_guard lock(countersMutex_);
  return counters_;
}

std::string VerificationService::statsJson() const {
  const ServiceCounters counters = this->counters();
  const support::LruStats problemStats = problems_.stats();
  const support::LruStats reportStats = reports_.stats();
  JsonWriter service;
  service.beginObject();
  service.key("requests").value(static_cast<long long>(counters.requests));
  service.key("verify_requests")
      .value(static_cast<long long>(counters.verifyRequests));
  service.key("classify_requests")
      .value(static_cast<long long>(counters.classifyRequests));
  service.key("busy_rejections")
      .value(static_cast<long long>(counters.busyRejections));
  service.key("errors").value(static_cast<long long>(counters.errors));
  service.key("connections_accepted")
      .value(static_cast<long long>(counters.connectionsAccepted));
  service.key("connections_rejected")
      .value(static_cast<long long>(counters.connectionsRejected));
  service.key("queue_depth").value(static_cast<long long>(counters.queueDepth));
  service.key("queue_peak_depth")
      .value(static_cast<long long>(counters.queuePeakDepth));
  service.key("timeouts").value(static_cast<long long>(counters.timeouts));
  const auto cacheObject = [&service](const char* name,
                                      const support::LruStats& stats) {
    service.key(name).beginObject();
    service.key("hits").value(static_cast<long long>(stats.hits));
    service.key("misses").value(static_cast<long long>(stats.misses));
    service.key("evictions").value(static_cast<long long>(stats.evictions));
    service.key("entries").value(static_cast<long long>(stats.entries));
    service.endObject();
  };
  cacheObject("problem_cache", problemStats);
  cacheObject("report_cache", reportStats);
  service.endObject();
  // The telemetry snapshot is already a complete JSON document; splice it
  // in verbatim ("null" when telemetry is compiled out).
  std::string metrics = telemetry::metricsJson();
  if (metrics.empty()) metrics = "null";
  return "{\"metrics\":" + metrics + ",\"service\":" + service.str() + "}";
}

// --- response writers -------------------------------------------------------

void VerificationService::sendFrame(Connection& conn, wire::FrameType type,
                                    std::uint32_t requestId,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(wire::kHeaderBytes + payload.size());
  wire::appendHeader(frame, type, requestId,
                     static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  std::lock_guard lock(conn.writeMutex);
  if (conn.fd < 0) return;
  writeFully(conn.fd, frame.data(), frame.size());
}

void VerificationService::sendError(Connection& conn, std::uint32_t requestId,
                                    const std::string& message) {
  sendFrame(conn, wire::FrameType::kError, requestId,
            {reinterpret_cast<const std::uint8_t*>(message.data()),
             message.size()});
}

}  // namespace lclgrid::service
