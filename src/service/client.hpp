// Client side of the verification service protocol: a blocking,
// one-request-at-a-time connection speaking the binary framing of
// service/protocol.hpp. Used by the service tests, bench_service and the
// benchmark driver; the raw send/receive surface is public so protocol
// error-path tests can craft malformed frames.
//
// Overload surface: requests the daemon rejects with kBusy return
// std::nullopt (callers decide between retrying and backing off); kError
// frames throw RemoteError carrying the daemon's message.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace lclgrid::service {

/// The daemon answered kError; what() is the daemon's message.
struct RemoteError : std::runtime_error {
  explicit RemoteError(const std::string& what) : std::runtime_error(what) {}
};

/// A deadline outcome: the daemon answered kTimeout (the request was NOT
/// executed), or the client's own socket deadline (setDeadlineMs) expired
/// mid-call. In the latter case the connection is closed -- a byte stream
/// abandoned mid-frame cannot be re-synchronised -- and the caller must
/// reconnect before retrying (RetryingClient in service/retry.hpp does).
struct TimeoutError : RemoteError {
  explicit TimeoutError(const std::string& what) : RemoteError(what) {}
};

/// The connection died before a response arrived (EOF or a hard socket
/// error mid-call). Whether the request executed is UNKNOWN -- only
/// idempotent operations may be retried across this (service/retry.hpp).
struct DisconnectError : RemoteError {
  explicit DisconnectError(const std::string& what) : RemoteError(what) {}
};

class ServiceClient {
 public:
  /// Connects to the daemon on TCP loopback / a Unix socket; throws
  /// std::runtime_error when the connection fails.
  static ServiceClient connectTcp(int port);
  static ServiceClient connectUnix(const std::string& path);

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ~ServiceClient();

  void close();
  bool connected() const { return fd_ >= 0; }

  /// Bounds every subsequent send/recv on the socket (SO_RCVTIMEO /
  /// SO_SNDTIMEO). When a call trips the deadline the client closes the
  /// connection and throws TimeoutError -- the response could still arrive
  /// later and would desynchronise the framing. 0 removes the bound.
  void setDeadlineMs(int millis);
  int deadlineMs() const { return deadlineMs_; }

  /// Re-establishes the connection to the endpoint this client was created
  /// with (after a deadline close or server-side disconnect). Preserves the
  /// deadline; throws std::runtime_error when the connect fails.
  void reconnect();

  /// Round-trips a ping; false on a dead connection.
  bool ping();
  /// One verification request; nullopt when the daemon answered kBusy.
  std::optional<VerifyResultFrame> verify(const VerifyRequestFrame& request);
  /// One classification request; the daemon's JSON report.
  std::optional<std::string> classify(const ClassifyRequestFrame& request);
  /// The daemon's stats document (telemetry metrics + service counters).
  std::optional<std::string> stats();
  /// Asks the daemon to shut down (it acks, then waitForShutdown() on the
  /// server side returns).
  void requestShutdown();

  // --- raw frame access (protocol tests) -----------------------------------

  struct Reply {
    wire::FrameType type = wire::FrameType::kError;
    std::uint32_t requestId = 0;
    std::vector<std::uint8_t> payload;
  };

  /// Sends one well-formed frame.
  void sendFrame(wire::FrameType type, std::uint32_t requestId,
                 std::span<const std::uint8_t> payload);
  /// Sends arbitrary bytes (malformed-frame tests).
  void sendRaw(std::span<const std::uint8_t> bytes);
  /// Receives one frame; nullopt when the daemon closed the connection.
  /// Throws RemoteError if the server's framing itself is corrupt.
  std::optional<Reply> receive();

 private:
  ServiceClient(int fd, int port, std::string unixPath)
      : fd_(fd), port_(port), unixPath_(std::move(unixPath)) {}
  /// Send + receive, unwrapping kError into RemoteError, kTimeout into
  /// TimeoutError, and expecting `expected` (or kBusy -> nullopt).
  std::optional<Reply> call(wire::FrameType type,
                            std::span<const std::uint8_t> payload,
                            wire::FrameType expected);

  int fd_ = -1;
  std::uint32_t nextRequestId_ = 1;
  int deadlineMs_ = 0;
  /// Remembered endpoint for reconnect(): TCP port, or the Unix path when
  /// non-empty.
  int port_ = -1;
  std::string unixPath_;
};

}  // namespace lclgrid::service
