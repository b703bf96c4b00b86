#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "support/faultpoint.hpp"

namespace lclgrid::service {

namespace {

namespace fp = support::faultpoint;

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("client: " + what + ": " + std::strerror(errno));
}

/// True when errno carries a socket-timeout verdict (SO_RCVTIMEO /
/// SO_SNDTIMEO expiry -- EAGAIN and EWOULDBLOCK may be distinct values).
bool errnoIsTimeout() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == ETIMEDOUT;
}

enum class IoStatus { kOk, kDisconnected, kTimedOut };

/// Blocking read of exactly `bytes`, looping over EINTR and partial recvs.
/// The client.recv fault point injects a hard error (errno -- a timeout
/// errno surfaces as kTimedOut, matching a real SO_RCVTIMEO expiry) or
/// clamps one recv short, which the loop must absorb.
IoStatus readFully(int fd, void* data, std::size_t bytes) {
  long long shortClamp = 0;
  {
    const auto fault = FAULT_POINT("client.recv");
    if (fault.action == fp::Action::kErrno) {
      errno = fault.errnoValue;
      return errnoIsTimeout() ? IoStatus::kTimedOut : IoStatus::kDisconnected;
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
      return errnoIsTimeout() ? IoStatus::kTimedOut : IoStatus::kDisconnected;
    }
    if (got == 0) return IoStatus::kDisconnected;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return IoStatus::kOk;
}

/// Blocking write of exactly `bytes`, looping over EINTR and partial
/// sends; throws on hard errors. The client.send fault point injects a
/// hard error or clamps one send short (the partial-send regression
/// vector: the loop must finish the frame, not truncate it).
IoStatus writeFully(int fd, const void* data, std::size_t bytes) {
  long long shortClamp = 0;
  {
    const auto fault = FAULT_POINT("client.send");
    if (fault.action == fp::Action::kErrno) {
      errno = fault.errnoValue;
      if (errnoIsTimeout()) return IoStatus::kTimedOut;
      throwErrno("send");
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
      if (errnoIsTimeout()) return IoStatus::kTimedOut;
      throwErrno("send");
    }
    in += put;
    bytes -= static_cast<std::size_t>(put);
  }
  return IoStatus::kOk;
}

int connectTcpFd(int port) {
  {
    const auto fault = FAULT_POINT("client.connect");
    if (fault.action == fp::Action::kErrno) {
      errno = fault.errnoValue;
      throwErrno("connect(loopback:" + std::to_string(port) + ")");
    }
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throwErrno("connect(loopback:" + std::to_string(port) + ")");
  }
  return fd;
}

int connectUnixFd(const std::string& path) {
  {
    const auto fault = FAULT_POINT("client.connect");
    if (fault.action == fp::Action::kErrno) {
      errno = fault.errnoValue;
      throwErrno("connect(" + path + ")");
    }
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("client: unix socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throwErrno("connect(" + path + ")");
  }
  return fd;
}

void applySocketDeadline(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

// --- ServiceClient ----------------------------------------------------------

ServiceClient ServiceClient::connectTcp(int port) {
  return ServiceClient(connectTcpFd(port), port, std::string());
}

ServiceClient ServiceClient::connectUnix(const std::string& path) {
  return ServiceClient(connectUnixFd(path), -1, path);
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      nextRequestId_(other.nextRequestId_),
      deadlineMs_(other.deadlineMs_),
      port_(other.port_),
      unixPath_(std::move(other.unixPath_)) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    nextRequestId_ = other.nextRequestId_;
    deadlineMs_ = other.deadlineMs_;
    port_ = other.port_;
    unixPath_ = std::move(other.unixPath_);
  }
  return *this;
}

void ServiceClient::setDeadlineMs(int millis) {
  deadlineMs_ = std::max(0, millis);
  if (fd_ >= 0) applySocketDeadline(fd_, deadlineMs_);
}

void ServiceClient::reconnect() {
  close();
  fd_ = unixPath_.empty() ? connectTcpFd(port_) : connectUnixFd(unixPath_);
  if (deadlineMs_ > 0) applySocketDeadline(fd_, deadlineMs_);
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServiceClient::sendFrame(wire::FrameType type, std::uint32_t requestId,
                              std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(wire::kHeaderBytes + payload.size());
  wire::appendHeader(frame, type, requestId,
                     static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  if (writeFully(fd_, frame.data(), frame.size()) == IoStatus::kTimedOut) {
    // A partially sent frame cannot be completed later: the stream is
    // desynchronised, so the connection is dead to us.
    close();
    throw TimeoutError("client: send deadline expired mid-frame");
  }
}

void ServiceClient::sendRaw(std::span<const std::uint8_t> bytes) {
  if (writeFully(fd_, bytes.data(), bytes.size()) == IoStatus::kTimedOut) {
    close();
    throw TimeoutError("client: send deadline expired");
  }
}

std::optional<ServiceClient::Reply> ServiceClient::receive() {
  std::uint8_t header[wire::kHeaderBytes];
  IoStatus status = readFully(fd_, header, sizeof(header));
  if (status == IoStatus::kTimedOut) {
    // The response may still arrive after we give up; reading it later
    // would answer the WRONG request. Close so the caller reconnects.
    close();
    throw TimeoutError("client: receive deadline expired");
  }
  if (status != IoStatus::kOk) return std::nullopt;
  wire::FrameHeader frame;
  if (!wire::decodeHeader(header, &frame)) {
    throw RemoteError("client: corrupt frame magic from server");
  }
  Reply reply;
  reply.type = frame.type;
  reply.requestId = frame.requestId;
  reply.payload.resize(frame.payloadBytes);
  status = readFully(fd_, reply.payload.data(), reply.payload.size());
  if (status == IoStatus::kTimedOut) {
    close();
    throw TimeoutError("client: receive deadline expired mid-frame");
  }
  if (status != IoStatus::kOk) return std::nullopt;
  return reply;
}

std::optional<ServiceClient::Reply> ServiceClient::call(
    wire::FrameType type, std::span<const std::uint8_t> payload,
    wire::FrameType expected) {
  const std::uint32_t requestId = nextRequestId_++;
  sendFrame(type, requestId, payload);
  std::optional<Reply> reply = receive();
  if (!reply) {
    throw DisconnectError("client: connection closed awaiting a response");
  }
  if (reply->type == wire::FrameType::kBusy) return std::nullopt;
  if (reply->type == wire::FrameType::kTimeout) {
    // The daemon's verdict, not ours: the request was never executed, the
    // stream stays framed, the connection stays usable.
    throw TimeoutError("client: request timed out in the service queue");
  }
  if (reply->type == wire::FrameType::kError) {
    throw RemoteError(
        std::string(reinterpret_cast<const char*>(reply->payload.data()),
                    reply->payload.size()));
  }
  if (reply->type != expected) {
    throw RemoteError("client: unexpected response frame type");
  }
  return reply;
}

bool ServiceClient::ping() {
  try {
    return call(wire::FrameType::kPing, {}, wire::FrameType::kPong)
        .has_value();
  } catch (const RemoteError&) {
    return false;
  }
}

std::optional<VerifyResultFrame> ServiceClient::verify(
    const VerifyRequestFrame& request) {
  const std::vector<std::uint8_t> payload = encodeVerifyRequest(request);
  std::optional<Reply> reply =
      call(wire::FrameType::kVerify, payload, wire::FrameType::kVerifyResult);
  if (!reply) return std::nullopt;
  return decodeVerifyResult(reply->payload);
}

std::optional<std::string> ServiceClient::classify(
    const ClassifyRequestFrame& request) {
  const std::vector<std::uint8_t> payload = encodeClassifyRequest(request);
  std::optional<Reply> reply = call(wire::FrameType::kClassify, payload,
                                    wire::FrameType::kClassifyResult);
  if (!reply) return std::nullopt;
  return std::string(reinterpret_cast<const char*>(reply->payload.data()),
                     reply->payload.size());
}

std::optional<std::string> ServiceClient::stats() {
  std::optional<Reply> reply =
      call(wire::FrameType::kStats, {}, wire::FrameType::kStatsResult);
  if (!reply) return std::nullopt;
  return std::string(reinterpret_cast<const char*>(reply->payload.data()),
                     reply->payload.size());
}

void ServiceClient::requestShutdown() {
  (void)call(wire::FrameType::kShutdown, {}, wire::FrameType::kShutdownAck);
}

}  // namespace lclgrid::service
