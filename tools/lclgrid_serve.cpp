// The verification service daemon binary (docs/service.md): hosts
// service::VerificationService on a Unix socket or TCP loopback and blocks
// until a client sends a kShutdown frame (or the process receives SIGINT /
// SIGTERM). Clients speak the binary framing of service/protocol.hpp.
//
// Usage: lclgrid_serve [--unix PATH | --port N] [--threads N]
//                      [--engine-threads N] [--max-queued N] [--cache N]
//                      [--report-cache N] [--max-payload BYTES]
//                      [--max-connections N] [--drain-timeout-ms N]
//                      [--deadline-ms N] [--send-timeout-ms N]
//   --unix PATH        listen on a Unix socket (default: TCP loopback)
//   --port N           TCP port (default 0 = ephemeral; resolved port is
//                      printed on stdout)
//   --threads N        service worker threads (default 2)
//   --engine-threads N per-request engine thread budget (default 1)
//   --max-queued N     admitted requests per client before kBusy (default 8)
//   --cache N          compiled-problem LRU capacity (default 64)
//   --report-cache N   oracle-report LRU capacity (default 64)
//   --max-payload B    frame payload size limit in bytes (default 64 MiB)
//   --max-connections N  concurrent connections (default 64)
//   --drain-timeout-ms N  shutdown drains admitted requests this long, then
//                      answers the queued remainder kTimeout (default 2000)
//   --deadline-ms N    per-request queue-wait deadline; expired requests
//                      answer kTimeout, never execute (default 0 = none)
//   --send-timeout-ms N  SO_SNDTIMEO per connection (default 5000)
//
// Every numeric argument must be a whole non-negative integer in range
// (--port at most 65535); anything else, like an unknown flag, exits 2.
//
// Fault injection (docs/robustness.md): set LCLGRID_FAULTS, e.g.
//   LCLGRID_FAULTS='service.write_response:drop@nth=3' lclgrid_serve ...
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "service/service.hpp"

namespace {

lclgrid::service::VerificationService* gService = nullptr;

void onSignal(int) {
  // stop() is not async-signal-safe; just flip the daemon's shutdown flag
  // the same way a client kShutdown frame would. The write below is safe:
  // requestShutdown only touches atomics + a cv (worst case the signal
  // lands before gService is set and the default exit applies next time).
  if (gService != nullptr) gService->noteSignalShutdown();
}

/// The whole of `text` as an integer in [0, max]; nullopt otherwise.
template <class T>
std::optional<T> parseCount(const char* text, T max) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (*text == '-' || ec != std::errc() || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  lclgrid::service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    // Parses the flag's value into *out; false when argv[i] is not `flag`.
    // A missing, malformed or out-of-range value exits 2.
    const auto numericArg = [&]<class T>(const char* flag, T* out,
                                         T max = std::numeric_limits<T>::max()) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      const std::optional<T> value =
          i + 1 < argc ? parseCount(argv[i + 1], max) : std::nullopt;
      if (!value) {
        std::fprintf(stderr, "lclgrid_serve: %s needs an integer in [0, %s]\n",
                     flag, std::to_string(max).c_str());
        std::exit(2);
      }
      *out = *value;
      ++i;
      return true;
    };
    if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      config.unixSocketPath = argv[++i];
    } else if (numericArg("--port", &config.tcpPort, 65535) ||
               numericArg("--threads", &config.serviceThreads) ||
               numericArg("--engine-threads", &config.engineThreads) ||
               numericArg("--max-queued", &config.maxQueuedPerClient) ||
               numericArg("--max-connections", &config.maxConnections) ||
               numericArg("--drain-timeout-ms", &config.drainTimeoutMs) ||
               numericArg("--deadline-ms", &config.requestDeadlineMs) ||
               numericArg("--send-timeout-ms", &config.sendTimeoutMs) ||
               numericArg("--cache", &config.problemCacheCapacity) ||
               numericArg("--report-cache", &config.reportCacheCapacity) ||
               numericArg("--max-payload", &config.maxPayloadBytes)) {
      // parsed in place
    } else {
      std::fprintf(stderr, "lclgrid_serve: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  lclgrid::service::VerificationService service(config);
  try {
    service.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lclgrid_serve: %s\n", error.what());
    return 1;
  }
  gService = &service;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  if (config.unixSocketPath.empty()) {
    std::printf("listening on 127.0.0.1:%d\n", service.port());
  } else {
    std::printf("listening on %s\n", config.unixSocketPath.c_str());
  }
  std::fflush(stdout);
  service.waitForShutdown();
  service.stop();
  std::printf("%s\n", service.statsJson().c_str());
  return 0;
}
