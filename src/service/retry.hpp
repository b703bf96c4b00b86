// Client-side retry with capped exponential backoff and decorrelated
// jitter, wrapping ServiceClient (docs/robustness.md).
//
// What retries, and why it is safe: only the service's idempotent
// operations -- verify, classify and stats. All three are pure reads of
// the request against daemon-side caches; re-executing one cannot change
// any observable state (docs/service.md, "Idempotency"). The retryable
// outcomes are the three typed, request-not-executed verdicts:
//
//  * kBusy       -- back-pressure; the daemon promised it did not run the
//                   request (retryBusy);
//  * kTimeout    -- the daemon dropped the request from its queue, or the
//                   client's own deadline expired awaiting a response. A
//                   client-side expiry forces a reconnect first: the
//                   abandoned byte stream cannot be re-synchronised
//                   (retryTimeout);
//  * disconnect  -- the connection died before a response; the request
//                   may or may not have executed, which is precisely why
//                   only idempotent operations route through this class
//                   (retryDisconnect).
//
// kError never retries: the request itself is bad, and resending the same
// bytes reproduces the same error.
//
// Backoff: decorrelated jitter (Brooker) -- sleep_k ~ uniform(baseDelayMs,
// 3 * sleep_{k-1}), capped at maxDelayMs. Avoids both thundering-herd
// lockstep (all clients retrying in sync) and the long deterministic tail
// of plain doubling. Deterministic per seed, so tests assert the schedule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/client.hpp"
#include "service/protocol.hpp"

namespace lclgrid::service {

struct RetryPolicy {
  /// Total tries including the first (1 = no retry).
  int maxAttempts = 5;
  /// Lower bound of every backoff draw, and the first draw's upper bound.
  int baseDelayMs = 2;
  /// Cap on any single backoff sleep.
  int maxDelayMs = 250;
  /// Seeds the jitter RNG; fixed seed -> reproducible schedule in tests.
  std::uint64_t jitterSeed = 0x9e3779b97f4a7c15ull;
  bool retryBusy = true;
  bool retryTimeout = true;
  bool retryDisconnect = true;
};

/// What a retried call actually did; accumulates across calls on the same
/// RetryingClient (bench_service reports these per run).
struct RetryStats {
  std::int64_t attempts = 0;     // tries issued, including first tries
  std::int64_t busy = 0;         // kBusy answers absorbed
  std::int64_t timeouts = 0;     // TimeoutError answers absorbed
  std::int64_t disconnects = 0;  // connection-loss answers absorbed
  std::int64_t reconnects = 0;   // successful reconnect() calls
  std::int64_t backoffMs = 0;    // total time slept in backoff
};

/// Wraps a connected ServiceClient with the retry policy. Only the
/// idempotent surface is exposed -- there is deliberately no retrying
/// shutdown or sleep.
class RetryingClient {
 public:
  RetryingClient(ServiceClient client, RetryPolicy policy);

  /// Retries until a verdict or maxAttempts; throws RemoteError (daemon
  /// error, never retried), TimeoutError / RemoteError when attempts are
  /// exhausted on a retryable outcome.
  VerifyResultFrame verify(const VerifyRequestFrame& request);
  std::string classify(const ClassifyRequestFrame& request);
  std::string stats();

  const RetryStats& retryStats() const { return stats_; }
  ServiceClient& client() { return client_; }

  /// The next backoff sleep for attempt `k` (exposed for tests; advances
  /// the jitter state exactly like a real retry would).
  int drawBackoffMs();

 private:
  template <typename Fn>
  auto callWithRetry(Fn&& fn) -> decltype(fn());
  void noteFailureAndBackoff(bool needReconnect, int attempt);

  ServiceClient client_;
  RetryPolicy policy_;
  RetryStats stats_;
  std::uint64_t rngState_;
  int lastSleepMs_ = 0;
};

}  // namespace lclgrid::service
