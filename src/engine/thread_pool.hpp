// The parallel execution runtime: a work-stealing thread pool plus
// deterministic data-parallel loops on top of it. This is the substrate for
// the sharded verifier (verify(VerifyRequest), engine/shard_detail.hpp) and
// the concurrent family sweep driver (engine/family_sweep.hpp).
//
// Design:
//  * every worker owns a deque; submitted tasks are dealt round-robin,
//    workers pop their own back (LIFO, cache-warm) and steal from other
//    fronts (FIFO, oldest work) when empty;
//  * the thread that calls parallelFor/parallelReduce participates: it
//    executes tasks itself until its batch drains, so a pool constructed
//    with `threads == 1` spawns no workers at all and runs serially on the
//    caller -- the degenerate case is exactly the serial code path;
//  * reductions are deterministic by construction: partial results are
//    combined on the caller in ascending chunk order, never in completion
//    order, so the result is independent of scheduling. With an explicit
//    grain the chunk boundaries depend only on (range, grain) and the
//    result is bit-identical across thread counts even for non-associative
//    (e.g. floating-point) combines; the auto grain (0) scales with the
//    lane count, which still yields identical results for associative
//    combines such as the verifier's integer counts.
//
// Thread-safety contract: ThreadPool itself is safe to share; the loop
// bodies handed to parallelFor/parallelReduce run concurrently and must not
// mutate shared state without their own synchronisation. Exceptions thrown
// by a body are caught, the first one is rethrown on the calling thread
// after the batch drains (remaining chunks still run).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine_options.hpp"

namespace lclgrid::engine {

class ThreadPool {
 public:
  /// Spawns threads-1 workers (the caller is the remaining lane);
  /// threads == 0 means defaultThreads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, counting the thread that calls parallelFor.
  int lanes() const { return static_cast<int>(workers_.size()) + 1; }

  /// Fire-and-forget task; runs on some worker (or on a caller draining a
  /// parallelFor batch). Tasks submitted before destruction are drained by
  /// the destructor's join. Tasks should handle their own errors: an
  /// escaping exception is swallowed by the runner (there is no caller to
  /// rethrow to, and it must not unwind an unrelated parallelFor that
  /// stole the task). Use parallelFor for joinable work.
  void submit(std::function<void()> task);

  /// Runs body(chunkBegin, chunkEnd) over [begin, end) split into chunks of
  /// `grain` (0 = auto); returns when every chunk has run. The caller
  /// participates. Rethrows the first body exception after the batch drains.
  void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Deterministic map-reduce: partial results are produced per chunk and
  /// combined on the calling thread in ascending chunk order, so the result
  /// is independent of scheduling; with an explicit grain it is also
  /// bit-identical across thread counts for non-associative combines (see
  /// the header comment).
  template <typename T, typename Map, typename Combine>
  T parallelReduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   T identity, Map&& map, Combine&& combine) {
    const std::int64_t items = end - begin;
    if (items <= 0) return identity;
    grain = resolveGrain(items, grain, lanes());
    const std::int64_t chunks = (items + grain - 1) / grain;
    std::vector<T> partial(static_cast<std::size_t>(chunks), identity);
    parallelFor(begin, end, grain,
                [&](std::int64_t chunkBegin, std::int64_t chunkEnd) {
                  partial[static_cast<std::size_t>((chunkBegin - begin) /
                                                   grain)] =
                      map(chunkBegin, chunkEnd);
                });
    T result = std::move(identity);
    for (T& p : partial) result = combine(std::move(result), std::move(p));
    return result;
  }

  /// The process-global pool (defaultThreads() lanes, built on first use).
  static ThreadPool& global();

  /// Chunk size actually used for (items, grain, lanes); exposed so tests
  /// can pin down the deterministic chunking.
  static std::int64_t resolveGrain(std::int64_t items, std::int64_t grain,
                                   int lanes);

 private:
  struct Batch {
    std::mutex mutex;
    std::condition_variable done;
    std::int64_t pending = 0;
    std::exception_ptr error;
  };
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void workerLoop(std::size_t self);
  /// Pops from `self`'s back or steals from another worker's front.
  bool tryTake(std::size_t self, std::function<void()>& task);
  void push(std::function<void()> task, bool notify = true);
  /// Bumps the wake epoch under the idle mutex and notifies; pairs with
  /// the predicated wait in workerLoop so wake-ups cannot be lost.
  void wake(bool all);
  /// Runs a fire-and-forget task, swallowing any escaping exception.
  static void runDetached(const std::function<void()>& task) noexcept;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex idleMutex_;
  std::condition_variable idle_;
  std::atomic<std::size_t> nextLane_{0};  // round-robin submission cursor
  std::uint64_t wakeEpoch_ = 0;           // guarded by idleMutex_
  bool stopping_ = false;
};

/// body(begin, end) over [begin, end): chunks of `grain` items across
/// `pool`, or one inline call when `pool` is null (PoolHandle's one lane).
template <typename Body>
void forEachChunk(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, const Body& body) {
  if (pool == nullptr) return body(begin, end);
  pool->parallelFor(begin, end, grain, body);
}

/// Resolves EngineOptions to the pool a pass runs on: none (null) when the
/// request resolves to one lane -- threads == 1 without a pool, or a
/// one-lane pool -- so the caller runs inline; otherwise options.pool if
/// set, the global pool when the requested lane count matches it (or
/// threads == 0), else a private pool owned by the returned holder.
class PoolHandle {
 public:
  explicit PoolHandle(const EngineOptions& options);
  ThreadPool* pool() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace lclgrid::engine
