#include "engine/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <utility>

#include "support/faultpoint.hpp"
#include "support/telemetry.hpp"

namespace lclgrid::engine {

int defaultThreads() {
  if (const char* env = std::getenv("LCLGRID_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = defaultThreads();
  const int workerCount = threads - 1;
  workers_.reserve(static_cast<std::size_t>(workerCount));
  for (int i = 0; i < workerCount; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  static const telemetry::Counter started =
      telemetry::counter("pool.threads_started");
  threads_.reserve(static_cast<std::size_t>(workerCount));
  for (int i = 0; i < workerCount; ++i) {
    threads_.emplace_back(
        [this, i]() { workerLoop(static_cast<std::size_t>(i)); });
    started.increment();
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idleMutex_);
    stopping_ = true;
  }
  idle_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::push(std::function<void()> task, bool notify) {
  static const telemetry::Counter tasksSubmitted =
      telemetry::counter("pool.tasks_submitted");
  static const telemetry::Gauge queueDepthMax =
      telemetry::gauge("pool.queue_depth_max");
  // Lock-free cursor: the dealing loop of parallelFor calls push once per
  // chunk, so it must not serialise on the idle mutex the workers wait on.
  const std::size_t lane =
      nextLane_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(workers_[lane]->mutex);
    workers_[lane]->tasks.push_back(std::move(task));
    depth = workers_[lane]->tasks.size();
  }
  tasksSubmitted.increment();
  queueDepthMax.max(static_cast<std::int64_t>(depth));
  if (notify) wake(/*all=*/false);
}

void ThreadPool::wake(bool all) {
  // The epoch bump under the mutex is what makes wake-ups lossless: a
  // worker that found the queues empty re-reads the epoch under the same
  // mutex before sleeping, so a wake between its scan and its wait flips
  // the predicate instead of evaporating.
  {
    std::lock_guard<std::mutex> lock(idleMutex_);
    ++wakeEpoch_;
  }
  if (all) {
    idle_.notify_all();
  } else {
    idle_.notify_one();
  }
}

void ThreadPool::runDetached(const std::function<void()>& task) noexcept {
  // Detached tasks have no caller to rethrow to; swallowing here also keeps
  // a stolen submit() task from unwinding some other thread's parallelFor.
  try {
    task();
  } catch (...) {
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers: run inline -- a 1-lane pool is the serial code path.
    runDetached(task);
    return;
  }
  push([task = std::move(task)]() { runDetached(task); });
}

bool ThreadPool::tryTake(std::size_t self, std::function<void()>& task) {
  // Own queue first, newest task (LIFO keeps the working set warm)...
  if (self < workers_.size()) {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // ...then steal the oldest task from someone else (FIFO spreads the
  // biggest remaining chunks of a batch). The steal counter includes the
  // caller's helping-loop takes (self == workers_.size()): every FIFO take
  // from another lane's deque counts.
  static const telemetry::Counter steals = telemetry::counter("pool.steals");
  for (std::size_t offset = 1; offset <= workers_.size(); ++offset) {
    const std::size_t victim = (self + offset) % workers_.size();
    if (victim == self) continue;
    Worker& other = *workers_[victim];
    std::lock_guard<std::mutex> lock(other.mutex);
    if (!other.tasks.empty()) {
      task = std::move(other.tasks.front());
      other.tasks.pop_front();
      steals.increment();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t self) {
  for (;;) {
    // Epoch snapshot BEFORE scanning the queues: any wake() that lands
    // after the snapshot flips the wait predicate below, so a push racing
    // the empty scan can never be slept through (the 50 ms timeout is a
    // belt-and-braces bound, not the recovery mechanism).
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(idleMutex_);
      seen = wakeEpoch_;
    }
    std::function<void()> task;
    if (tryTake(self, task)) {
      // Injected scheduling jitter (delay) for chaos runs; a slow worker
      // must never change counts, only latency.
      (void)FAULT_POINT("pool.task");
      task();
      continue;
    }
    // stopping_ is only checked here, where the queues were just seen
    // empty -- never before tryTake -- so shutdown drains every task
    // submitted before the destructor ran (the drain contract of
    // submit()); a worker woken by the destructor loops through tryTake
    // first.
    std::unique_lock<std::mutex> lock(idleMutex_);
    if (stopping_) return;
    idle_.wait_for(lock, std::chrono::milliseconds(50),
                   [&]() { return stopping_ || wakeEpoch_ != seen; });
  }
}

std::int64_t ThreadPool::resolveGrain(std::int64_t items, std::int64_t grain,
                                      int lanes) {
  if (grain > 0) return grain;
  // A few chunks per lane for load balance; note the auto grain depends on
  // the lane count, which is fine for associative reductions (the verifier's
  // integer counts) -- callers needing cross-thread-count bit-identity for
  // non-associative types pass an explicit grain.
  const std::int64_t target = static_cast<std::int64_t>(lanes) * 4;
  const std::int64_t g = (items + target - 1) / target;
  return g >= 1 ? g : 1;
}

void ThreadPool::parallelFor(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t items = end - begin;
  if (items <= 0) return;
  grain = resolveGrain(items, grain, lanes());

  if (workers_.empty() || items <= grain) {
    // Serial fast path: no task machinery at all.
    for (std::int64_t b = begin; b < end; b += grain) {
      telemetry::ScopedSpan span("pool/chunk");
      body(b, std::min(b + grain, end));
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->pending = (items + grain - 1) / grain;

  auto runChunk = [&body, batch, this](std::int64_t chunkBegin,
                                       std::int64_t chunkEnd) {
    try {
      // One span per shard chunk: with tracing on, the per-thread rows of
      // the Chrome trace show how the batch's chunks spread and steal.
      telemetry::ScopedSpan span("pool/chunk");
      body(chunkBegin, chunkEnd);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->mutex);
      if (!batch->error) batch->error = std::current_exception();
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(batch->mutex);
      last = --batch->pending == 0;
    }
    if (last) batch->done.notify_all();
  };

  // Keep the first chunk for the caller; deal the rest to the workers with
  // one wake-up for the whole batch (a notify per chunk is measurable
  // overhead at verifier-kernel granularity).
  for (std::int64_t b = begin + grain; b < end; b += grain) {
    const std::int64_t e = std::min(b + grain, end);
    push([runChunk, b, e]() { runChunk(b, e); }, /*notify=*/false);
  }
  wake(/*all=*/true);
  runChunk(begin, std::min(begin + grain, end));

  // Help until the batch drains: execute whatever is queued (our own chunks
  // or unrelated submitted tasks -- either way the pool makes progress).
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(batch->mutex);
      if (batch->pending == 0) break;
    }
    std::function<void()> task;
    if (tryTake(workers_.size(), task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait_for(lock, std::chrono::milliseconds(1),
                         [&]() { return batch->pending == 0; });
    if (batch->pending == 0) break;
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(defaultThreads());
  return pool;
}

PoolHandle::PoolHandle(const EngineOptions& options) {
  if (options.pool != nullptr) {
    if (options.pool->lanes() > 1) pool_ = options.pool;
    return;
  }
  // Compare against defaultThreads() rather than global().lanes() so a
  // request for a non-default lane count never instantiates the global
  // pool's worker threads as a side effect of the comparison.
  const int want = options.threads > 0 ? options.threads : defaultThreads();
  if (want == 1) return;
  if (want == defaultThreads()) {
    pool_ = &ThreadPool::global();
    return;
  }
  owned_ = std::make_unique<ThreadPool>(want);
  pool_ = owned_.get();
}

}  // namespace lclgrid::engine
