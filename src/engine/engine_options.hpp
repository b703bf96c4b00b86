// The knob struct shared by every threaded entry point in the library
// (VerifyOptions::engine, the family sweep, classify). Deliberately free of
// <thread>-family includes, so headers that only carry the options --
// lcl/verify_api.hpp among them -- stay lean; the pool itself is
// engine/thread_pool.hpp.
#pragma once

#include <cstdint>

namespace lclgrid::engine {

class ThreadPool;

/// Worker lanes used when EngineOptions::threads == 0: the LCLGRID_THREADS
/// environment variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1).
int defaultThreads();

struct EngineOptions {
  /// Total lanes (including the calling thread); 0 means defaultThreads(),
  /// 1 means run inline on the caller, with no pool. Any other
  /// non-default count with a null `pool` spins up (and joins) a private
  /// pool *per call* -- fine for a one-off, but hot loops wanting such a
  /// count should construct a ThreadPool once and pass it via `pool` (as
  /// the benches do).
  int threads = 0;
  /// Work items per chunk: grid rows for single-labelling verification (on
  /// every code path -- the node-indexed fallback scales the row grain
  /// internally), labellings for the batch entry points. FamilySweep
  /// always runs one problem per task regardless (a slow classification
  /// must not serialise chunk-mates).
  /// 0 picks a size that yields a few chunks per lane -- that auto size
  /// depends on the lane count, which is harmless for the verifier's
  /// associative integer counts (identical for every chunking). Pass an
  /// explicit grain to fix the chunk boundaries themselves, which makes
  /// even non-associative reductions bit-identical across thread counts.
  std::int64_t grain = 0;
  /// Optional existing pool to run on (non-owning); a one-lane pool runs
  /// inline like threads == 1. When null, `threads` selects inline
  /// execution, the process-global pool or a temporary one.
  ThreadPool* pool = nullptr;
};

}  // namespace lclgrid::engine
