// Verification throughput: the three kernel tiers of the batched engine --
// functional (std::function predicate + step calls per node), the compiled
// row-pointer table kernel, and the bit-sliced kernel (64 nodes per word,
// docs/perf.md) -- serial and sharded across the engine's work-stealing
// pool, swept over torus dimensions and problems. d = 2 measures the
// Torus2D/LclTable stack on several registry problems (including at least
// two decomposable sigma <= 4 problems, the bit-sliced kernel's headline
// case); d = 3 and d = 4 measure the TorusD/LclTableD stack (whose d = 2
// case delegates to the 2D table, so there is exactly one 2D code path).
// Reports verified nodes/sec per (dims, problem, path) and the speedup
// ratios, as JSON in the repo-wide {name, config, results[]} schema.
//
// The SIMD ladder: every 2D serial "bitsliced" row is measured once per
// bitslice::SimdTier rung up to the one this process runs (LCLGRID_SIMD and
// the host decide it; config.simd_tier names it), each row carrying a
// "simd" field -- scalar (the SSE2 baseline on x86-64), avx2, avx512. The
// sweep covers the byte-lane colouring kernel (vertex colouring), the
// generic pair-plane networks and the nibble LUT (weak-3-colouring-1).
//
// Timing hygiene: every problem's table is compiled once, at GridLcl
// construction, before any timed region; the table fingerprint is recorded
// up front and asserted unchanged after the sweep, so the JSON measures
// kernel throughput only -- a path that recompiled (or mutated) the table
// would fail the run. The "table" paths pin the row-pointer kernel on the
// request (TierPin::kTable). The "bitsliced" paths run only where automatic
// selection picks the bit-sliced kernel (verifier_detail::bitsliceSelectedD)
// and send unpinned requests, so they time what an unconfigured caller
// gets: a kBitsliced pin would add the range scan that the automatic path
// folds into its transpose. The batched paths run automatic selection too.
//
// The --mmap mode adds the fourth tier (docs/perf.md): each 2D sweep also
// writes its labelling to the on-disk LCLLABv2 format (row by row -- no
// full-grid staging buffer beyond the labels the sweep already holds) and
// measures a streaming request (VerifyRequest::file) on the memory-mapped
// file, serial and sharded. Those rows additionally report peak_rss_kb
// (getrusage high-water mark), the bounded-memory claim's measurable form:
// with --mmap-only the resident peak stays at the rolling window,
// independent of grid size; and sigma and file_bytes, the file's size on
// disk (24 + lines * planes * words * 8 bytes).
//
// Usage: bench_verify_throughput [n] [min_seconds] [--threads N]
//                                [--dims LIST] [--smoke]
//                                [--mmap] [--mmap-only] [--mmap-dir DIR]
//   n            2D torus side (default 512); the d >= 3 sides are derived
//                as floor((n*n)^(1/d)) so every sweep touches ~n^2 nodes
//   min_seconds  measurement window per path (default 1.0)
//   --threads N  lanes for the sharded paths (default: hardware concurrency)
//   --dims LIST  comma-separated dimension list (default "2,3,4")
//   --smoke      tiny sizes and windows for CI (n = 32, min_seconds = 0.02)
//   --mmap       add the streaming (out-of-core) paths to every 2D sweep
//   --mmap-only  only the streaming paths (for n too large to hold in-core:
//                implies --mmap, forces --dims 2, skips the in-core sweep)
//   --mmap-dir   directory for the temporary labelling files (default
//                $TMPDIR or /tmp; a 10^9-node torus needs ~4 GB free)
//   --trace-out F    enable span tracing and write a Chrome trace-event
//                    JSON (Perfetto-loadable) to F at exit
//   --metrics-out F  write the telemetry counters/gauges/histograms as a
//                    {name, config, results[]} metrics snapshot to F
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/label_planes.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/timing.hpp"

using namespace lclgrid;

namespace {

/// A count-mode request for `lcl` over `instance` (a Torus2D or TorusD
/// carrying `labels`, or a mapped StreamLabelling): serial, or sharded on
/// `pool` when given, on the `pin`ned tier. Every timed path sends one of
/// these.
template <typename Instance, typename Lcl>
VerifyRequest countRequest(const Instance& instance, const Lcl& lcl,
                           std::span<const int> labels,
                           engine::ThreadPool* pool,
                           TierPin pin = TierPin::kAuto) {
  VerifyRequest request;
  if constexpr (std::is_same_v<Lcl, GridLcl>) {
    request.problem = &lcl;
  } else {
    request.problemD = &lcl;
  }
  if constexpr (std::is_same_v<Instance, StreamLabelling>) {
    request.file = &instance;
  } else if constexpr (std::is_same_v<Instance, Torus2D>) {
    request.torus = &instance;
  } else {
    request.torusD = &instance;
  }
  request.labels = labels;
  request.options.countViolations = true;
  request.options.tier = pin;
  if (pool != nullptr) {
    request.options.engine.threads = pool->lanes();
    request.options.engine.pool = pool;
  }
  return request;
}

/// The seed's per-node verification loop on Torus2D, kept as the 2D
/// measurement baseline: four Torus2D::step calls and one std::function
/// dispatch per node.
std::int64_t functionalCountViolations(const Torus2D& torus,
                                       const GridLcl::Predicate& ok,
                                       int sigma,
                                       std::span<const int> labels) {
  std::int64_t bad = 0;
  for (int v = 0; v < torus.size(); ++v) {
    int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= sigma) {
      ++bad;
      continue;
    }
    int n = labels[static_cast<std::size_t>(torus.step(v, Dir::North))];
    int e = labels[static_cast<std::size_t>(torus.step(v, Dir::East))];
    int s = labels[static_cast<std::size_t>(torus.step(v, Dir::South))];
    int w = labels[static_cast<std::size_t>(torus.step(v, Dir::West))];
    if (!ok(c, n, e, s, w)) ++bad;
  }
  return bad;
}

/// The same seed-style loop on TorusD: 2d TorusD::step calls and one
/// std::function dispatch per node -- the slow functional path the
/// compiled LclTableD kernel replaces.
std::int64_t functionalCountViolationsD(const TorusD& torus,
                                        const GridLclD::Predicate& ok,
                                        int sigma,
                                        std::span<const int> labels) {
  const int dims = torus.dims();
  std::vector<int> nbrs(static_cast<std::size_t>(2 * dims), 0);
  std::int64_t bad = 0;
  for (long long v = 0; v < torus.size(); ++v) {
    int c = labels[static_cast<std::size_t>(v)];
    if (c < 0 || c >= sigma) {
      ++bad;
      continue;
    }
    for (int a = 0; a < dims; ++a) {
      nbrs[static_cast<std::size_t>(2 * a)] =
          labels[static_cast<std::size_t>(torus.step(v, a, true))];
      nbrs[static_cast<std::size_t>(2 * a + 1)] =
          labels[static_cast<std::size_t>(torus.step(v, a, false))];
    }
    if (!ok(c, nbrs)) ++bad;
  }
  return bad;
}

using support::secondsSince;

struct PathResult {
  int dims = 2;
  int n = 0;
  std::string problem;  // the sweep's actual problem name (per dimension)
  std::string path;
  double seconds = 0.0;
  double nodesPerSec = 0.0;
  int lanes = 1;  // pool lanes the path used (1 for every serial path)
  long long passes = 0;
  std::int64_t violations = 0;  // checksum: must match within a sweep
  long long peakRssKb = 0;      // recorded on the mmap paths only
  long long fileBytes = 0;      // the labelling file's size (mmap paths)
  int sigma = 0;                // the file's alphabet (mmap paths)
  const char* simd = nullptr;   // the SIMD rung of a ladder row
};

constexpr const char* kRungNames[] = {"scalar", "avx2", "avx512"};

/// Process peak resident set in KiB (a high-water mark, so meaningful for
/// the mmap paths only when the in-core sweep is skipped); 0 when the
/// platform has no getrusage.
long long peakRssKb() { return std::max(0LL, support::peakRssKb()); }

template <typename Body>
PathResult measure(int dims, int n, std::string path,
                   std::int64_t nodesPerPass, double minSeconds,
                   Body&& body) {
  PathResult result;
  result.dims = dims;
  result.n = n;
  result.path = std::move(path);
  // Warm-up pass (page in the labelling and the table).
  result.violations = body();
  auto start = std::chrono::steady_clock::now();
  do {
    result.violations = body();
    ++result.passes;
    result.seconds = secondsSince(start);
  } while (result.seconds < minSeconds);
  result.nodesPerSec =
      static_cast<double>(nodesPerPass) * result.passes / result.seconds;
  return result;
}

/// Side of the d-dimensional sweep: the largest side with side^d <= n2d^2
/// nodes. Computed with an exact integer check around the floating-point
/// root -- floor(pow(...)) alone undershoots exact roots on some libms
/// (e.g. pow(512*512, 1/3) = 63.999...), which would silently change the
/// recorded sweep sizes across platforms.
int sideForDims(int n2d, int dims) {
  const double nodes = static_cast<double>(n2d) * n2d;
  int side = static_cast<int>(std::floor(
      std::pow(nodes, 1.0 / static_cast<double>(dims))));
  auto fits = [&](int candidate) {
    double total = 1.0;
    for (int a = 0; a < dims; ++a) total *= candidate;
    return total <= nodes;
  };
  while (fits(side + 1)) ++side;
  while (side > 4 && !fits(side)) --side;
  return std::max(4, side);
}

}  // namespace

int main(int argc, char** argv) {
  int n = 512;
  double minSeconds = 1.0;
  int threads = engine::defaultThreads();
  std::vector<int> dimsList = {2, 3, 4};
  bool mmapMode = false;
  bool mmapOnly = false;
  std::string mmapDir;
  std::string traceOut;
  std::string metricsOut;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      traceOut = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metricsOut = argv[++i];
    } else if (std::strcmp(argv[i], "--dims") == 0 && i + 1 < argc) {
      dimsList.clear();
      for (const char* cursor = argv[++i]; *cursor != '\0';) {
        char* end = nullptr;
        const long dims = std::strtol(cursor, &end, 10);
        if (end == cursor) break;
        dimsList.push_back(static_cast<int>(dims));
        cursor = *end == ',' ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      n = 32;
      minSeconds = 0.02;
    } else if (std::strcmp(argv[i], "--mmap") == 0) {
      mmapMode = true;
    } else if (std::strcmp(argv[i], "--mmap-only") == 0) {
      mmapMode = true;
      mmapOnly = true;
    } else if (std::strcmp(argv[i], "--mmap-dir") == 0 && i + 1 < argc) {
      mmapDir = argv[++i];
    } else if (positional == 0) {
      n = std::atoi(argv[i]);
      ++positional;
    } else if (positional == 1) {
      minSeconds = std::atof(argv[i]);
      ++positional;
    }
  }
  if (mmapOnly) dimsList = {2};  // the streaming sweep is the 2D sweep
  if (mmapDir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    mmapDir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  bool dimsOk = !dimsList.empty();
  for (int dims : dimsList) dimsOk = dimsOk && dims >= 1 && dims <= 8;
  // Torus2D indexes nodes with int; the guard keeps n*n (and the mmap
  // payload offsets derived from it) in range. n = 46340 is ~2.1e9 nodes.
  const bool sizeOk =
      static_cast<long long>(n) * n <= 2147483647LL;
  if (n < 4 || threads < 1 || !dimsOk || !sizeOk) {
    std::fprintf(stderr,
                 "usage: %s [n] [min_seconds] [--threads N] [--dims LIST] "
                 "[--smoke] [--mmap] [--mmap-only] [--mmap-dir DIR] "
                 "[--trace-out F] [--metrics-out F] "
                 "(n >= 4, n*n <= INT_MAX, N >= 1, dims in [1, 8])\n",
                 argv[0]);
    return 2;
  }
  if (!traceOut.empty()) telemetry::setTraceEnabled(true);

  engine::ThreadPool pool(threads);
  const int batchSize = 8;
  const int colours = 4;
  // The top of the SIMD ladder; restored after every ladder sweep.
  const bitslice::SimdTier topRung = bitslice::simdTier();

  std::vector<PathResult> results;
  bool checksumOk = true;
  bool fingerprintOk = true;

  for (int dims : dimsList) {
    if (dims == 2) {
      Torus2D torus(n);
      // The decomposable sigma <= 4 problems are the bit-sliced kernel's
      // headline case (>= 4x target); noHorizontalOnePair exercises the
      // generic pair-network form and weakColouring(3, 1) the nibble LUT
      // on the same sweep. --mmap-only keeps a single problem: the sweep
      // cost there is dominated by writing and re-reading the (potentially
      // multi-GB) labelling file.
      std::vector<GridLcl> problems2d;
      problems2d.push_back(problems::vertexColouring(colours));
      if (!mmapOnly) {
        problems2d.push_back(problems::vertexColouring(3));
        problems2d.push_back(problems::noHorizontalOnePair());
        problems2d.push_back(problems::weakColouring(3, 1));
      }
      for (const GridLcl& lcl : problems2d) {
        // Compiled once, here, outside every timed region.
        const std::uint64_t fingerprint = lcl.table().fingerprint();
        const std::int64_t nodes = torus.size();
        const std::size_t first = results.size();
        if (!mmapOnly) {
          // The in-core sweep holds the whole labelling (and its 8x batch
          // copy); --mmap-only skips it so the resident peak reported on
          // the streaming rows measures the rolling window alone.
          std::vector<int> labels(static_cast<std::size_t>(torus.size()));
          for (int v = 0; v < torus.size(); ++v) {
            labels[static_cast<std::size_t>(v)] =
                (torus.xOf(v) + torus.yOf(v)) % lcl.sigma();
          }
          const VerifyRequest serial =
              countRequest(torus, lcl, labels, nullptr);
          const VerifyRequest sharded = countRequest(torus, lcl, labels, &pool);
          const VerifyRequest tableSerial =
              countRequest(torus, lcl, labels, nullptr, TierPin::kTable);
          const VerifyRequest tableSharded =
              countRequest(torus, lcl, labels, &pool, TierPin::kTable);
          results.push_back(
              measure(dims, n, "functional", nodes, minSeconds, [&]() {
                return functionalCountViolations(torus, lcl.predicate(),
                                                 lcl.sigma(), labels);
              }));
          results.push_back(
              measure(dims, n, "table", nodes, minSeconds, [&]() {
                return verify(tableSerial).violations;
              }));
          results.push_back(
              measure(dims, n, "table_sharded", nodes, minSeconds, [&]() {
                return verify(tableSharded).violations;
              }));
          results.back().lanes = threads;
          if (verifier_detail::bitsliceSelectedD(lcl.asD(), torus.size())) {
            for (int rung = 0; rung <= static_cast<int>(topRung); ++rung) {
              bitslice::setSimdTier(static_cast<bitslice::SimdTier>(rung));
              results.push_back(
                  measure(dims, n, "bitsliced", nodes, minSeconds, [&]() {
                    return verify(serial).violations;
                  }));
              results.back().simd = kRungNames[rung];
            }
            bitslice::setSimdTier(topRung);
            results.push_back(measure(
                dims, n, "bitsliced_sharded", nodes, minSeconds, [&]() {
                  return verify(sharded).violations;
                }));
            results.back().lanes = threads;
          }

          // Batched paths: 8 labellings back-to-back through one call, on
          // automatic selection.
          std::vector<int> batch;
          batch.reserve(labels.size() * static_cast<std::size_t>(batchSize));
          for (int i = 0; i < batchSize; ++i) {
            batch.insert(batch.end(), labels.begin(), labels.end());
          }
          // The per-labelling mean, comparable with the single passes.
          const VerifyRequest serialBatch =
              countRequest(torus, lcl, batch, nullptr);
          const VerifyRequest shardedBatch =
              countRequest(torus, lcl, batch, &pool);
          results.push_back(measure(
              dims, n, "batched", nodes * batchSize, minSeconds, [&]() {
                return verify(serialBatch).violations / batchSize;
              }));
          results.push_back(measure(
              dims, n, "batched_sharded", nodes * batchSize, minSeconds,
              [&]() {
                return verify(shardedBatch).violations / batchSize;
              }));
          results.back().lanes = threads;
        }
        if (mmapMode) {
          // The streaming tier: the same diagonal labelling written to the
          // on-disk format row by row (one row buffer -- never the full
          // grid), then verified from the mapping.
          const std::string path = mmapDir + "/lclgrid_bench_" +
                                   std::to_string(n) + "_" +
                                   std::to_string(first) + ".lcllab";
          {
            StreamLabellingWriter writer(path, lcl.sigma(), 2, n);
            std::vector<int> row(static_cast<std::size_t>(n));
            for (int y = 0; y < n; ++y) {
              for (int x = 0; x < n; ++x) {
                row[static_cast<std::size_t>(x)] = (x + y) % lcl.sigma();
              }
              writer.appendLabels(row);
            }
            writer.close();
          }
          const auto fileBytes =
              static_cast<long long>(std::filesystem::file_size(path));
          StreamLabelling mapped(path);
          const VerifyRequest streamSerial =
              countRequest(mapped, lcl, {}, nullptr);
          const VerifyRequest streamSharded =
              countRequest(mapped, lcl, {}, &pool);
          results.push_back(
              measure(dims, n, "mmap_stream", nodes, minSeconds, [&]() {
                return verify(streamSerial).violations;
              }));
          results.back().peakRssKb = peakRssKb();
          results.push_back(measure(
              dims, n, "mmap_stream_sharded", nodes, minSeconds, [&]() {
                return verify(streamSharded).violations;
              }));
          results.back().lanes = threads;
          results.back().peakRssKb = peakRssKb();
          for (std::size_t i = results.size() - 2; i < results.size(); ++i) {
            results[i].fileBytes = fileBytes;
            results[i].sigma = lcl.sigma();
          }
          std::remove(path.c_str());
        }
        for (std::size_t i = first; i < results.size(); ++i) {
          results[i].problem = lcl.name();
          checksumOk =
              checksumOk && results[i].violations == results[first].violations;
        }
        fingerprintOk =
            fingerprintOk && lcl.table().fingerprint() == fingerprint;
      }
    } else {
      const int side = sideForDims(n, dims);
      TorusD torus(dims, side);
      GridLclD lcl = problems_d::vertexColouring(dims, colours);
      const std::uint64_t fingerprint = lcl.table().fingerprint();
      std::vector<int> labels(static_cast<std::size_t>(torus.size()));
      for (long long v = 0; v < torus.size(); ++v) {
        int sum = 0;
        for (int a = 0; a < dims; ++a) sum += torus.coord(v, a);
        labels[static_cast<std::size_t>(v)] = sum % colours;
      }
      const std::int64_t nodes = torus.size();
      const std::size_t first = results.size();
      results.push_back(
          measure(dims, side, "functional", nodes, minSeconds, [&]() {
            return functionalCountViolationsD(torus, lcl.predicate(),
                                              lcl.sigma(), labels);
          }));
      const VerifyRequest serial = countRequest(torus, lcl, labels, nullptr);
      const VerifyRequest sharded = countRequest(torus, lcl, labels, &pool);
      const VerifyRequest tableSerial =
          countRequest(torus, lcl, labels, nullptr, TierPin::kTable);
      const VerifyRequest tableSharded =
          countRequest(torus, lcl, labels, &pool, TierPin::kTable);
      results.push_back(measure(dims, side, "table", nodes, minSeconds, [&]() {
        return verify(tableSerial).violations;
      }));
      results.push_back(
          measure(dims, side, "table_sharded", nodes, minSeconds, [&]() {
            return verify(tableSharded).violations;
          }));
      results.back().lanes = threads;
      if (verifier_detail::bitsliceSelectedD(lcl, torus.size())) {
        results.push_back(
            measure(dims, side, "bitsliced", nodes, minSeconds, [&]() {
              return verify(serial).violations;
            }));
        results.push_back(
            measure(dims, side, "bitsliced_sharded", nodes, minSeconds, [&]() {
              return verify(sharded).violations;
            }));
        results.back().lanes = threads;
      }
      for (std::size_t i = first; i < results.size(); ++i) {
        results[i].problem = lcl.name();
        checksumOk =
            checksumOk && results[i].violations == results[first].violations;
      }
      fingerprintOk =
          fingerprintOk && lcl.table().fingerprint() == fingerprint;
    }
  }

  // Per-sweep speedup baselines: the functional and table rates of the
  // (dims, problem) sweep each result belongs to.
  auto rateOf = [&](int dims, const std::string& problem, const char* path) {
    for (const PathResult& result : results) {
      if (result.dims == dims && result.problem == problem &&
          result.path == path) {
        return result.nodesPerSec;
      }
    }
    return 0.0;
  };

  support::JsonWriter json;
  json.beginObject();
  json.key("name").value("verify_throughput");
  json.key("config").beginObject();
  // The per-dimension problem names and sides live on each result entry;
  // the config records the shared anchor size and thread count.
  json.key("problem_family").value("vertex-colouring(4) + registry");
  json.key("torus_n").value(n);
  json.key("batch").value(batchSize);
  json.key("threads").value(threads);
  json.key("min_seconds").value(minSeconds);
  json.key("simd_tier").value(kRungNames[static_cast<int>(topRung)]);
  json.key("mmap").value(mmapMode);
  json.key("mmap_only").value(mmapOnly);
  json.key("dims").beginArray();
  for (int dims : dimsList) json.value(dims);
  json.endArray();
  json.endObject();
  json.key("results").beginArray();
  for (const PathResult& result : results) {
    json.beginObject();
    json.key("dims").value(result.dims);
    json.key("torus_n").value(result.n);
    json.key("problem").value(result.problem);
    json.key("path").value(result.path);
    json.key("nodes_per_sec").value(result.nodesPerSec);
    json.key("nodes_per_sec_per_core")
        .value(result.nodesPerSec / result.lanes);
    json.key("lanes").value(result.lanes);
    json.key("passes").value(result.passes);
    json.key("seconds").value(result.seconds);
    json.key("violations").value(result.violations);
    if (result.path == "mmap_stream" || result.path == "mmap_stream_sharded") {
      json.key("peak_rss_kb").value(result.peakRssKb);
      json.key("sigma").value(result.sigma);
      json.key("file_bytes").value(result.fileBytes);
    }
    if (result.simd != nullptr) json.key("simd").value(result.simd);
    const double functionalRate =
        rateOf(result.dims, result.problem, "functional");
    if (functionalRate > 0.0) {
      json.key("speedup_vs_functional")
          .value(result.nodesPerSec / functionalRate);
    }
    if (result.path == "table_sharded" || result.path == "bitsliced" ||
        result.path == "bitsliced_sharded" || result.path == "mmap_stream" ||
        result.path == "mmap_stream_sharded") {
      const double tableRate = rateOf(result.dims, result.problem, "table");
      if (tableRate > 0.0) {
        json.key("speedup_vs_table").value(result.nodesPerSec / tableRate);
      }
    }
    json.endObject();
  }
  json.endArray();
  json.key("checksum_ok").value(checksumOk);
  json.key("fingerprint_ok").value(fingerprintOk);
  json.endObject();
  std::printf("%s\n", json.str().c_str());

  if (!traceOut.empty() && !telemetry::writeTraceFile(traceOut)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 traceOut.c_str());
  }
  if (!metricsOut.empty() && !telemetry::writeMetricsFile(metricsOut)) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n",
                 metricsOut.c_str());
  }

  if (!checksumOk) {
    std::fprintf(stderr, "FAIL: paths disagree on the violation count\n");
    return 1;
  }
  if (!fingerprintOk) {
    std::fprintf(stderr,
                 "FAIL: a timed path recompiled or mutated a table\n");
    return 1;
  }
  return 0;
}
