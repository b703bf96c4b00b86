// The verify_torus phase: one seeded vc:4 labelling of an n x n torus whose
// int32 labels are just larger than the host's 300 MiB L3, verified through
// verify(VerifyRequest) in-core (serial and at `lanes` lanes) and streamed
// from its LCLLABv1 file (serial and at `lanes` lanes); then the same
// buffer is refilled with a seeded weak:3:1 labelling for the serial
// nibble-LUT row. Every pass is count-mode and checked against the planted
// count.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/thread_pool.hpp"
#include "grid/torus2d.hpp"
#include "labels.hpp"
#include "lcl/problems.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verify_api.hpp"

namespace perfbench {

namespace {

/// Side of the torus: 9216^2 int32 labels are 324 MiB, 1.08x a 300 MiB L3,
/// so a pass (a sequential scan) streams its labels from memory. Not
/// larger: every run holds the labels in memory and writes them to disk
/// several times, on a host shared with other jobs. Even (vc:4 base) and a
/// multiple of 3 (weak:3:1 base).
constexpr int kSide = 9216;
/// Set-up (generate, write, fsync) is repeated this often; run.py takes the
/// median.
constexpr int kSetupRepeats = 5;

std::int64_t torusSites(const std::string& workload, Rng& rng) {
  const std::int64_t nodes = std::int64_t(kSide) * kSide;
  if (workload == "dense_faults") return nodes / 1024;
  return std::int64_t(rng.below(3));
}

struct Pass {
  std::vector<double> seconds;
  /// CPU seconds: the caller thread's for a serial pass, the process's
  /// (every lane) for a sharded one.
  std::vector<double> cpuSeconds;
  std::int64_t wrong = 0;
  int tier = -1;
};

void writePass(Json& json, const char* name, const Pass& pass) {
  json.key(name).beginObject();
  json.key("seconds").array(pass.seconds);
  json.key("cpu_s").array(pass.cpuSeconds);
  json.key("wrong").value(pass.wrong);
  json.key("tier").value(pass.tier);
  json.endObject();
}

}  // namespace

void runVerifyTorus(const RunOptions& options, Json& json) {
  using namespace lclgrid;
  const std::int64_t nodes = std::int64_t(kSide) * kSide;
  const std::string path = options.workDir + "/torus.lclab";
  Rng rng(options.seed, 300);

  // The file never outlives the phase, whichever way it ends.
  struct RemoveFile {
    std::string path;
    ~RemoveFile() { std::remove(path.c_str()); }
  } removeFile{path};

  // --- set-up: labelling, file, fsync -------------------------------------
  // fsync before timing: the passes then read a page-cache-warm file with
  // no writeback overlapping them. The fsync is timed apart from set-up:
  // it waits on the host's disk, which no change to the program moves.
  std::vector<int> labels(static_cast<std::size_t>(nodes));
  const std::int64_t vc4Sites = torusSites(options.workload, rng);
  std::int64_t vc4Expected = 0;
  std::vector<double> setupS, setupCpuS, generateS, writeS, fsyncS;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t setupStart = nowNs();
    const std::int64_t cpuStart = processCpuNs();
    vc4Expected = makeLabelling(Problem::kVc4, kSide, options.seed, 301,
                                vc4Sites, labels.data(), options.lanes);
    generateS.push_back(secondsSince(setupStart));
    const std::int64_t writeStart = nowNs();
    {
      StreamLabellingWriter writer(path, 4, 2, kSide);
      const std::int64_t rowsPerChunk = 256;
      for (std::int64_t y = 0; y < kSide; y += rowsPerChunk) {
        const std::int64_t rows = std::min<std::int64_t>(rowsPerChunk, kSide - y);
        writer.appendLabels(std::span<const int>(labels.data() + y * kSide,
                                                 std::size_t(rows * kSide)));
      }
      writer.close();
    }
    writeS.push_back(secondsSince(writeStart));
    setupS.push_back(secondsSince(setupStart));
    setupCpuS.push_back(double(processCpuNs() - cpuStart) * 1e-9);
    const std::int64_t fsyncStart = nowNs();
    const int fd = ::open(path.c_str(), O_RDONLY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!synced) throw std::runtime_error("fsync failed: " + path);
    fsyncS.push_back(secondsSince(fsyncStart));
  }

  std::vector<double> openMs;
  std::unique_ptr<StreamLabelling> file;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = nowNs();
    file = std::make_unique<StreamLabelling>(path);
    openMs.push_back(double(nowNs() - t0) * 1e-6);
  }

  const GridLcl vc4 = problems::vertexColouring(4);
  const GridLcl weak = problems::weakColouring(3, 1);
  const Torus2D torus(kSide);
  engine::ThreadPool pool(options.lanes);

  const auto run = [&](Pass& pass, const GridLcl& problem, bool inCore,
                       int lanes, std::int64_t expected, TierPin pin,
                       SpanLog& log, const char* spanName) {
    VerifyRequest request;
    request.problem = &problem;
    if (inCore) {
      request.torus = &torus;
      request.labels = labels;
    } else {
      request.file = file.get();
    }
    request.options.countViolations = true;
    request.options.tier = pin;
    request.options.engine.threads = lanes;
    if (lanes > 1) request.options.engine.pool = &pool;
    ScopedSpan span(log, spanName, 0);
    const auto cpu = lanes > 1 ? processCpuNs : threadCpuNs;
    const std::int64_t cpu0 = cpu();
    const std::int64_t t0 = nowNs();
    const VerifyResult result = verify(request);
    pass.seconds.push_back(double(nowNs() - t0) * 1e-9);
    pass.cpuSeconds.push_back(double(cpu() - cpu0) * 1e-9);
    pass.tier = int(result.tier);
    if (result.violations != expected || result.feasible != (expected == 0)) {
      ++pass.wrong;
    }
  };

  // --- vc:4 rounds: in-core serial / sharded, stream serial / sharded ------
  // In a traced run the rounds alternate traced and untraced, so the
  // tracing overhead is measured on the same passes.
  SpanLog traced(options.trace), untraced(false);
  Pass vc4Serial, vc4Sharded, streamSerial, streamSharded, vc4SerialUntraced;
  const TelemetryMark t0 = markTelemetry();
  const std::int64_t vc4Start = nowNs();
  const double vc4Budget = options.seconds * 0.7;
  const int minRounds = options.trace ? 4 : 2;
  for (int round = 0; round < minRounds || secondsSince(vc4Start) < vc4Budget;
       ++round) {
    const bool traceRound = options.trace && round % 2 == 0;
    SpanLog& log = traceRound ? traced : untraced;
    run(options.trace && !traceRound ? vc4SerialUntraced : vc4Serial, vc4,
        true, 1, vc4Expected, TierPin::kAuto, log, "torus.vc4_serial");
    run(vc4Sharded, vc4, true, options.lanes, vc4Expected, TierPin::kAuto, log,
        "torus.vc4_sharded");
    run(streamSerial, vc4, false, 1, vc4Expected, TierPin::kAuto, log,
        "torus.stream_serial");
    run(streamSharded, vc4, false, options.lanes, vc4Expected, TierPin::kAuto,
        log, "torus.stream_sharded");
  }
  const TelemetryMark t1 = markTelemetry();
  Pass tableSerial, bitslicedSerial;
  if (options.trace) {
    // The kernel tiers pinned, one pass each (the table tier is ~5x slower).
    run(tableSerial, vc4, true, 1, vc4Expected, TierPin::kTable, traced,
        "lcl.table_serial");
    run(bitslicedSerial, vc4, true, 1, vc4Expected, TierPin::kBitsliced,
        traced, "lcl.bitsliced_serial");
  }
  file.reset();
  std::remove(path.c_str());

  // --- weak:3:1, serial in-core (the nibble-LUT row) ---------------------
  const std::int64_t weakSetupStart = nowNs();
  const std::int64_t weakCpuStart = processCpuNs();
  const std::int64_t weakExpected =
      makeLabelling(Problem::kWeak31, kSide, options.seed, 302,
                    torusSites(options.workload, rng), labels.data(),
                    options.lanes);
  const double weakSetupS = secondsSince(weakSetupStart);
  const double weakSetupCpuS = double(processCpuNs() - weakCpuStart) * 1e-9;
  Pass weakSerial;
  const TelemetryMark t2 = markTelemetry();
  const std::int64_t weakStart = nowNs();
  for (int i = 0; i < 2 || secondsSince(weakStart) < options.seconds * 0.3; ++i) {
    run(weakSerial, weak, true, 1, weakExpected, TierPin::kAuto, traced,
        "torus.weak_serial");
  }
  const TelemetryMark t3 = markTelemetry();

  json.key("verify_torus").beginObject();
  json.key("side").value(kSide);
  json.key("nodes").value(nodes);
  json.key("label_bytes").value(nodes * std::int64_t(sizeof(int)));
  json.key("file_bytes").value(std::int64_t(stream_format::kHeaderBytes) +
                               nodes * std::int64_t(sizeof(int)));
  json.key("lanes").value(options.lanes);
  json.key("vc4_expected").value(vc4Expected);
  json.key("weak_expected").value(weakExpected);
  json.key("setup_s").array(setupS);
  json.key("setup_cpu_s").array(setupCpuS);
  json.key("generate_s").array(generateS);
  json.key("write_s").array(writeS);
  json.key("fsync_s").array(fsyncS);
  json.key("weak_setup_s").value(weakSetupS);
  json.key("weak_setup_cpu_s").value(weakSetupCpuS);
  json.key("open_ms").array(openMs);
  writePass(json, "vc4_serial", vc4Serial);
  writePass(json, "vc4_sharded", vc4Sharded);
  writePass(json, "stream_serial", streamSerial);
  writePass(json, "stream_sharded", streamSharded);
  writePass(json, "weak_serial", weakSerial);
  if (options.trace) {
    writePass(json, "vc4_serial_untraced", vc4SerialUntraced);
    writePass(json, "table_serial", tableSerial);
    writePass(json, "bitsliced_serial", bitslicedSerial);
    json.key("telemetry_vc4");
    writeTelemetryDelta(json, t0, t1);
    json.key("telemetry_weak");
    writeTelemetryDelta(json, t2, t3);
    json.key("spans");
    writeSpans(json, {&traced});
  }
  json.endObject();
}

}  // namespace perfbench
