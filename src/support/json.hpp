// A minimal streaming JSON writer for the bench binaries, the engine's
// sweep reports and the service daemon's classify / stats documents. All
// JSON emitted by the repo follows one top-level schema:
//
//   { "name": <bench/driver id>, "config": { ... }, "results": [ ... ] }
//
// so the perf-trajectory tooling can ingest every binary uniformly. The
// writer tracks the container stack and inserts commas; strings are escaped
// per RFC 8259. Numbers: doubles use shortest round-trip-ish %.12g (JSON
// has no NaN/Inf -- those are emitted as null), 64-bit ints print exactly,
// and uint64 fingerprints should be passed through hex() to stay inside the
// interoperable 53-bit integer range.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lclgrid::support {

class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Object key; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  // One overload per distinct signed type: int/long/long long are always
  // distinct types, whereas an std::int64_t overload would collide with one
  // of them on some ABI (long on LP64, long long on LLP64).
  JsonWriter& value(long long number);
  JsonWriter& value(long number) { return value(static_cast<long long>(number)); }
  JsonWriter& value(int number) { return value(static_cast<long long>(number)); }
  JsonWriter& value(bool flag);

  /// "0x..." rendering for 64-bit fingerprints (exact in every JSON parser).
  static std::string hex(std::uint64_t word);

  /// The completed document; the container stack must be empty.
  const std::string& str() const;

 private:
  void beforeValue();

  std::string out_;
  struct Frame {
    bool isObject = false;
    std::size_t count = 0;  // elements written so far
  };
  std::vector<Frame> frames_;
  bool pendingKey_ = false;
};

}  // namespace lclgrid::support
