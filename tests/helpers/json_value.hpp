// Test-only JSON reader: a recursive-descent parser into a boxed value
// tree, so the service tests can assert on the daemon's classify and stats
// documents field by field. The library itself only writes JSON
// (support/json.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lclgrid::support {

/// A parsed JSON value (the documents under test are tiny, so a
/// straightforward boxed tree is plenty). Numbers keep both renderings:
/// isInt() when the literal was integral and fits int64.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }

  /// Typed accessors; throw std::runtime_error("json: ...") on a kind
  /// mismatch.
  bool asBool() const;
  std::int64_t asInt() const;       // Int only
  double asDouble() const;          // Int or Double
  const std::string& asString() const;
  const std::vector<JsonValue>& asArray() const;

  /// Object member or nullptr when absent / not an object.
  const JsonValue* find(std::string_view key) const;
  /// Required object member; throws std::runtime_error naming the key.
  const JsonValue& at(std::string_view key) const;

  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool b);
  static JsonValue makeInt(std::int64_t i);
  static JsonValue makeDouble(double d);
  static JsonValue makeString(std::string s);
  static JsonValue makeArray(std::vector<JsonValue> items);
  static JsonValue makeObject(std::map<std::string, JsonValue, std::less<>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue, std::less<>> object_;
};

/// Parses one JSON document (RFC 8259: objects, arrays, strings with the
/// standard escapes incl. \uXXXX, numbers, true/false/null); trailing
/// non-whitespace or any syntax error throws std::runtime_error with a
/// byte offset. Duplicate object keys keep the last occurrence.
JsonValue parseJson(std::string_view text);

}  // namespace lclgrid::support
