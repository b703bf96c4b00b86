#include "helpers/json_value.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace lclgrid::support {

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) throw std::runtime_error("json: not a bool");
  return bool_;
}

std::int64_t JsonValue::asInt() const {
  if (kind_ != Kind::Int) throw std::runtime_error("json: not an integer");
  return int_;
}

double JsonValue::asDouble() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) throw std::runtime_error("json: not a number");
  return double_;
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::asArray() const {
  if (kind_ != Kind::Array) throw std::runtime_error("json: not an array");
  return array_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("json: missing key \"" + std::string(key) + '"');
  }
  return *value;
}

JsonValue JsonValue::makeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::makeInt(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::Int;
  v.int_ = i;
  return v;
}
JsonValue JsonValue::makeDouble(double d) {
  JsonValue v;
  v.kind_ = Kind::Double;
  v.double_ = d;
  return v;
}
JsonValue JsonValue::makeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}
JsonValue JsonValue::makeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.array_ = std::move(items);
  return v;
}
JsonValue JsonValue::makeObject(
    std::map<std::string, JsonValue, std::less<>> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.object_ = std::move(members);
  return v;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + '\'');
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expectLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  JsonValue parseValue() {
    skipWhitespace();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return JsonValue::makeString(parseString());
      case 't': expectLiteral("true"); return JsonValue::makeBool(true);
      case 'f': expectLiteral("false"); return JsonValue::makeBool(false);
      case 'n': expectLiteral("null"); return JsonValue::makeNull();
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    std::map<std::string, JsonValue, std::less<>> members;
    skipWhitespace();
    if (consume('}')) return JsonValue::makeObject(std::move(members));
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      members.insert_or_assign(std::move(key), parseValue());
      skipWhitespace();
      if (consume('}')) return JsonValue::makeObject(std::move(members));
      expect(',');
    }
  }

  JsonValue parseArray() {
    expect('[');
    std::vector<JsonValue> items;
    skipWhitespace();
    if (consume(']')) return JsonValue::makeArray(std::move(items));
    while (true) {
      items.push_back(parseValue());
      skipWhitespace();
      if (consume(']')) return JsonValue::makeArray(std::move(items));
      expect(',');
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': appendUtf8(out, parseHex4()); break;
        default: fail("invalid escape");
      }
    }
  }

  unsigned parseHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  // BMP-only \u handling (no surrogate pairing): the debug protocol's
  // fields are ASCII identifiers and file paths, and an unpaired surrogate
  // encodes as its raw 3-byte form rather than an error.
  static void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    consume('-');
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue::makeInt(value);
      }
      // Out of int64 range: fall through to the double rendering.
    }
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return JsonValue::makeDouble(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parseJson(std::string_view text) {
  return JsonParser(text).parseDocument();
}

}  // namespace lclgrid::support
