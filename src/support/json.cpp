#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lclgrid::support {

namespace {

void appendEscaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

void JsonWriter::beforeValue() {
  if (pendingKey_) {
    pendingKey_ = false;
    return;
  }
  if (!frames_.empty() && frames_.back().isObject) {
    throw std::logic_error("JsonWriter: bare value inside object (use key)");
  }
  if (!frames_.empty() && frames_.back().count > 0) out_.push_back(',');
  if (!frames_.empty()) ++frames_.back().count;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_.push_back('{');
  frames_.push_back({/*isObject=*/true, 0});
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  if (frames_.empty() || !frames_.back().isObject || pendingKey_) {
    throw std::logic_error("JsonWriter: mismatched endObject");
  }
  frames_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_.push_back('[');
  frames_.push_back({/*isObject=*/false, 0});
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  if (frames_.empty() || frames_.back().isObject || pendingKey_) {
    throw std::logic_error("JsonWriter: mismatched endArray");
  }
  frames_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (frames_.empty() || !frames_.back().isObject || pendingKey_) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  if (frames_.back().count > 0) out_.push_back(',');
  ++frames_.back().count;
  appendEscaped(out_, name);
  out_.push_back(':');
  pendingKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  beforeValue();
  appendEscaped(out_, text);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  beforeValue();
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.12g", number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(long long number) {
  beforeValue();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  beforeValue();
  out_ += flag ? "true" : "false";
  return *this;
}

std::string JsonWriter::hex(std::uint64_t word) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(word));
  return buffer;
}

const std::string& JsonWriter::str() const {
  if (!frames_.empty()) {
    throw std::logic_error("JsonWriter: unclosed container");
  }
  return out_;
}

}  // namespace lclgrid::support
