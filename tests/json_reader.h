// Minimal strict JSON reader for tests that parse exported Chrome traces.
#pragma once

#include <cctype>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ss {

// A strict JSON parser — enough to prove a trace file is well-formed
// and to pull out event fields.  Throws std::runtime_error on any syntax
// error, which is the point: the trace must parse, not merely look plausible.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return bool_value();
      case 'n':
        return null_value();
      default:
        return number_value();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace_back(key.str, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              fail("bad \\u escape");
          // Escaped control characters decode losslessly below 0x80; the
          // writer only emits \u00XX, which is all this parser needs.
          v.str += static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue bool_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null_value() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return {};
  }

  JsonValue number_value() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace ss
