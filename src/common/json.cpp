#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/error.h"

namespace ss {

namespace {

// The two-character escapes, as the letter after the backslash and the byte
// it stands for.  json_escape writes the first five; the reader also takes
// "\/".  Every other control character is written as \u00XX.
constexpr std::string_view kEscapeLetters = "\"\\nrt/";
constexpr std::string_view kEscapedBytes = "\"\\\n\r\t/";

/// Recursive descent over one document.  `field` is what an error names:
/// the member whose value is being read, "key", or the caller's root name.
class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& file) : text_(text), file_(file) {}

  JsonValue document(const std::string& root) {
    JsonValue v = value(root, 0);
    skip_ws();
    if (pos_ != text_.size()) fail(root, "trailing content after the JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;  // bounds the recursion on hostile input

  JsonValue value(const std::string& field, int depth) {
    skip_ws();
    JsonValue v;
    v.line = line_;
    const char open = peek();
    if (open == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = read_string(field);
      return v;
    }
    if (open != '{' && open != '[') {  // a number, as JSON spells one
      const std::size_t start = pos_;
      next('-');
      if (!next('0') && !digits()) fail(field, "expected a string, number, object or array");
      if (next('.') && !digits()) fail(field, "expected a digit after '.'");
      if (next('e') || next('E')) {
        if (!next('+')) next('-');
        if (!digits()) fail(field, "expected a digit in the exponent");
      }
      v.text = text_.substr(start, pos_ - start);
      return v;
    }
    if (depth == kMaxDepth)
      fail(field, "nested deeper than " + std::to_string(kMaxDepth) + " levels");
    ++pos_;
    const char close = open == '{' ? '}' : ']';
    v.kind = open == '{' ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    skip_ws();
    if (peek() != close) {
      do {
        skip_ws();
        if (open == '[') {
          v.array.push_back(value(field, depth + 1));
        } else {
          JsonMember m;
          m.line = line_;
          m.key = read_string("key");
          expect(':', m.key);
          m.value = value(m.key, depth + 1);
          v.object.push_back(std::move(m));
        }
        skip_ws();
      } while (next(','));
    }
    if (!next(close)) fail(field, std::string("expected ',' or '") + close + "'");
    return v;
  }

  std::string read_string(const std::string& field) {
    expect('"', field);
    std::string out;
    while (!next('"')) {
      if (pos_ >= text_.size() || text_[pos_] == '\n') fail(field, "unterminated string");
      const char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) fail(field, "raw control character in a string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = pos_ < text_.size() ? text_[pos_++] : '\0';
      const std::size_t simple = kEscapeLetters.find(e);
      if (simple != std::string_view::npos) {
        out += kEscapedBytes[simple];
        continue;
      }
      const std::string hex = e == 'u' ? text_.substr(pos_, 4) : "";
      const bool is_hex =
          hex.size() == 4 && hex.find_first_not_of("0123456789abcdefABCDEF") == std::string::npos;
      const int code = is_hex ? std::stoi(hex, nullptr, 16) : 0x80;
      if (code >= 0x80)
        fail(field, "unsupported escape (want \\\" \\\\ \\/ \\n \\r \\t or \\u0000-\\u007f)");
      out += static_cast<char>(code);
      pos_ += 4;
    }
    return out;
  }

  void expect(char c, const std::string& field) {
    skip_ws();
    if (!next(c)) fail(field, std::string("expected '") + c + "'");
  }

  bool digits() {
    const std::size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return pos_ > start;
  }

  bool next(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    for (; pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])); ++pos_)
      line_ += text_[pos_] == '\n';
  }

  [[noreturn]] void fail(const std::string& field, const std::string& why) const {
    throw ConfigError(file_ + ":" + std::to_string(line_) + ": " + field + ": " + why);
  }

  const std::string& text_;
  const std::string& file_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    const std::size_t i = kEscapedBytes.substr(0, 5).find(c);
    if (i != std::string_view::npos) {
      out += '\\';
      out += kEscapeLetters[i];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xff);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string shortest_decimal(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), v).ptr};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return std::isnan(v) ? "\"nan\"" : v > 0 ? "\"inf\"" : "\"-inf\"";
  return shortest_decimal(v);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const JsonMember& m : object)
    if (m.key == key) return &m.value;
  return nullptr;
}

JsonValue parse_json(const std::string& text, const std::string& file, const std::string& root) {
  return JsonParser(text, file).document(root);
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) { os_ << "[\n"; }

ChromeTraceWriter::~ChromeTraceWriter() {
  if (!closed_) close();
}

void ChromeTraceWriter::end_pending() {
  if (in_args_) {
    os_ << '}';
    in_args_ = false;
  }
  if (in_event_) {
    os_ << '}';
    in_event_ = false;
  }
}

ChromeTraceWriter& ChromeTraceWriter::event() {
  end_pending();
  if (!first_event_) os_ << ",\n";
  first_event_ = false;
  os_ << '{';
  in_event_ = true;
  first_field_ = true;
  return *this;
}

void ChromeTraceWriter::key(const char* k) {
  if (!first_field_) os_ << ',';
  first_field_ = false;
  os_ << '"' << k << "\":";
}

ChromeTraceWriter& ChromeTraceWriter::field(const char* k, std::int64_t v) {
  key(k);
  os_ << v;
  return *this;
}

ChromeTraceWriter& ChromeTraceWriter::field(const char* k, int v) {
  return field(k, static_cast<std::int64_t>(v));
}

ChromeTraceWriter& ChromeTraceWriter::field(const char* k, double v) {
  return raw(k, json_number(v));
}

ChromeTraceWriter& ChromeTraceWriter::field(const char* k, const std::string& v) {
  key(k);
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

ChromeTraceWriter& ChromeTraceWriter::field(const char* k, const char* v) {
  return field(k, std::string(v));
}

ChromeTraceWriter& ChromeTraceWriter::raw(const char* k, const std::string& json) {
  key(k);
  os_ << json;
  return *this;
}

ChromeTraceWriter& ChromeTraceWriter::args() {
  key("args");
  os_ << '{';
  in_args_ = true;
  first_field_ = true;
  return *this;
}

void ChromeTraceWriter::close() {
  end_pending();
  os_ << "\n]\n";
  closed_ = true;
}

}  // namespace ss
