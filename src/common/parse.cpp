#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "common/error.h"

namespace ss {

namespace {

[[noreturn]] void fail(const std::string& flag, const char* kind, const std::string& value) {
  throw ConfigError(flag + ": expected " + kind + ", got '" + value + "'");
}

template <typename T>
T parse_with_from_chars(const std::string& flag, const char* kind, const std::string& value) {
  T out{};
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  // from_chars demands the whole string parse cleanly: no leading
  // whitespace, no trailing junk, no out-of-range values.
  if (ec != std::errc{} || ptr != last || value.empty()) fail(flag, kind, value);
  return out;
}

}  // namespace

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  return parse_with_from_chars<std::uint64_t>(flag, "integer", value);
}

std::int64_t parse_i64(const std::string& flag, const std::string& value) {
  return parse_with_from_chars<std::int64_t>(flag, "integer", value);
}

int parse_int(const std::string& flag, const std::string& value) {
  const std::int64_t v = parse_i64(flag, value);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    fail(flag, "integer", value);
  return static_cast<int>(v);
}

double parse_double(const std::string& flag, const std::string& value) {
  const double v = parse_with_from_chars<double>(flag, "number", value);
  if (!std::isfinite(v)) fail(flag, "number", value);
  return v;
}

}  // namespace ss
