// Checked number parsing for input from outside the program: the CLI's flag
// values and the scenario trace's fields (scenario/trace_replay.h).
//
// The raw std::sto* family is the wrong tool here: it accepts trailing junk
// ("8x" parses as 8), silently wraps negatives into unsigned types, and
// throws std::invalid_argument/std::out_of_range with useless messages
// ("stoull") that read like a crash.  These helpers parse the full string
// with std::from_chars (decimal only: no sign '+', no hex, no whitespace)
// and throw ConfigError carrying a label and the offending value —
// "--workers: expected integer, got 'eight'", or for a trace field
// "t.csv:5: seed: expected integer, got '-1'" — so the caller can report it
// instead of aborting.
#pragma once

#include <cstdint>
#include <string>

namespace ss {

/// Parse a non-negative integer flag value.  Throws ConfigError
/// ("<flag>: expected integer, got '<value>'") on empty input, sign,
/// trailing junk, or overflow.
[[nodiscard]] std::uint64_t parse_u64(const std::string& flag, const std::string& value);

/// Parse a (possibly negative) integer flag value.  Same error contract.
[[nodiscard]] std::int64_t parse_i64(const std::string& flag, const std::string& value);

/// parse_i64 narrowed to int; out-of-range values are rejected, not wrapped.
[[nodiscard]] int parse_int(const std::string& flag, const std::string& value);

/// Parse a finite floating-point value ("<flag>: expected number, got ...");
/// "inf", "nan" and out-of-range values are rejected.
[[nodiscard]] double parse_double(const std::string& flag, const std::string& value);

}  // namespace ss
