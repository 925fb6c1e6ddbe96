#include "common/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/log.h"
#include "compress/spec.h"
#include "nn/zoo.h"
#include "ps/protocol.h"

namespace ss {
namespace {

// The CLI used to feed flag values straight into std::stoull/stoi, so a typo
// like `--steps 10x` aborted the process via an uncaught std::invalid_argument.
// These helpers must instead reject anything that is not a complete, in-range
// literal, with a message naming the flag — the table below pins both the
// accept and the reject sides.

TEST(CliParse, AcceptsValidIntegers) {
  EXPECT_EQ(parse_u64("--steps", "0"), 0u);
  EXPECT_EQ(parse_u64("--steps", "8192"), 8192u);
  EXPECT_EQ(parse_u64("--seed", "18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_i64("--crash-after", "-1"), -1);
  EXPECT_EQ(parse_i64("--crash-after", "9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_int("--workers", "4"), 4);
  EXPECT_EQ(parse_int("--workers", "-2147483648"), INT32_MIN);
  EXPECT_EQ(parse_int("--workers", "2147483647"), INT32_MAX);
}

TEST(CliParse, AcceptsValidDoubles) {
  EXPECT_DOUBLE_EQ(parse_double("--lr", "0.05"), 0.05);
  EXPECT_DOUBLE_EQ(parse_double("--lr", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("--momentum", "-0.5"), -0.5);
}

struct RejectCase {
  const char* flag;
  const char* value;
};

TEST(CliParse, RejectsMalformedU64) {
  const RejectCase cases[] = {
      {"--steps", ""},        // empty
      {"--steps", "8x"},      // trailing junk
      {"--steps", " 8"},      // leading whitespace
      {"--steps", "8 "},      // trailing whitespace
      {"--steps", "-1"},      // negative into unsigned
      {"--steps", "1e3"},     // float syntax
      {"--steps", "0x10"},    // hex not accepted
      {"--seed", "18446744073709551616"},  // UINT64_MAX + 1
      {"--steps", "ten"},
  };
  for (const RejectCase& c : cases) {
    try {
      (void)parse_u64(c.flag, c.value);
      FAIL() << c.flag << "=" << c.value << " parsed without error";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(c.flag) + ": expected integer, got '" + c.value + "'")
          << "for value '" << c.value << "'";
    }
  }
}

TEST(CliParse, RejectsMalformedI64) {
  const RejectCase cases[] = {
      {"--crash-after", ""},
      {"--crash-after", "5.0"},
      {"--crash-after", "--3"},
      {"--crash-after", "9223372036854775808"},  // INT64_MAX + 1
  };
  for (const RejectCase& c : cases) {
    EXPECT_THROW((void)parse_i64(c.flag, c.value), ConfigError)
        << c.flag << "=" << c.value;
  }
}

TEST(CliParse, RejectsOutOfIntRange) {
  // Fits in i64 but not int: parse_int must reject rather than truncate.
  EXPECT_THROW((void)parse_int("--workers", "2147483648"), ConfigError);
  EXPECT_THROW((void)parse_int("--workers", "-2147483649"), ConfigError);
  try {
    (void)parse_int("--workers", "4294967296");
    FAIL() << "out-of-int value parsed without error";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "--workers: expected integer, got '4294967296'");
  }
}

TEST(CliParse, RejectsMalformedDoubles) {
  const RejectCase cases[] = {
      {"--lr", ""},
      {"--lr", "0.05x"},
      {"--lr", "fast"},
      {"--lr", " 0.1"},
      {"--lr", "inf"},
      {"--lr", "-inf"},
      {"--lr", "nan"},
      {"--lr", "1e999"},  // past double's range
  };
  for (const RejectCase& c : cases) {
    try {
      (void)parse_double(c.flag, c.value);
      FAIL() << c.flag << "=" << c.value << " parsed without error";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(c.flag) + ": expected number, got '" + c.value + "'");
    }
  }
}

// Each enum has one name table, beside its *_name function; every flag and
// trace field that names an enumerator reads it.  Each must read back every
// name its *_name function writes.

TEST(NameTables, EveryProtocolRoundTrips) {
  for (int i = 0; i <= static_cast<int>(Protocol::kKBatchAsync); ++i) {
    const auto p = static_cast<Protocol>(i);
    EXPECT_EQ(parse_protocol(protocol_name(p)), p) << protocol_name(p);
  }
  // Case-insensitive, with '-' ignored: the trace's and the CLI's spelling.
  EXPECT_EQ(parse_protocol("bsp"), Protocol::kBsp);
  EXPECT_EQ(parse_protocol("kbatchasync"), Protocol::kKBatchAsync);
  EXPECT_EQ(parse_protocol("K-Sync"), Protocol::kKSync);
  EXPECT_EQ(parse_protocol("tcp"), std::nullopt);
  EXPECT_EQ(parse_protocol(""), std::nullopt);
}

TEST(NameTables, EveryArchRoundTrips) {
  for (int i = 0; i <= static_cast<int>(ModelArch::kResNet50BnLite); ++i) {
    const auto a = static_cast<ModelArch>(i);
    EXPECT_EQ(parse_arch(arch_name(a)), a) << arch_name(a);
  }
  EXPECT_EQ(parse_arch("unknown"), std::nullopt);
  EXPECT_EQ(parse_arch("Linear"), std::nullopt);
}

TEST(NameTables, EveryCodecKindRoundTrips) {
  for (int i = 0; i <= static_cast<int>(CodecKind::kQsgd); ++i) {
    const auto k = static_cast<CodecKind>(i);
    EXPECT_EQ(parse_codec_kind(codec_kind_name(k)), k) << codec_kind_name(k);
  }
  EXPECT_EQ(parse_codec_kind("?"), std::nullopt);
  EXPECT_EQ(parse_codec_kind("zstd"), std::nullopt);
}

TEST(NameTables, LogLevelNamesCoverEveryLevel) {
  // LogLevel has no *_name function; its names are the --log-level spellings.
  const char* names[] = {"debug", "info", "warn", "error", "off"};
  for (int i = 0; i <= static_cast<int>(LogLevel::kOff); ++i)
    EXPECT_EQ(parse_log_level(names[i]), static_cast<LogLevel>(i)) << names[i];
  EXPECT_EQ(parse_log_level("loud"), std::nullopt);
}

}  // namespace
}  // namespace ss
