// Shared JSON emission and reading: string escaping, number formatting, a
// Chrome trace-event array writer, and one reader for what the repo writes.
// The one trace exporter, obs::WallTracer (obs/tracer.h), writes through it
// for both of its clocks: the real runtimes' wall time and the simulator's
// virtual time (ps/trace.h's TraceSink), so the two timelines stay
// byte-level compatible and open in the same Perfetto view.  The reader
// parses scenario trace files (scenario/trace_replay.h) and, in tests, the
// exported Chrome traces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ss {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// The shortest decimal that parses back to exactly `v` (std::to_chars):
/// "0.1", not "0.10000000000000001", and every digit of 0.72509765625.  A
/// non-finite value is "nan", "-nan", "inf" or "-inf".
std::string shortest_decimal(double v);

/// A double as a JSON value: finite values as shortest_decimal() writes
/// them, and a non-finite one as the string "nan", "inf" or "-inf" (JSON
/// has no literal for them).
std::string json_number(double v);

struct JsonMember;

/// A parsed JSON value.  There is no true/false/null: nothing in the repo
/// writes them, and the reader refuses them.
struct JsonValue {
  enum class Kind { kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNumber;
  int line = 1;                    ///< source line the value starts on
  std::string text;                ///< a string's decoded bytes, a number's source text
  std::vector<JsonValue> array;    ///< kArray elements
  std::vector<JsonMember> object;  ///< kObject members in source order, duplicates kept

  /// The first member called `key`, or null (also for a non-object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// A number's value (std::stod of its text).
  [[nodiscard]] double number() const { return std::stod(text); }
};

struct JsonMember {
  std::string key;
  int line = 1;  ///< source line of the key
  JsonValue value;
};

/// Parse one JSON document: objects, arrays, strings and numbers, nested
/// at most 64 deep.  A string takes the escapes json_escape emits (`\"`,
/// `\\`, `\n`, `\r`, `\t`, `\u0000`-`\u007f`) plus `\/`.  A syntax error
/// throws ConfigError("<file>:<line>: <field>: why"), where <field> is the
/// key of the member whose value is being read, `key` while a key is read,
/// and `root` outside any member.
[[nodiscard]] JsonValue parse_json(const std::string& text, const std::string& file = "<json>",
                                   const std::string& root = "json");

/// Streams a Chrome trace-event JSON array: one event object per line,
/// comma separation handled here.  Fields are emitted in call order (the
/// format readers accept any order, but tests pin ours), strings through
/// json_escape.  `args()` opens the event's "args" object; it stays open
/// until the next event() or close().
///
///   ChromeTraceWriter w(os);
///   w.event().field("ph", "X").field("pid", 1).field("tid", 3)
///    .field("ts", t0).field("dur", dt).field("name", "step")
///    .args().field("images", 64);
///   w.close();
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Finish the pending event (if any) and start the next object.
  ChromeTraceWriter& event();
  ChromeTraceWriter& field(const char* key, std::int64_t v);
  ChromeTraceWriter& field(const char* key, int v);
  ChromeTraceWriter& field(const char* key, double v);
  ChromeTraceWriter& field(const char* key, const std::string& v);
  ChromeTraceWriter& field(const char* key, const char* v);
  /// Pre-encoded JSON value (no quoting or escaping applied).
  ChromeTraceWriter& raw(const char* key, const std::string& json);
  /// Open the "args" sub-object of the current event.
  ChromeTraceWriter& args();
  /// Finish the pending event and close the array ("\n]\n").
  void close();

 private:
  void key(const char* k);
  void end_pending();

  std::ostream& os_;
  bool in_event_ = false;
  bool in_args_ = false;
  bool first_event_ = true;
  bool first_field_ = true;
  bool closed_ = false;
};

}  // namespace ss
