// Shared JSON emission: string escaping and a Chrome trace-event array
// writer.  The one trace exporter, obs::WallTracer (obs/tracer.h), writes
// through it for both of its clocks: the real runtimes' wall time and the
// simulator's virtual time (ps/trace.h's TraceSink), so the two timelines
// stay byte-level compatible and open in the same Perfetto view.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace ss {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

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
