// Span tracer: records spans, instants, and counter samples on named tracks
// and exports them as Chrome trace-event JSON (common/json.h's
// ChromeTraceWriter).  It is the one recorder for both clocks: the
// process-global obs::tracer() stamps steady-clock time ("wall"), and the
// simulator's TraceSink (ps/trace.h) owns one stamped in virtual time
// ("virtual"), so simulated and real timelines carry the same event names
// and open side by side in the same Perfetto view.
//
// Recording is disabled by default: enabled() is one relaxed atomic load,
// and every instrumentation site checks it before reading a clock or
// touching the buffer, so a traced-off run does no extra work.  When
// enabled, events land in a bounded, mutex-protected buffer; overflow is
// counted and exported as trace metadata (truncated traces self-describe).
//
// Timestamps are microseconds, passed in by the caller: now_us()/to_us()
// give steady-clock time since the tracer's epoch (reset by enable(), so
// every capture starts near t=0); a virtual-time caller passes VTime::us().
// Tracks map to Chrome "tid"s under pid 1: track 0 is the control/PS row,
// track w+1 is worker slot w.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ss::obs {

/// One "args" entry: a key plus a pre-encoded JSON value.  Build with the
/// arg() helpers, which quote/escape strings and format numbers.
struct TraceArg {
  const char* key;
  std::string json;
};

[[nodiscard]] TraceArg arg(const char* key, std::int64_t v);
[[nodiscard]] TraceArg arg(const char* key, int v);
[[nodiscard]] TraceArg arg(const char* key, double v);
[[nodiscard]] TraceArg arg(const char* key, const std::string& v);
[[nodiscard]] TraceArg arg(const char* key, const char* v);

class WallTracer {
 public:
  /// `clock` names the timestamps' time base in the exported
  /// trace_metadata: "wall" or "virtual".
  explicit WallTracer(std::string clock);

  /// Arm recording with a fresh epoch and an event cap.  Clears any
  /// previously recorded events.
  void enable(std::size_t max_events = 1 << 20);
  void disable() noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the epoch, for building span timestamps.
  [[nodiscard]] std::int64_t now_us() const noexcept;
  [[nodiscard]] std::int64_t to_us(std::chrono::steady_clock::time_point tp) const noexcept;

  /// Label a track's Perfetto row ("worker 3", "ps server", ...).
  void set_track_name(int track, const std::string& name);

  /// Complete span ("X"): a closed interval on `track`.
  void complete(int track, std::string name, std::int64_t start_us, std::int64_t dur_us,
                std::vector<TraceArg> args = {});
  /// Thread-scoped instant ("i") at `ts_us`.
  void instant(int track, std::string name, std::int64_t ts_us,
               std::vector<TraceArg> args = {});
  /// Counter sample ("C") at `ts_us`.
  void counter(std::string name, std::int64_t ts_us, double value);

  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::size_t dropped() const;
  void clear();

  /// Export everything recorded so far as a Chrome trace-event JSON array
  /// (track-name metadata first, then events in record order; the buffer's
  /// dropped count rides along as a trace_metadata event).
  void write_chrome_trace(std::ostream& os) const;
  /// Convenience: write_chrome_trace to a file.  Throws IoError on failure.
  void save_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    char ph;  ///< 'X', 'i', or 'C'
    int track;
    std::int64_t ts;
    std::int64_t dur;  ///< 'X' only
    std::string name;
    std::vector<TraceArg> args;
    double value;  ///< 'C' only
  };

  void record(Event e);

  const std::string clock_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::size_t max_events_ = 1 << 20;
  std::size_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
};

}  // namespace ss::obs
