// Shared pieces of the end-to-end benchmark: clocks, order statistics, the
// per-run report (metric lines plus op accounting), peak RSS, and a reader
// that turns the wall tracer's Chrome trace back into spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Linear-interpolated quantile, q in [0, 1].  Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
[[nodiscard]] double mean(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Empty when every value is finite, else one failure naming `what`.
[[nodiscard]] std::vector<std::string> check_finite(std::span<const float> values,
                                                    const std::string& what);

/// Everything one benchmark run prints: `name value unit` lines, then
/// `ops N` and `ops_failed N`.  An op is one checked unit of work (a
/// training job, a sweep, a replica pass); it fails when any correctness
/// gate it carries fails.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one op; a non-empty `failures` marks it failed (and is echoed to
  /// stderr so a failing run says why).
  void op(const std::string& what, const std::vector<std::string>& failures);
  [[nodiscard]] bool ok() const noexcept { return failed_ == 0; }
  void print(std::ostream& os) const;

 private:
  struct Line {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Line> lines_;
  std::int64_t ops_ = 0;
  std::int64_t failed_ = 0;
};

/// One complete span ('X') or instant ('i', dur 0) from a wall trace.
struct Span {
  int track = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::string name;
  [[nodiscard]] std::int64_t end_us() const noexcept { return ts_us + dur_us; }
};

/// Read back every span and instant the tracer holds, by serializing it the
/// same way save_chrome_trace does (one event per line) and scanning the
/// lines.  The benchmark derives program-side layer times (straggler sleeps,
/// barrier and drain waits) from the program's own trace this way.
[[nodiscard]] std::vector<Span> read_spans(const ss::obs::WallTracer& tracer);

}  // namespace e2e
