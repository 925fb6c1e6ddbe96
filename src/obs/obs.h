// Process-wide observability switchboard.
//
// Everything is off by default and provably inert: instrumentation sites
// guard on obs::enabled() (one relaxed atomic load) and never touch the
// registry or tracer when it is false, so an uninstrumented-off run does no
// extra work and stays bit-identical to a build without obs at all.
// Enabling observability never alters computation — it only records.
//
// Typical wiring (sync_switch_cli's --trace-out / --metrics-out):
//   if (!trace_out.empty()) obs::enable_tracing();
//   if (!metrics_out.empty()) obs::enable_metrics();
//   ... run ...
//   if (!trace_out.empty()) obs::tracer().save_chrome_trace(trace_out);
//   if (!metrics_out.empty()) std::ofstream(metrics_out) << obs::metrics().expose_text();
//
// Tracks follow the layout the sim's TraceSink shares: track 0 = PS/control
// row, track w+1 = worker slot w.  Threads that serve no fixed slot (e.g. PS
// server session threads before their worker id is known) get an
// auto-assigned track from thread_track().
#pragma once

#include <atomic>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace ss::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Master switch: true when metrics and/or tracing are armed.  Hot paths
/// check this once and skip all observability work when false.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The process-global metrics registry.
[[nodiscard]] MetricsRegistry& metrics();

/// The process-global wall-clock tracer.
[[nodiscard]] WallTracer& tracer();

/// True when the global tracer is armed (enabled() implies at most).
[[nodiscard]] bool tracing() noexcept;

/// Arm span recording on the global tracer (fresh epoch) and flip the
/// master switch on.
void enable_tracing(std::size_t max_events = 1 << 20);

/// Flip the master switch on without arming the tracer: instrumentation
/// sites record metrics only.
void enable_metrics();

/// Disarm everything: master switch off, tracer disabled.  Recorded events
/// and metric values are kept until clear()/reset() so callers can still
/// export after a run.  Primarily for tests.
void disable_all() noexcept;

/// The calling thread's trace track.  Defaults to an auto-assigned track
/// (>= 64, named "thread N") the first time a thread asks; threads bound to
/// a fixed slot should set_thread_track() first.
[[nodiscard]] int thread_track();

/// Pin the calling thread to a specific track (0 = PS/control, w+1 =
/// worker slot w).
void set_thread_track(int track) noexcept;

}  // namespace ss::obs
