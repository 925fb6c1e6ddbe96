#include "obs/obs.h"

namespace ss::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// kUnassigned sentinel: first thread_track() call claims the next free
// auto track.  Auto tracks start at 64 to stay clear of the fixed
// control/worker rows (0..N+1 for any realistic worker count).
constexpr int kUnassignedTrack = -1;
constexpr int kFirstAutoTrack = 64;

std::atomic<int> g_next_auto_track{kFirstAutoTrack};
thread_local int t_track = kUnassignedTrack;

}  // namespace

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = new MetricsRegistry();  // leaked: outlives all threads
  return *reg;
}

WallTracer& tracer() {
  static WallTracer* tr = new WallTracer("wall");  // leaked: outlives all threads
  return *tr;
}

bool tracing() noexcept { return enabled() && tracer().enabled(); }

void enable_tracing(std::size_t max_events) {
  tracer().enable(max_events);
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void enable_metrics() { detail::g_enabled.store(true, std::memory_order_relaxed); }

void disable_all() noexcept {
  detail::g_enabled.store(false, std::memory_order_relaxed);
  tracer().disable();
}

int thread_track() {
  if (t_track == kUnassignedTrack) {
    t_track = g_next_auto_track.fetch_add(1, std::memory_order_relaxed);
    tracer().set_track_name(t_track, "thread " + std::to_string(t_track));
  }
  return t_track;
}

void set_thread_track(int track) noexcept { t_track = track; }

}  // namespace ss::obs
