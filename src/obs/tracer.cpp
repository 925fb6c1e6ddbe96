#include "obs/tracer.h"

#include <fstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"

namespace ss::obs {

TraceArg arg(const char* key, std::int64_t v) { return {key, std::to_string(v)}; }

TraceArg arg(const char* key, int v) { return arg(key, static_cast<std::int64_t>(v)); }

TraceArg arg(const char* key, double v) { return {key, json_number(v)}; }

TraceArg arg(const char* key, const std::string& v) {
  // Built by append (not operator+) to sidestep a GCC 12 -Wrestrict false
  // positive on const char* + std::string&& under -Werror.
  std::string quoted;
  quoted.reserve(v.size() + 2);
  quoted += '"';
  quoted += json_escape(v);
  quoted += '"';
  return {key, std::move(quoted)};
}

TraceArg arg(const char* key, const char* v) { return arg(key, std::string(v)); }

WallTracer::WallTracer(std::string clock)
    : clock_(std::move(clock)), epoch_(std::chrono::steady_clock::now()) {}

void WallTracer::enable(std::size_t max_events) {
  if (max_events == 0) throw ConfigError("WallTracer: max_events must be > 0");
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  max_events_ = max_events;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void WallTracer::disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }

std::int64_t WallTracer::now_us() const noexcept {
  return to_us(std::chrono::steady_clock::now());
}

std::int64_t WallTracer::to_us(std::chrono::steady_clock::time_point tp) const noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_).count();
}

void WallTracer::set_track_name(int track, const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  track_names_[track] = name;
}

void WallTracer::record(Event e) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void WallTracer::complete(int track, std::string name, std::int64_t start_us,
                          std::int64_t dur_us, std::vector<TraceArg> args) {
  record(Event{'X', track, start_us, dur_us, std::move(name), std::move(args), 0.0});
}

void WallTracer::instant(int track, std::string name, std::int64_t ts_us,
                         std::vector<TraceArg> args) {
  record(Event{'i', track, ts_us, 0, std::move(name), std::move(args), 0.0});
}

void WallTracer::counter(std::string name, std::int64_t ts_us, double value) {
  record(Event{'C', 0, ts_us, 0, std::move(name), {}, value});
}

std::size_t WallTracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t WallTracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void WallTracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

void WallTracer::write_chrome_trace(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  ChromeTraceWriter w(os);
  for (const auto& [track, name] : track_names_) {
    w.event().field("ph", "M").field("pid", 1).field("tid", track)
        .field("name", "thread_name").args().field("name", name);
  }
  w.event().field("ph", "M").field("pid", 1).field("tid", 0)
      .field("name", "trace_metadata").args()
      .field("clock", clock_)
      .field("recorded_events", static_cast<std::int64_t>(events_.size()))
      .field("dropped_events", static_cast<std::int64_t>(dropped_));
  for (const Event& e : events_) {
    switch (e.ph) {
      case 'X':
        w.event().field("ph", "X").field("pid", 1).field("tid", e.track)
            .field("ts", e.ts).field("dur", e.dur).field("name", e.name);
        break;
      case 'i':
        w.event().field("ph", "i").field("pid", 1).field("tid", e.track)
            .field("s", "t").field("ts", e.ts).field("name", e.name);
        break;
      case 'C':
        w.event().field("ph", "C").field("pid", 1).field("ts", e.ts).field("name", e.name);
        break;
      default:
        continue;
    }
    if (e.ph == 'C') {
      w.args().field("value", e.value);
    } else if (!e.args.empty()) {
      w.args();
      for (const TraceArg& a : e.args) w.raw(a.key, a.json);
    }
  }
  w.close();
}

void WallTracer::save_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw IoError("WallTracer: cannot open " + path);
  write_chrome_trace(out);
  if (!out.good()) throw IoError("WallTracer: write failed for " + path);
}

}  // namespace ss::obs
