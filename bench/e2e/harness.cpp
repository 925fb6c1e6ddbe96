#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <sstream>

namespace e2e {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<std::string> check_finite(std::span<const float> values, const std::string& what) {
  for (const float v : values)
    if (!std::isfinite(v)) return {what + " has a non-finite parameter"};
  return {};
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  lines_.push_back(Line{name, value, unit});
}

void Report::op(const std::string& what, const std::vector<std::string>& failures) {
  ++ops_;
  if (failures.empty()) return;
  ++failed_;
  for (const std::string& f : failures) std::cerr << "FAILED " << what << ": " << f << "\n";
}

void Report::print(std::ostream& os) const {
  char buf[64];
  for (const Line& l : lines_) {
    std::snprintf(buf, sizeof(buf), "%.17g", l.value);
    os << l.name << ' ' << buf << ' ' << l.unit << '\n';
  }
  os << "ops " << ops_ << '\n' << "ops_failed " << failed_ << '\n';
}

namespace {

/// Integer value following `"key":` in `line`, or `fallback`.
std::int64_t int_field(const std::string& line, const char* key, std::int64_t fallback) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t at = line.find(k);
  if (at == std::string::npos) return fallback;
  return std::strtoll(line.c_str() + at + k.size(), nullptr, 10);
}

}  // namespace

std::vector<Span> read_spans(const ss::obs::WallTracer& tracer) {
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  std::istringstream is(os.str());
  std::vector<Span> spans;
  std::string line;
  while (std::getline(is, line)) {
    const bool complete = line.find("\"ph\":\"X\"") != std::string::npos;
    if (!complete && line.find("\"ph\":\"i\"") == std::string::npos) continue;
    // Event fields precede "args", so the first "name" is the event's own.
    const std::string name_key = "\"name\":\"";
    const std::size_t n0 = line.find(name_key);
    if (n0 == std::string::npos) continue;
    const std::size_t n1 = line.find('"', n0 + name_key.size());
    if (n1 == std::string::npos) continue;
    Span s;
    s.track = static_cast<int>(int_field(line, "tid", 0));
    s.ts_us = int_field(line, "ts", 0);
    s.dur_us = complete ? int_field(line, "dur", 0) : 0;
    s.name = line.substr(n0 + name_key.size(), n1 - n0 - name_key.size());
    spans.push_back(std::move(s));
  }
  return spans;
}

}  // namespace e2e
