#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/json.h"

namespace ss::obs {

namespace {

/// Relaxed atomic double accumulation via CAS (atomic<double>::fetch_add is
/// C++20 but a CAS loop is portable across every toolchain CI uses).
void add_double(std::atomic<std::uint64_t>& bits, double v) noexcept {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double next = std::bit_cast<double>(cur) + v;
    if (bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(next),
                                   std::memory_order_relaxed))
      return;
  }
}

}  // namespace

void Gauge::set(double v) noexcept {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::value() const noexcept {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) throw ConfigError("Histogram: at least one bucket bound required");
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i)
    if (!(bounds_[i] < bounds_[i + 1]))
      throw ConfigError("Histogram: bucket bounds must be strictly increasing");
  for (const double b : bounds_)
    if (!std::isfinite(b)) throw ConfigError("Histogram: bucket bounds must be finite");
}

void Histogram::observe(double v) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_double(sum_bits_, v);
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::int64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.gauge || e.histogram)
    throw ConfigError("MetricsRegistry: '" + name + "' already registered as another kind");
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
    e.help = help;
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.counter || e.histogram)
    throw ConfigError("MetricsRegistry: '" + name + "' already registered as another kind");
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
    e.help = help;
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.counter || e.gauge)
    throw ConfigError("MetricsRegistry: '" + name + "' already registered as another kind");
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    e.help = help;
  } else if (e.histogram->bounds() != bounds) {
    throw ConfigError("MetricsRegistry: '" + name + "' re-registered with different buckets");
  }
  return *e.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // std::map iteration is already name-sorted.
  for (const auto& [name, e] : entries_) {
    if (e.counter) {
      snap.counters.push_back({name, e.help, e.counter->value()});
    } else if (e.gauge) {
      snap.gauges.push_back({name, e.help, e.gauge->value()});
    } else if (e.histogram) {
      MetricsSnapshot::HistogramSample h;
      h.name = name;
      h.help = e.help;
      h.bounds = e.histogram->bounds();
      h.buckets = e.histogram->bucket_counts();
      h.count = e.histogram->count();
      h.sum = e.histogram->sum();
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

std::string MetricsRegistry::expose_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  auto header = [&os](const std::string& name, const std::string& help, const char* type) {
    if (!help.empty()) os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
  };
  for (const auto& c : snap.counters) {
    header(c.name, c.help, "counter");
    os << c.name << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    header(g.name, g.help, "gauge");
    os << g.name << " " << shortest_decimal(g.value) << "\n";
  }
  for (const auto& h : snap.histograms) {
    header(h.name, h.help, "histogram");
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      os << h.name << "_bucket{le=\"" << shortest_decimal(h.bounds[i]) << "\"} " << cumulative
         << "\n";
    }
    cumulative += h.buckets.back();
    os << h.name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << h.name << "_sum " << shortest_decimal(h.sum) << "\n";
    os << h.name << "_count " << h.count << "\n";
  }
  return os.str();
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    (void)name;
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

}  // namespace ss::obs
