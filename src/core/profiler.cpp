#include "core/profiler.h"

#include <algorithm>

#include "common/error.h"

namespace ss {

namespace {

// The paper's convergence rule: accuracy moved by at most 0.1% over five
// consecutive evaluations.
constexpr double kConvergenceTolerance = 0.001;
constexpr std::size_t kConvergenceWindow = 5;

}  // namespace

Profiler::Profiler(std::int64_t loss_record_interval)
    : loss_record_interval_(loss_record_interval) {
  if (loss_record_interval <= 0) throw ConfigError("Profiler: record interval must be > 0");
}

void Profiler::on_task(const TaskObservation& obs) {
  total_images_ += obs.images;
}

void Profiler::on_update(const UpdateObservation& obs) {
  ++updates_seen_;
  staleness_sum_ += obs.staleness;
  if (updates_seen_ % loss_record_interval_ == 0)
    loss_.push_back({obs.global_step, obs.time.seconds(), obs.train_loss});
}

void Profiler::on_eval(std::int64_t global_step, VTime time, double test_accuracy) {
  acc_.push_back({global_step, time.seconds(), test_accuracy});
}

std::optional<double> Profiler::converged_accuracy() const {
  constexpr std::size_t w = kConvergenceWindow;
  if (acc_.size() < w) return std::nullopt;
  // Latest window of `w` consecutive evals whose spread is within the
  // tolerance; the last stable plateau is the converged accuracy (using the
  // latest window avoids mistaking a mid-training plateau, e.g. just before
  // an LR decay, for convergence).
  std::optional<double> converged;
  for (std::size_t i = 0; i + w <= acc_.size(); ++i) {
    double lo = acc_[i].accuracy, hi = acc_[i].accuracy;
    for (std::size_t j = i + 1; j < i + w; ++j) {
      lo = std::min(lo, acc_[j].accuracy);
      hi = std::max(hi, acc_[j].accuracy);
    }
    if (hi - lo <= kConvergenceTolerance) converged = acc_[i + w - 1].accuracy;
  }
  return converged;
}

double Profiler::best_accuracy() const noexcept {
  double best = 0.0;
  for (const auto& p : acc_) best = std::max(best, p.accuracy);
  return best;
}

double Profiler::final_accuracy() const noexcept {
  return acc_.empty() ? 0.0 : acc_.back().accuracy;
}

double Profiler::tail_loss(std::size_t k) const {
  if (loss_.empty()) return 0.0;
  const std::size_t n = std::min(k, loss_.size());
  double sum = 0.0;
  for (std::size_t i = loss_.size() - n; i < loss_.size(); ++i) sum += loss_[i].loss;
  return sum / static_cast<double>(n);
}

double Profiler::mean_staleness() const noexcept {
  return updates_seen_ ? static_cast<double>(staleness_sum_) /
                             static_cast<double>(updates_seen_)
                       : 0.0;
}

}  // namespace ss
