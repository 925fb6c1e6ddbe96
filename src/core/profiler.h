// Training profiler: the MetricsSink that records everything the paper's
// evaluation measures (Section VI-A "Evaluation Metrics").
//
//  * training loss per update (cross-entropy per minibatch, recorded at a
//    configurable interval to bound memory);
//  * test accuracy at every periodic evaluation;
//  * converged accuracy: "test accuracy has not changed for more than 0.1%
//    for five evaluations";
//  * the accuracy curve that time-to-accuracy (RunResult::time_to_accuracy,
//    the first virtual time it crosses a threshold) is read from;
//  * throughput: images trained per second of virtual time;
//  * mean gradient staleness (diagnostic, not in the paper's metric list).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/vtime.h"
#include "ps/sim_runtime.h"

namespace ss {

struct LossPoint {
  std::int64_t step;
  double seconds;
  double loss;
};

struct AccuracyPoint {
  std::int64_t step;
  double seconds;
  double accuracy;
};

class Profiler final : public MetricsSink {
 public:
  /// `loss_record_interval`: keep one loss sample per this many updates.
  explicit Profiler(std::int64_t loss_record_interval = 8);

  void on_task(const TaskObservation& obs) override;
  void on_update(const UpdateObservation& obs) override;
  void on_eval(std::int64_t global_step, VTime time, double test_accuracy) override;

  [[nodiscard]] const std::vector<LossPoint>& loss_curve() const noexcept { return loss_; }
  [[nodiscard]] const std::vector<AccuracyPoint>& accuracy_curve() const noexcept {
    return acc_;
  }

  /// Converged accuracy per the paper's rule (within 0.1% over 5
  /// consecutive evals); nullopt if the curve never stabilized (fewer than
  /// 5 evals or still moving).
  [[nodiscard]] std::optional<double> converged_accuracy() const;

  /// Highest accuracy seen.
  [[nodiscard]] double best_accuracy() const noexcept;

  /// Final (last-eval) accuracy; 0 if never evaluated.
  [[nodiscard]] double final_accuracy() const noexcept;

  /// Total images trained (from task observations).
  [[nodiscard]] std::uint64_t total_images() const noexcept { return total_images_; }

  /// Mean training loss over the last `k` recorded points.
  [[nodiscard]] double tail_loss(std::size_t k = 16) const;

  /// Mean gradient staleness over all updates.
  [[nodiscard]] double mean_staleness() const noexcept;

 private:
  std::int64_t loss_record_interval_;
  std::int64_t updates_seen_ = 0;
  std::uint64_t total_images_ = 0;
  std::int64_t staleness_sum_ = 0;
  std::vector<LossPoint> loss_;
  std::vector<AccuracyPoint> acc_;
};

}  // namespace ss
