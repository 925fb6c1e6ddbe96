#include "core/profiler.h"

#include <gtest/gtest.h>

#include "core/session.h"

namespace ss {
namespace {

UpdateObservation update(std::int64_t step, double loss, std::int64_t staleness = 0) {
  UpdateObservation o;
  o.global_step = step;
  o.time = VTime::from_seconds(static_cast<double>(step));
  o.train_loss = loss;
  o.staleness = staleness;
  return o;
}

TEST(Profiler, RecordsLossAtInterval) {
  Profiler p(/*loss_record_interval=*/2);
  for (int i = 1; i <= 10; ++i) p.on_update(update(i, 1.0 / i));
  EXPECT_EQ(p.loss_curve().size(), 5u);
  EXPECT_EQ(p.loss_curve().front().step, 2);
}

TEST(Profiler, ConvergenceRuleNeedsStableWindow) {
  Profiler p;
  // Rising curve: not converged.
  for (int i = 0; i < 8; ++i)
    p.on_eval(i, VTime::from_seconds(i), 0.5 + 0.05 * i);
  EXPECT_FALSE(p.converged_accuracy().has_value());
  // Five stable evals within 0.1%: converged at the plateau value.
  for (int i = 8; i < 13; ++i) p.on_eval(i, VTime::from_seconds(i), 0.9);
  const auto conv = p.converged_accuracy();
  ASSERT_TRUE(conv.has_value());
  EXPECT_DOUBLE_EQ(*conv, 0.9);
}

TEST(Profiler, ConvergencePrefersLatestPlateau) {
  Profiler p;
  // Early plateau at 0.7 (e.g. pre-decay), then a rise to 0.9 plateau.
  for (int i = 0; i < 5; ++i) p.on_eval(i, VTime::from_seconds(i), 0.7);
  for (int i = 5; i < 8; ++i) p.on_eval(i, VTime::from_seconds(i), 0.7 + 0.05 * (i - 4));
  for (int i = 8; i < 13; ++i) p.on_eval(i, VTime::from_seconds(i), 0.9);
  const auto conv = p.converged_accuracy();
  ASSERT_TRUE(conv.has_value());
  EXPECT_DOUBLE_EQ(*conv, 0.9);
}

TEST(Profiler, BestAndFinal) {
  Profiler p;
  p.on_eval(1, VTime::from_seconds(10.0), 0.5);
  p.on_eval(2, VTime::from_seconds(20.0), 0.8);
  p.on_eval(3, VTime::from_seconds(30.0), 0.75);
  EXPECT_DOUBLE_EQ(p.best_accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(p.final_accuracy(), 0.75);
}

TEST(RunResult, TimeToAccuracyIsTheFirstEvalAtTheThreshold) {
  RunResult r;
  r.accuracy_curve = {{1, 10.0, 0.5}, {2, 20.0, 0.8}, {3, 30.0, 0.75}};
  const auto tta = r.time_to_accuracy(0.8);
  ASSERT_TRUE(tta.has_value());
  EXPECT_DOUBLE_EQ(*tta, 20.0);
  EXPECT_FALSE(r.time_to_accuracy(0.95).has_value());
}

TEST(Profiler, TailLossAveragesLastK) {
  Profiler p(1);
  for (int i = 1; i <= 10; ++i) p.on_update(update(i, i));  // losses 1..10
  EXPECT_DOUBLE_EQ(p.tail_loss(4), (7.0 + 8.0 + 9.0 + 10.0) / 4.0);
  EXPECT_DOUBLE_EQ(p.tail_loss(100), 5.5);
}

TEST(Profiler, MeanStalenessAndImages) {
  Profiler p;
  p.on_update(update(1, 1.0, 4));
  p.on_update(update(2, 1.0, 6));
  EXPECT_DOUBLE_EQ(p.mean_staleness(), 5.0);
  TaskObservation t;
  t.worker = 0;
  t.images = 64;
  t.task_duration = VTime::from_ms(10.0);
  p.on_task(t);
  p.on_task(t);
  EXPECT_EQ(p.total_images(), 128u);
}

}  // namespace
}  // namespace ss
