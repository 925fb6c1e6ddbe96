#include "core/session.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"

namespace ss {
namespace {

/// A fast miniature job: 3-class task, 4 workers, 256 minibatch steps.
/// Runs in well under a second of real time.
RunRequest tiny_request() {
  RunRequest req;
  req.workload.arch = ModelArch::kLinear;
  req.workload.data = SyntheticSpec::cifar10_like();
  req.workload.data.num_classes = 3;
  req.workload.data.feature_dim = 16;
  req.workload.data.train_size = 1024;
  req.workload.data.test_size = 512;
  req.workload.data.class_separation = 1.2;
  req.workload.total_steps = 256;
  req.workload.hyper.batch_size = 16;
  req.workload.hyper.learning_rate = 0.05;
  req.workload.hyper.momentum = 0.9;
  req.workload.eval_interval = 32;

  req.cluster.num_workers = 4;
  req.cluster.compute_per_batch = VTime::from_ms(20.0);
  req.cluster.reference_batch = 16;
  req.cluster.compute_jitter_sigma = 0.1;
  req.cluster.net_latency = VTime::from_ms(1.0);
  req.cluster.payload_bytes = 1000.0;
  req.cluster.bandwidth_bps = 1e8;
  req.cluster.sync_base = VTime::from_ms(20.0);
  req.cluster.sync_quad = VTime::from_ms(0.5);
  req.policy = SyncSwitchPolicy::bsp_to_asp(0.25);
  req.actuator_time_scale = 0.01;
  req.seed = 1;
  return req;
}

TEST(Session, PureBspLearnsTheTask) {
  RunRequest req = tiny_request();
  req.policy = SyncSwitchPolicy::pure(Protocol::kBsp);
  const RunResult r = TrainingSession(req).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.converged_accuracy, 0.7);
  EXPECT_EQ(r.num_switches, 0);
  EXPECT_GE(r.steps_completed, 256);
  EXPECT_GT(r.train_time_seconds, 0.0);
  EXPECT_FALSE(r.accuracy_curve.empty());
  EXPECT_FALSE(r.loss_curve.empty());
}

TEST(Session, HybridRunSwitchesExactlyOnce) {
  const RunResult r = TrainingSession(tiny_request()).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.num_switches, 1);
  EXPECT_GT(r.switch_overhead_seconds, 0.0);
  EXPECT_GT(r.mean_staleness, 0.0) << "the ASP phase must contribute staleness";
  EXPECT_GT(r.converged_accuracy, 0.7);
}

TEST(Session, PureAspHasStalenessAndIsFaster) {
  RunRequest bsp = tiny_request();
  bsp.policy = SyncSwitchPolicy::pure(Protocol::kBsp);
  RunRequest asp = tiny_request();
  asp.policy = SyncSwitchPolicy::pure(Protocol::kAsp);
  const RunResult rb = TrainingSession(bsp).run();
  const RunResult ra = TrainingSession(asp).run();
  EXPECT_GT(ra.mean_staleness, 1.0);
  EXPECT_LT(ra.train_time_seconds, rb.train_time_seconds);
  EXPECT_GT(ra.throughput_images_per_sec, rb.throughput_images_per_sec);
}

TEST(Session, DeterministicGivenSeed) {
  const RunResult a = TrainingSession(tiny_request()).run();
  const RunResult b = TrainingSession(tiny_request()).run();
  EXPECT_DOUBLE_EQ(a.converged_accuracy, b.converged_accuracy);
  EXPECT_DOUBLE_EQ(a.train_time_seconds, b.train_time_seconds);
  ASSERT_EQ(a.accuracy_curve.size(), b.accuracy_curve.size());
  for (std::size_t i = 0; i < a.accuracy_curve.size(); ++i)
    EXPECT_DOUBLE_EQ(a.accuracy_curve[i].accuracy, b.accuracy_curve[i].accuracy);
}

TEST(Session, SeedsChangeOutcomes) {
  RunRequest req2 = tiny_request();
  req2.seed = 2;
  const RunResult a = TrainingSession(tiny_request()).run();
  const RunResult b = TrainingSession(req2).run();
  EXPECT_NE(a.train_time_seconds, b.train_time_seconds);
}

TEST(Session, DivergenceIsReportedNotThrown) {
  RunRequest req = tiny_request();
  req.workload.hyper.learning_rate = 1000.0;
  req.workload.divergence_loss_threshold = 5.0;
  req.policy = SyncSwitchPolicy::pure(Protocol::kAsp);
  const RunResult r = TrainingSession(req).run();
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.converged_accuracy, 0.0);
  EXPECT_LT(r.steps_completed, 256);
}

TEST(Session, GreedyPolicyHandlesStragglers) {
  RunRequest req = tiny_request();
  req.workload.total_steps = 512;
  req.policy.online = OnlinePolicy::kGreedy;
  req.policy.detector.window_size = 4;
  req.policy.detector.consecutive_required = 2;
  req.stragglers.num_stragglers = 1;
  req.stragglers.occurrences = 1;
  req.stragglers.extra_latency_ms = 40.0;
  req.stragglers.max_duration = VTime::from_seconds(30.0);
  req.stragglers.horizon = VTime::from_seconds(5.0);
  const RunResult r = TrainingSession(req).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_GE(r.steps_completed, 512);
  // The greedy policy may switch more than the single offline switch.
  EXPECT_GE(r.num_switches, 1);
}

TEST(Session, ElasticPolicyCompletesWorkload) {
  RunRequest req = tiny_request();
  req.workload.total_steps = 512;
  req.policy.online = OnlinePolicy::kElastic;
  req.policy.detector.window_size = 4;
  req.policy.detector.consecutive_required = 2;
  req.stragglers.num_stragglers = 1;
  req.stragglers.occurrences = 2;
  req.stragglers.extra_latency_ms = 40.0;
  req.stragglers.max_duration = VTime::from_seconds(30.0);
  req.stragglers.horizon = VTime::from_seconds(10.0);
  const RunResult r = TrainingSession(req).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_GE(r.steps_completed, 512);
  EXPECT_GT(r.converged_accuracy, 0.6);
}

// Stragglers handed over as an explicit schedule (the scenario engine and
// trace replays) must drive the online policies exactly as a generated
// scenario does: greedy reacts with a BSP -> ASP -> BSP round trip instead
// of silently running the offline plan.
TEST(Session, OnlinePolicyReactsToAnExplicitStragglerSchedule) {
  RunRequest req = tiny_request();
  req.workload.total_steps = 512;
  req.policy = SyncSwitchPolicy::bsp_to_asp(0.5);
  req.policy.detector.window_size = 4;
  req.policy.detector.consecutive_required = 2;
  req.straggler_schedule = StragglerSchedule::transient(
      1, VTime::from_seconds(0.5), VTime::from_seconds(2.0),
      StragglerSchedule::latency_to_slow_factor(40.0));
  const RunResult offline = TrainingSession(req).run();
  req.policy.online = OnlinePolicy::kGreedy;
  const RunResult greedy = TrainingSession(req).run();
  ASSERT_FALSE(offline.diverged);
  ASSERT_FALSE(greedy.diverged);
  EXPECT_EQ(offline.num_switches, 1);
  EXPECT_GE(greedy.num_switches, 3);
  EXPECT_NE(greedy.train_time_seconds, offline.train_time_seconds);
}

TEST(Session, ReversedOrderRunsAspFirst) {
  RunRequest req = tiny_request();
  req.policy = SyncSwitchPolicy::asp_to_bsp(0.5);
  const RunResult r = TrainingSession(req).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.num_switches, 1);
  EXPECT_GT(r.mean_staleness, 0.0);
}

TEST(Session, CacheKeyCoversPolicyAndSeed) {
  const RunRequest a = tiny_request();
  RunRequest b = tiny_request();
  b.seed = 99;
  RunRequest c = tiny_request();
  c.policy.switch_fraction = 0.5;
  RunRequest d = tiny_request();
  d.policy.online = OnlinePolicy::kElastic;
  EXPECT_NE(a.cache_key(), b.cache_key());
  EXPECT_NE(a.cache_key(), c.cache_key());
  EXPECT_NE(a.cache_key(), d.cache_key());
  EXPECT_EQ(a.cache_key(), tiny_request().cache_key());
}

TEST(Session, RejectsInvalidRequests) {
  RunRequest bad = tiny_request();
  bad.policy.switch_fraction = 1.5;
  EXPECT_THROW(TrainingSession{bad}, ConfigError);
  bad.policy.switch_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TrainingSession{bad}, ConfigError);
  bad = tiny_request();
  bad.workload.total_steps = 0;
  EXPECT_THROW(TrainingSession{bad}, ConfigError);
  bad = tiny_request();
  bad.cluster.num_workers = 0;
  EXPECT_THROW(TrainingSession{bad}, ConfigError);
}

TEST(Session, SspProtocolSupported) {
  RunRequest req = tiny_request();
  req.policy.first = Protocol::kSsp;
  req.policy.second = Protocol::kAsp;
  req.policy.ssp_staleness_bound = 2;
  req.policy.switch_fraction = 0.5;
  const RunResult r = TrainingSession(req).run();
  EXPECT_FALSE(r.diverged);
  EXPECT_GE(r.steps_completed, 256);
}

}  // namespace
}  // namespace ss
