// Bit-for-bit reproducibility of the simulator: two identical RunRequests
// must produce identical RunResult curves.  This guards the event queue's
// deterministic tie-breaking (same-time events fire in worker-id order,
// then schedule order), the forked-RNG stream discipline, and — since the
// PS became sharded — the guarantee that neither the shard layout's
// per-shard accounting nor the parallel apply pool perturbs a single float
// of the trajectory.  The PinnedCorpus test at the bottom additionally pins
// the DES core's results against fingerprints recorded from the serial
// (pre-DES-core) engine across all 8 protocols, shard counts, compression,
// and a scenario-fuzz batch.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/session.h"
#include "determinism_corpus.h"

namespace ss {
namespace {

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

/// Every float of both curves, and every scalar the evaluation reads, must
/// match exactly — EXPECT_DOUBLE_EQ (ULP-tolerant) is deliberately not used.
void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.steps_completed, b.steps_completed);
  EXPECT_EQ(a.num_switches, b.num_switches);
  EXPECT_EQ(a.train_time_seconds, b.train_time_seconds);
  EXPECT_EQ(a.switch_overhead_seconds, b.switch_overhead_seconds);
  EXPECT_EQ(a.mean_staleness, b.mean_staleness);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.best_accuracy, b.best_accuracy);
  EXPECT_EQ(a.converged_accuracy, b.converged_accuracy);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.throughput_images_per_sec, b.throughput_images_per_sec);

  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    ASSERT_EQ(a.loss_curve[i].step, b.loss_curve[i].step) << "point " << i;
    ASSERT_EQ(a.loss_curve[i].seconds, b.loss_curve[i].seconds) << "point " << i;
    ASSERT_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss) << "point " << i;
  }
  ASSERT_EQ(a.accuracy_curve.size(), b.accuracy_curve.size());
  for (std::size_t i = 0; i < a.accuracy_curve.size(); ++i) {
    ASSERT_EQ(a.accuracy_curve[i].step, b.accuracy_curve[i].step)
        << "point " << i;
    ASSERT_EQ(a.accuracy_curve[i].seconds, b.accuracy_curve[i].seconds) << "point " << i;
    ASSERT_EQ(a.accuracy_curve[i].accuracy, b.accuracy_curve[i].accuracy) << "point " << i;
  }
}

TEST(Determinism, IdenticalRunsProduceIdenticalCurves) {
  const RunResult a = TrainingSession(tiny_request()).run();
  const RunResult b = TrainingSession(tiny_request()).run();
  expect_bitwise_equal(a, b);
}

TEST(Determinism, HoldsForEveryProtocolPair) {
  for (Protocol proto : {Protocol::kAsp, Protocol::kSsp, Protocol::kKSync,
                         Protocol::kKAsync}) {
    RunRequest req = tiny_request();
    req.policy = SyncSwitchPolicy::pure(proto);
    req.workload.total_steps = 128;
    const RunResult a = TrainingSession(req).run();
    const RunResult b = TrainingSession(req).run();
    expect_bitwise_equal(a, b);
  }
}

TEST(Determinism, HoldsWithShardedPs) {
  RunRequest req = tiny_request();
  req.cluster.num_ps_shards = 8;
  const RunResult a = TrainingSession(req).run();
  const RunResult b = TrainingSession(req).run();
  expect_bitwise_equal(a, b);
}

TEST(Determinism, CompressedRunsAreReproducible) {
  // The compressed push pipeline (per-worker CompressorBank -> CompressedPush
  // -> dense or per-shard sparse apply) must not perturb reproducibility:
  // identical requests with compression produce bit-identical curves.
  const CompressionSpec specs[] = {CompressionSpec::topk(0.05), CompressionSpec::qsgd(15),
                                   CompressionSpec::terngrad()};
  for (const auto& spec : specs) {
    RunRequest req = tiny_request();
    req.workload.total_steps = 128;
    req.compression = spec;
    const RunResult a = TrainingSession(req).run();
    const RunResult b = TrainingSession(req).run();
    expect_bitwise_equal(a, b);
  }
}

TEST(Determinism, CompressedRunsAreReproducibleOnShardedPs) {
  // Top-k on a sharded PS exercises the sparse apply path: only the shards
  // owning kept coordinates advance, which must be just as deterministic as
  // the full-vector sweep.
  RunRequest req = tiny_request();
  req.workload.total_steps = 128;
  req.cluster.num_ps_shards = 8;
  req.compression = CompressionSpec::topk(0.05);
  const RunResult a = TrainingSession(req).run();
  const RunResult b = TrainingSession(req).run();
  expect_bitwise_equal(a, b);
}

TEST(Determinism, CompressionIsPartOfTheCacheKey) {
  RunRequest plain = tiny_request();
  RunRequest compressed = tiny_request();
  compressed.compression = CompressionSpec::topk(0.05);
  EXPECT_NE(plain.cache_key(), compressed.cache_key());
}

TEST(Determinism, ScheduledRunIsReproducibleAndMatchesTheLegacyTwoPhasePlan) {
  // A step-triggered SwitchSchedule of {BSP 64, ASP rest} is semantically
  // identical to the legacy bsp_to_asp(0.25) plan on a 256-step workload:
  // same budgets, same derived hyper-parameters, same switch cost.  The
  // trajectories must agree bit for bit — only the cache key differs,
  // because the schedule is an explicit request field.
  RunRequest legacy = tiny_request();
  RunRequest sched = tiny_request();
  sched.policy.schedule = SwitchSchedule::step_switched({{Protocol::kBsp, 64},
                                                         {Protocol::kAsp, 0}});
  const RunResult a = TrainingSession(sched).run();
  const RunResult b = TrainingSession(sched).run();
  expect_bitwise_equal(a, b);
  const RunResult l = TrainingSession(legacy).run();
  expect_bitwise_equal(l, a);
  EXPECT_NE(legacy.cache_key(), sched.cache_key());
}

TEST(Determinism, ThreePhaseScheduleIsReproducible) {
  RunRequest req = tiny_request();
  req.policy.schedule = SwitchSchedule::step_switched(
      {{Protocol::kBsp, 64}, {Protocol::kSsp, 64}, {Protocol::kAsp, 0}});
  req.cluster.num_ps_shards = 8;
  const RunResult a = TrainingSession(req).run();
  const RunResult b = TrainingSession(req).run();
  expect_bitwise_equal(a, b);
  EXPECT_EQ(a.num_switches, 2);
}

TEST(Determinism, ScheduleModeIgnoresTheVestigialTwoPhaseFields) {
  // With a schedule set, the legacy first/second/switch_fraction fields are
  // documented as ignored — so mutating them must not change a single bit
  // of the trajectory (regression: the per-phase momentum policy used to be
  // derived from `first`/`switch_fraction` even in schedule mode).
  RunRequest a = tiny_request();
  a.policy.schedule = SwitchSchedule::step_switched({{Protocol::kBsp, 64},
                                                     {Protocol::kAsp, 0}});
  a.policy.momentum_policy = MomentumPolicy::kZero;
  RunRequest b = a;
  b.policy.first = Protocol::kAsp;  // vestigial: would previously have
  b.policy.second = Protocol::kSsp; // forced the ASP phase to kBaseline
  b.policy.switch_fraction = 0.9;
  const RunResult ra = TrainingSession(a).run();
  const RunResult rb = TrainingSession(b).run();
  expect_bitwise_equal(ra, rb);
}

TEST(Determinism, SwitchScheduleIsPartOfTheCacheKey) {
  RunRequest plain = tiny_request();
  RunRequest sched = tiny_request();
  sched.policy.schedule = SwitchSchedule::bsp_to_asp(64);
  RunRequest sched2 = tiny_request();
  sched2.policy.schedule = SwitchSchedule::bsp_to_asp(32);
  RunRequest reactive = tiny_request();
  reactive.policy.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);

  // Every distinct schedule is a distinct cache entry, and the canonical
  // label is embedded verbatim so keys stay auditable.
  EXPECT_NE(plain.cache_key(), sched.cache_key());
  EXPECT_NE(sched.cache_key(), sched2.cache_key());
  EXPECT_NE(sched.cache_key(), reactive.cache_key());
  EXPECT_NE(sched.cache_key().find("sched=BSP:64+ASP:0"), std::string::npos);
  EXPECT_NE(plain.cache_key().find("sched=-"), std::string::npos);
}

TEST(Determinism, ShardCountChangesTimingButIsKeyedSeparately) {
  RunRequest flat = tiny_request();
  RunRequest sharded = tiny_request();
  sharded.cluster.num_ps_shards = 8;
  // Different pricing → different cache entries.
  EXPECT_NE(flat.cache_key(), sharded.cache_key());
  // The sharded transfer model (parallel striped legs + per-request issue
  // cost) must price a pull differently from the flat one on this payload.
  const ClusterModel a(flat.cluster), b(sharded.cluster);
  EXPECT_NE(a.transfer_time(1.0), b.transfer_time(1.0));
}

// The full corpus (8 protocols x {1,8} shards x {none, topk} compression +
// 6 fuzz scenarios + 9 online-policy runs), pinned bit-for-bit against the
// serial engine that predates the DES core.  The hashes cover the complete
// max_digits10 result serialization — every scalar and every curve point.
// The online-policy entries were recorded on the hand-written greedy,
// elastic and replace loops, before those policies were lowered onto the
// session's phase-plan engine.
//
// Recorded on the pre-refactor engine, with one deliberate exception: the
// six ASP/SSP/DSSP s8 entries moved when the event queue's tie-break became
// (time, worker, seq) — under the sharded transfer model two pushes can land
// on the same virtual microsecond, and those now apply in worker order
// instead of schedule order.  Everything else is byte-identical to the
// serial engine.  If a change moves any of these values *deliberately*, run
// `tools/record_determinism_corpus` and paste its output here, and say why
// in CHANGES.md; an unexplained mismatch is a regression.
TEST(Determinism, PinnedCorpusMatchesPreRefactorEngine) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "fingerprints are pinned for x86-64 (FP contraction differs elsewhere)";
#endif
  const std::map<std::string, std::string> kExpectedFingerprints = {
      {"BSP/s1/none", "95cfa2356646a2a7"},
      {"BSP/s1/topk", "d51eb6217c5dbd4c"},
      {"BSP/s8/none", "b2bd9fa52730002f"},
      {"BSP/s8/topk", "e4b73637ec913635"},
      {"ASP/s1/none", "bac5726152e799a1"},
      {"ASP/s1/topk", "65dd0daf25c043b9"},
      {"ASP/s8/none", "f56f739ba9516e12"},
      {"ASP/s8/topk", "34496bcda4042892"},
      {"SSP/s1/none", "bac5726152e799a1"},
      {"SSP/s1/topk", "65dd0daf25c043b9"},
      {"SSP/s8/none", "f56f739ba9516e12"},
      {"SSP/s8/topk", "34496bcda4042892"},
      {"DSSP/s1/none", "bac5726152e799a1"},
      {"DSSP/s1/topk", "65dd0daf25c043b9"},
      {"DSSP/s8/none", "f56f739ba9516e12"},
      {"DSSP/s8/topk", "34496bcda4042892"},
      {"K-sync/s1/none", "b59417f112473a28"},
      {"K-sync/s1/topk", "679d978c4e0dcd20"},
      {"K-sync/s8/none", "251d7091bdd6490e"},
      {"K-sync/s8/topk", "7d8ee54486cd6c20"},
      {"K-batch-sync/s1/none", "ec66891359be4165"},
      {"K-batch-sync/s1/topk", "af0f7ef27c4ec330"},
      {"K-batch-sync/s8/none", "78310b2db53970f6"},
      {"K-batch-sync/s8/topk", "09fe580805d80cc5"},
      {"K-async/s1/none", "b33a27b2d5cff3b7"},
      {"K-async/s1/topk", "6ac390ad8a1541c5"},
      {"K-async/s8/none", "4f2d8da79f134c4f"},
      {"K-async/s8/topk", "4863b74824d888b5"},
      {"K-batch-async/s1/none", "b33a27b2d5cff3b7"},
      {"K-batch-async/s1/topk", "6ac390ad8a1541c5"},
      {"K-batch-async/s8/none", "edc73a9774ca3a8e"},
      {"K-batch-async/s8/topk", "484999d19a58b7de"},
      {"scenario/seed1", "8d21442a7f91dd62"},
      {"scenario/seed2", "d05e7ea794ac53ee"},
      {"scenario/seed3", "c137eb5f02289fde"},
      {"scenario/seed4", "1e992067b0b201e7"},
      {"scenario/seed5", "0e5d7cf848d718ea"},
      {"scenario/seed6", "838f0dc25f6cfee0"},
      {"online/offline-stragglers", "08aa2b5cd33cf087"},
      {"online/asp-to-bsp", "cc0e55363b814939"},
      {"online/greedy-round-trip", "03703fa749a0eb7e"},
      {"online/greedy-no-stragglers", "772b1fb0d1a86b88"},
      {"online/greedy-pure-bsp", "e97b100d11af1293"},
      {"online/elastic-evict", "a6822c4e36e8f81d"},
      {"online/elastic-pure-bsp", "d559b0b5f965f34e"},
      {"online/replace-permanent", "1c65ef46bd3955f2"},
      {"online/replace-pure-asp", "a93b704de5510969"},
  };
  const std::vector<CorpusCase> corpus = determinism_corpus();
  ASSERT_EQ(corpus.size(), kExpectedFingerprints.size());
  for (const CorpusCase& c : corpus) {
    const auto it = kExpectedFingerprints.find(c.name);
    ASSERT_NE(it, kExpectedFingerprints.end()) << "unpinned corpus case " << c.name;
    const RunResult r = TrainingSession(c.request).run();
    EXPECT_EQ(result_fingerprint(r), it->second)
        << c.name << ": trajectory moved. If deliberate, re-record with "
        << "tools/record_determinism_corpus and explain in CHANGES.md.";
  }
}

}  // namespace
}  // namespace ss
