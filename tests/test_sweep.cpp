// SweepRunner: parallel-across-configs execution must be bit-identical to
// serial execution (each simulation stays single-threaded and deterministic;
// only the scheduling across requests changes), and the shared run cache must
// stay sound under concurrent writers racing the same key.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/run_cache.h"
#include "determinism_corpus.h"

namespace ss {
namespace {

RunResult sweep_sample_result() {
  RunResult r;
  r.converged = true;
  r.converged_accuracy = 0.921;
  r.final_accuracy = 0.919;
  r.train_time_seconds = 123.5;
  r.steps_completed = 2048;
  r.loss_curve = {{16, 1.5, 2.1}, {32, 3.0, 1.4}};
  r.accuracy_curve = {{64, 6.0, 0.55}};
  return r;
}

/// A cheaper cousin of the determinism corpus: same tiny workload, shorter
/// budget, seeds varied so every entry is a distinct cache key.
std::vector<RunRequest> tiny_grid(std::size_t count) {
  std::vector<RunRequest> requests;
  const Protocol protocols[] = {Protocol::kBsp, Protocol::kAsp, Protocol::kSsp,
                                Protocol::kKAsync};
  for (std::size_t i = 0; i < count; ++i) {
    RunRequest req = corpus_base_request();
    req.workload.total_steps = 48;
    req.policy = SyncSwitchPolicy::pure(protocols[i % std::size(protocols)]);
    req.seed = 1 + i / std::size(protocols);
    requests.push_back(std::move(req));
  }
  return requests;
}

TEST(Sweep, EffectiveJobsClampsSensibly) {
  EXPECT_EQ(SweepRunner({.jobs = 1}).effective_jobs(100), 1u);
  EXPECT_EQ(SweepRunner({.jobs = 8}).effective_jobs(3), 3u);   // never more than work
  EXPECT_EQ(SweepRunner({.jobs = 8}).effective_jobs(100), 8u);
  EXPECT_GE(SweepRunner({.jobs = 0}).effective_jobs(100), 1u);  // hardware default
  EXPECT_EQ(SweepRunner({.jobs = 4}).effective_jobs(0), 1u);
}

TEST(Sweep, EmptySweepIsEmpty) {
  EXPECT_TRUE(SweepRunner().run({}).empty());
}

// The tentpole guarantee: fanning a config grid across a thread pool yields
// byte-for-byte the results of evaluating the same grid serially.  32 tiny
// configs, compared through the exact max_digits10 serialization.
TEST(Sweep, ParallelSweepIsBitIdenticalToSerial) {
  const std::vector<RunRequest> grid = tiny_grid(32);
  const auto serial = SweepRunner({.jobs = 1}).run(grid);
  const auto parallel = SweepRunner({.jobs = 4}).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(serial[i].error.empty()) << serial[i].error;
    EXPECT_TRUE(parallel[i].error.empty()) << parallel[i].error;
    EXPECT_EQ(serialize_run_result(serial[i].result),
              serialize_run_result(parallel[i].result))
        << "entry " << i << " diverged between serial and parallel execution";
  }
}

// Scenario-engine configs (switching + stragglers + elastic membership) run
// through the same executor unchanged.
TEST(Sweep, ScenarioRequestsSweepDeterministically) {
  std::vector<RunRequest> grid;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    grid.push_back(generate_scenario(seed).to_run_request());
  const auto serial = SweepRunner({.jobs = 1}).run(grid);
  const auto parallel = SweepRunner({.jobs = 3}).run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(result_fingerprint(serial[i].result), result_fingerprint(parallel[i].result))
        << "scenario seed " << (i + 1);
}

// The sweep builds one split per distinct data spec and shares it across
// its entries: a grid mixing two specs must still give each entry exactly a
// lone session's result.
TEST(Sweep, EntriesSharingASplitMatchLoneSessions) {
  std::vector<RunRequest> grid = tiny_grid(8);
  for (std::size_t i = 0; i < grid.size(); i += 2) grid[i].workload.data.seed += 1;
  const auto parallel = SweepRunner({.jobs = 3}).run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(parallel[i].error.empty()) << parallel[i].error;
    EXPECT_EQ(serialize_run_result(parallel[i].result),
              serialize_run_result(TrainingSession(grid[i]).run()))
        << "entry " << i;
  }
}

TEST(Sweep, SessionRejectsASplitOfAnotherSpec) {
  const RunRequest req = tiny_grid(1).front();
  SyntheticSpec other = req.workload.data;
  other.train_size += 1;
  const DataSplit split = make_synthetic(other);
  EXPECT_THROW(TrainingSession(req, split), ConfigError);
}

// The split is built lazily by the first entry that simulates: an
// all-hit sweep never builds it, so a cached entry replays even when its
// data spec could not be generated.
TEST(Sweep, CacheHitsBuildNoSplit) {
  const std::string dir = ::testing::TempDir() + "/ss_sweep_lazy";
  std::filesystem::remove_all(dir);
  const RunCache cache(dir);
  RunRequest req = tiny_grid(1).front();
  req.workload.data.within_stddev = req.workload.data.class_separation = 0.0;
  cache.store(req, sweep_sample_result());
  const auto outcomes = SweepRunner({.jobs = 1, .cache = &cache}).run({req});
  EXPECT_TRUE(outcomes[0].error.empty()) << outcomes[0].error;
  EXPECT_TRUE(outcomes[0].from_cache);
  std::filesystem::remove_all(dir);
}

TEST(Sweep, SharedCacheTurnsSecondSweepIntoAllHits) {
  const std::string dir = ::testing::TempDir() + "/ss_sweep_cache";
  std::filesystem::remove_all(dir);
  const RunCache cache(dir);
  const std::vector<RunRequest> grid = tiny_grid(8);

  SweepRunner runner({.jobs = 4, .cache = &cache});
  const auto cold = runner.run(grid);
  for (const auto& o : cold) EXPECT_FALSE(o.from_cache);

  const auto warm = runner.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache) << "entry " << i;
    EXPECT_EQ(serialize_run_result(cold[i].result), serialize_run_result(warm[i].result))
        << "cache hit must replay the cold run bit for bit (entry " << i << ")";
  }
}

TEST(Sweep, ThrowingEntryRecordsErrorWithoutAbortingTheSweep) {
  std::vector<RunRequest> grid = tiny_grid(3);
  grid[1].workload.total_steps = 0;  // TrainingSession rejects this
  const auto outcomes = SweepRunner({.jobs = 2}).run(grid);
  EXPECT_TRUE(outcomes[0].error.empty());
  EXPECT_NE(outcomes[1].error.find("total_steps"), std::string::npos) << outcomes[1].error;
  EXPECT_TRUE(outcomes[2].error.empty());
  EXPECT_GT(outcomes[0].result.steps_completed, 0);
  EXPECT_GT(outcomes[2].result.steps_completed, 0);
}

// Regression test for the tmp+atomic-rename store: threads hammering the
// same key concurrently must never expose a torn or half-written entry to a
// racing reader, and must not leave staging files behind.
TEST(Sweep, ConcurrentStoresOfTheSameKeyNeverTearTheEntry) {
  const std::string dir = ::testing::TempDir() + "/ss_sweep_race";
  std::filesystem::remove_all(dir);
  const RunCache cache(dir);
  const RunRequest req = tiny_grid(1)[0];
  const RunResult result = sweep_sample_result();
  const std::string expected = serialize_run_result(result);

  constexpr int kWritersPerSide = 2;
  constexpr int kStoresPerWriter = 200;
  std::atomic<bool> start{false};
  std::atomic<int> torn_reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWritersPerSide * 2; ++w) {
    threads.emplace_back([&] {
      while (!start.load()) {}
      for (int i = 0; i < kStoresPerWriter; ++i) cache.store(req, result);
    });
  }
  std::thread reader([&] {
    while (!start.load()) {}
    for (int i = 0; i < 4 * kStoresPerWriter; ++i) {
      const auto loaded = cache.load(req);
      if (!loaded.has_value()) continue;  // before the first rename lands
      if (serialize_run_result(*loaded) != expected) torn_reads.fetch_add(1);
    }
  });
  start.store(true);
  for (auto& t : threads) t.join();
  reader.join();

  EXPECT_EQ(torn_reads.load(), 0) << "a reader saw a partially written cache entry";
  const auto final_load = cache.load(req);
  ASSERT_TRUE(final_load.has_value());
  EXPECT_EQ(serialize_run_result(*final_load), expected);

  // Every tmp staging file must have been renamed or cleaned up.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".run") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

// Duplicate requests inside one parallel sweep are the realistic version of
// the same race: several pool workers miss, run, and store the same key.
TEST(Sweep, DuplicateRequestsRacingTheCacheStayConsistent) {
  const std::string dir = ::testing::TempDir() + "/ss_sweep_dup";
  std::filesystem::remove_all(dir);
  const RunCache cache(dir);
  std::vector<RunRequest> grid(8, tiny_grid(1)[0]);

  const auto outcomes = SweepRunner({.jobs = 4, .cache = &cache}).run(grid);
  const std::string expected = serialize_run_result(outcomes[0].result);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.error.empty()) << o.error;
    EXPECT_EQ(serialize_run_result(o.result), expected);
  }
  const auto loaded = cache.load(grid[0]);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(serialize_run_result(*loaded), expected);
}

}  // namespace
}  // namespace ss
