// The one parameter server every runtime uses (ps/param_server.h): pull and
// push semantics, staleness against a pull, health, and the checkpoint
// capture/restore contract. Its shard layout is in test_sharded_param_server.
#include "ps/param_server.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace ss {
namespace {

std::vector<std::int64_t> versions_of(const SharedParameterServer& ps) {
  std::vector<float> params(ps.num_params());
  std::vector<std::int64_t> versions;
  ps.pull_with_versions(params, versions);
  return versions;
}

TEST(ParameterServer, PullCopiesParams) {
  SharedParameterServer ps({1.0f, 2.0f, 3.0f}, 0.9);
  std::vector<float> out(3);
  ps.pull(out);
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  std::vector<float> wrong(2);
  EXPECT_THROW(ps.pull(wrong), ConfigError);
  std::vector<std::int64_t> versions;
  EXPECT_THROW(ps.pull_with_versions(wrong, versions), ConfigError);
}

TEST(ParameterServer, PushAdvancesVersion) {
  SharedParameterServer ps({0.0f}, 0.0);
  EXPECT_EQ(versions_of(ps), std::vector<std::int64_t>{0});
  EXPECT_EQ(ps.push(std::vector<float>{1.0f}, 0.1, std::vector<std::int64_t>{0}), 0);
  EXPECT_EQ(versions_of(ps), std::vector<std::int64_t>{1});
  EXPECT_NEAR(ps.snapshot()[0], -0.1f, 1e-6);
}

TEST(ParameterServer, PushReturnsStalenessAgainstThePull) {
  SharedParameterServer ps({0.0f, 0.0f}, 0.0);
  std::vector<float> snap(2);
  std::vector<std::int64_t> v;
  ps.pull_with_versions(snap, v);
  EXPECT_EQ(v, std::vector<std::int64_t>{0});
  EXPECT_EQ(ps.push(std::vector<float>{1.0f, 1.0f}, 0.1, v), 0);
  EXPECT_EQ(ps.push(std::vector<float>{1.0f, 1.0f}, 0.1, v), 1);  // one update landed since
  ps.pull_with_versions(snap, v);
  EXPECT_EQ(v, std::vector<std::int64_t>{2});
}

TEST(ParameterServer, PushSizeMismatchThrows) {
  // push() must reject a mismatched gradient itself rather than relying on
  // a lower layer: it slices the gradient per shard with subspan() before
  // the optimizer's own size check could fire.
  SharedParameterServer ps({1.0f, 2.0f, 3.0f}, 0.9);
  const std::vector<std::int64_t> pulled{0};
  EXPECT_THROW(ps.push(std::vector<float>(2, 0.1f), 0.1, pulled), ConfigError);
  EXPECT_THROW(ps.push(std::vector<float>(4, 0.1f), 0.1, pulled), ConfigError);
  EXPECT_THROW(ps.push(std::vector<float>(3, 0.1f), 0.1, std::vector<std::int64_t>{0, 0}),
               ConfigError);
  EXPECT_EQ(versions_of(ps), std::vector<std::int64_t>{0})
      << "rejected pushes must not advance the version";
  EXPECT_EQ(ps.snapshot()[0], 1.0f) << "rejected pushes must not touch parameters";
}

TEST(ParameterServer, HealthyDetectsNonFinite) {
  SharedParameterServer ps({1.0f, 2.0f}, 0.0, 2);
  EXPECT_TRUE(ps.healthy());
  ps.push(std::vector<float>{0.0f, std::numeric_limits<float>::infinity()}, 1.0,
          std::vector<std::int64_t>{0, 0});
  EXPECT_FALSE(ps.healthy());

  // 37 over 3 shards is [0,13) [13,25) [25,37).  One value at the first, a
  // middle and the last index of each shard, among finite values of both
  // signs: a NaN or an infinity anywhere is unhealthy, and the extreme
  // finite values are not.
  using Lim = std::numeric_limits<float>;
  const std::pair<float, bool> table[] = {
      {Lim::quiet_NaN(), false},  {-Lim::quiet_NaN(), false}, {Lim::infinity(), false},
      {-Lim::infinity(), false},  {Lim::max(), true},         {-Lim::max(), true},
      {Lim::denorm_min(), true},  {-Lim::denorm_min(), true}, {Lim::min() / 2.0f, true},
      {-0.0f, true}};
  std::vector<float> base(37);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = (i % 2 == 0 ? 1.0f : -1.0f) * static_cast<float>(i + 1);
  EXPECT_TRUE(SharedParameterServer(base, 0.0, 3).healthy());
  for (std::size_t at : {0, 6, 12, 13, 19, 24, 25, 31, 36}) {
    for (const auto& [v, healthy] : table) {
      std::vector<float> params = base;
      params[at] = v;
      EXPECT_EQ(SharedParameterServer(params, 0.0, 3).healthy(), healthy) << v << " at " << at;
    }
  }
}

TEST(ParameterServer, EmptyParamsRejected) {
  EXPECT_THROW(SharedParameterServer({}, 0.9), ConfigError);
}

TEST(ParameterServer, CheckpointRestoreRoundTrip) {
  SharedParameterServer ps({1.0f, 2.0f}, 0.9);
  ps.push(std::vector<float>{0.5f, -0.5f}, 0.1, versions_of(ps));
  const Checkpoint ckpt = ps.snapshot_checkpoint(42);
  EXPECT_EQ(ckpt.global_step, 42);

  // Mutate further, then restore.
  ps.push(std::vector<float>{1.0f, 1.0f}, 0.1, versions_of(ps));
  ps.restore(ckpt);
  const Checkpoint back = ps.snapshot_checkpoint(42);
  EXPECT_EQ(back.params, ckpt.params);
  EXPECT_EQ(back.velocity, ckpt.velocity);
  // Versions never roll back on restore.
  EXPECT_EQ(back.shard_versions, std::vector<std::int64_t>{2});
}

TEST(ParameterServer, RestoreSizeMismatchThrows) {
  SharedParameterServer ps({1.0f, 2.0f}, 0.9);
  Checkpoint bad;
  bad.params = {1.0f};
  bad.velocity = {0.0f};
  EXPECT_THROW(ps.restore(bad), CheckpointError);
}

}  // namespace
}  // namespace ss
