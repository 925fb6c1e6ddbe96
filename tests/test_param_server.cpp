#include "ps/sharded_param_server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"

namespace ss {
namespace {

TEST(ParameterServer, PullCopiesParams) {
  ShardedParameterServer ps({1.0f, 2.0f, 3.0f}, 0.9);
  std::vector<float> out(3);
  ps.pull(out);
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  std::vector<float> wrong(2);
  EXPECT_THROW(ps.pull(wrong), ConfigError);
}

TEST(ParameterServer, ApplyAdvancesVersion) {
  ShardedParameterServer ps({0.0f}, 0.0);
  EXPECT_EQ(ps.version(), 0);
  ps.apply(std::vector<float>{1.0f}, 0.1);
  EXPECT_EQ(ps.version(), 1);
  EXPECT_NEAR(ps.params()[0], -0.1f, 1e-6);
}

TEST(ParameterServer, CheckpointRestoreRoundTrip) {
  ShardedParameterServer ps({1.0f, 2.0f}, 0.9);
  ps.apply(std::vector<float>{0.5f, -0.5f}, 0.1);
  const Checkpoint ckpt = ps.make_checkpoint(42);
  EXPECT_EQ(ckpt.global_step, 42);

  // Mutate further, then restore.
  ps.apply(std::vector<float>{1.0f, 1.0f}, 0.1);
  ps.restore(ckpt);
  EXPECT_EQ(std::vector<float>(ps.params().begin(), ps.params().end()), ckpt.params);
  EXPECT_EQ(std::vector<float>(ps.optimizer().velocity().begin(),
                               ps.optimizer().velocity().end()),
            ckpt.velocity);
}

TEST(ParameterServer, RestoreSizeMismatchThrows) {
  ShardedParameterServer ps({1.0f, 2.0f}, 0.9);
  Checkpoint bad;
  bad.params = {1.0f};
  bad.velocity = {0.0f};
  EXPECT_THROW(ps.restore(bad), CheckpointError);
}

TEST(ParameterServer, ApplySizeMismatchThrows) {
  // apply() must reject a mismatched gradient itself rather than relying on
  // a lower layer: the sharded implementation slices the gradient with
  // subspan() before the optimizer's own size check could fire, so without
  // this up-front validation a short span would fault mid-slicing.
  ShardedParameterServer ps({1.0f, 2.0f, 3.0f}, 0.9);
  EXPECT_THROW(ps.apply(std::vector<float>(2, 0.1f), 0.1), ConfigError);
  EXPECT_THROW(ps.apply(std::vector<float>(4, 0.1f), 0.1), ConfigError);
  EXPECT_EQ(ps.version(), 0) << "rejected applies must not advance the version";
  EXPECT_EQ(ps.params()[0], 1.0f) << "rejected applies must not touch parameters";
}

TEST(ParameterServer, HealthyDetectsNonFinite) {
  ShardedParameterServer ps({1.0f}, 0.0);
  EXPECT_TRUE(ps.healthy());
  ps.apply(std::vector<float>{std::numeric_limits<float>::infinity()}, 1.0);
  EXPECT_FALSE(ps.healthy());
}

TEST(ParameterServer, EmptyParamsRejected) {
  EXPECT_THROW(ShardedParameterServer({}, 0.9), ConfigError);
}

}  // namespace
}  // namespace ss
