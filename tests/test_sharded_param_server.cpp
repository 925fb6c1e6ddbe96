// The shard layout of the one parameter server (ps/param_server.h) as pulls
// and pushes observe it: how the vector splits over shards, per-shard
// versions and staleness, bit-identity across shard counts, and the
// checkpoint layout checks on restore.
#include "ps/param_server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ss {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.gaussian(0.0, scale));
  return out;
}

std::vector<std::int64_t> versions_of(const SharedParameterServer& ps) {
  std::vector<float> params(ps.num_params());
  std::vector<std::int64_t> versions;
  ps.pull_with_versions(params, versions);
  return versions;
}

/// A sparse push of `values` at `indices` (strictly ascending).
CompressedPush sparse_push(std::size_t p, std::vector<std::uint32_t> indices,
                           std::vector<float> values) {
  CompressedPush push;
  push.format = CompressedPush::Format::kSparse;
  push.num_params = p;
  push.indices = std::move(indices);
  push.values = std::move(values);
  push.wire_size = push.indices.size() * 8;
  return push;
}

TEST(ParameterServer, ShardCountIsClampedToParams) {
  SharedParameterServer ps(std::vector<float>(3, 0.0f), 0.9, 16);
  EXPECT_EQ(ps.num_shards(), 3u);
  SharedParameterServer ps0(std::vector<float>(3, 0.0f), 0.9, 0);
  EXPECT_EQ(ps0.num_shards(), 1u);
}

/// Owner of every index when `p` params split over `shards`: the first
/// p % shards shards hold one element more.
std::vector<std::size_t> expected_owners(std::size_t p, std::size_t shards) {
  std::vector<std::size_t> owner;
  for (std::size_t s = 0; s < shards; ++s)
    owner.insert(owner.end(), p / shards + (s < p % shards ? 1 : 0), s);
  return owner;
}

TEST(ParameterServer, ShardLayoutPartitionsTheVector) {
  // 10 over 4 shards is [0,3) [3,6) [6,8) [8,10).
  EXPECT_EQ(expected_owners(10, 4), (std::vector<std::size_t>{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}));
  // A one-coordinate push lands on exactly the shard owning it, and a pull
  // sees it there and nowhere else.
  for (const auto& [p, shards] : {std::pair<std::size_t, std::size_t>{10, 4}, {37, 1}, {37, 3},
                                  {37, 8}}) {
    const std::vector<std::size_t> owner = expected_owners(p, shards);
    for (std::uint32_t i = 0; i < p; ++i) {
      SharedParameterServer ps(std::vector<float>(p, 0.0f), 0.0, shards);
      const std::vector<std::int64_t> pulled(shards, 0);
      EXPECT_EQ(ps.push_compressed(sparse_push(p, {i}, {1.0f}), 1.0, pulled), 0);
      std::vector<float> params(p);
      std::vector<std::int64_t> versions;
      ps.pull_with_versions(params, versions);
      for (std::size_t s = 0; s < shards; ++s)
        ASSERT_EQ(versions[s], s == owner[i] ? 1 : 0) << p << "/" << shards << " index " << i;
      for (std::size_t j = 0; j < p; ++j)
        ASSERT_EQ(params[j], j == i ? -1.0f : 0.0f) << p << "/" << shards << " index " << i;
    }
  }
}

TEST(ParameterServer, PerShardVersionsAdvance) {
  SharedParameterServer ps(std::vector<float>(8, 0.0f), 0.0, 4);
  ps.push(std::vector<float>(8, 1.0f), 0.1, std::vector<std::int64_t>(4, 0));
  EXPECT_EQ(versions_of(ps), (std::vector<std::int64_t>{1, 1, 1, 1}));
  // A push touching one shard advances that shard only.
  ps.push_compressed(sparse_push(8, {4, 5}, {1.0f, 1.0f}), 0.1, versions_of(ps));
  EXPECT_EQ(versions_of(ps), (std::vector<std::int64_t>{1, 1, 2, 1}));
}

TEST(ParameterServer, ShardedPushMatchesSingleShardBitwise) {
  const std::size_t p = 1003;  // not divisible by the shard count
  const auto init = random_vec(p, 7);
  SharedParameterServer flat(init, 0.9, 1);
  SharedParameterServer sharded(init, 0.9, 8);
  for (int step = 0; step < 5; ++step) {
    const auto grad = random_vec(p, 100 + static_cast<std::uint64_t>(step), 0.01);
    flat.push(grad, 0.05, versions_of(flat));
    sharded.push(grad, 0.05, versions_of(sharded));
  }
  const Checkpoint a = flat.snapshot_checkpoint(0);
  const Checkpoint b = sharded.snapshot_checkpoint(0);
  for (std::size_t i = 0; i < p; ++i) ASSERT_EQ(a.params[i], b.params[i]) << "param " << i;
  for (std::size_t i = 0; i < p; ++i)
    ASSERT_EQ(a.velocity[i], b.velocity[i]) << "velocity " << i;
}

TEST(ParameterServer, StalenessSinceIsMaxOverShards) {
  SharedParameterServer ps(std::vector<float>(8, 0.0f), 0.0, 4);
  const std::vector<std::int64_t> pulled = versions_of(ps);
  ps.push(std::vector<float>(8, 1.0f), 0.1, pulled);
  ps.push(std::vector<float>(8, 1.0f), 0.1, pulled);
  EXPECT_EQ(ps.staleness_since(pulled), 2);
  ps.push_compressed(sparse_push(8, {7}, {1.0f}), 0.1, pulled);  // shard 3 only
  EXPECT_EQ(ps.staleness_since(pulled), 3);

  const std::vector<std::int64_t> wrong_size(2, 0);
  EXPECT_THROW((void)ps.staleness_since(wrong_size), ConfigError);
}

TEST(ParameterServer, CheckpointRoundTripsShardLayout) {
  SharedParameterServer ps(random_vec(20, 5), 0.9, 4);
  ps.push(random_vec(20, 6, 0.01), 0.05, versions_of(ps));
  ps.push(random_vec(20, 7, 0.01), 0.05, versions_of(ps));

  const Checkpoint ckpt = ps.snapshot_checkpoint(99);
  EXPECT_EQ(ckpt.num_shards, 4u);
  EXPECT_EQ(ckpt.shard_versions, (std::vector<std::int64_t>{2, 2, 2, 2}));

  // Same-layout restore round-trips the parameters and velocity.
  SharedParameterServer same(std::vector<float>(20, 0.0f), 0.9, 4);
  same.restore(ckpt);
  const Checkpoint same_ckpt = same.snapshot_checkpoint(99);
  EXPECT_EQ(same_ckpt.params, ckpt.params);
  EXPECT_EQ(same_ckpt.velocity, ckpt.velocity);

  // A different multi-shard layout is refused; a flat checkpoint is accepted
  // by any layout.
  SharedParameterServer other(std::vector<float>(20, 0.0f), 0.9, 5);
  EXPECT_THROW(other.restore(ckpt), CheckpointError);
  Checkpoint flat = ckpt;
  flat.num_shards = 1;
  flat.shard_versions.clear();
  other.restore(flat);
  EXPECT_EQ(other.snapshot(), ckpt.params);
}

TEST(ParameterServer, RestoreAcceptsFlatCheckpointIntoShardedLayout) {
  // A flat (single-shard) checkpoint restores into any shard layout.
  SharedParameterServer flat(std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}, 0.0);
  flat.push(std::vector<float>(4, 1.0f), 0.5, std::vector<std::int64_t>{0});
  const Checkpoint ckpt = flat.snapshot_checkpoint(1);

  SharedParameterServer sharded(std::vector<float>(4, 0.0f), 0.0, 2);
  sharded.restore(ckpt);
  EXPECT_EQ(sharded.snapshot(), flat.snapshot());
  // Versions never roll back on restore (the recovery-semantics contract):
  // the restored server keeps its own update count.
  EXPECT_EQ(versions_of(sharded), (std::vector<std::int64_t>{0, 0}));
}

TEST(ParameterServer, RestoreRejectsInconsistentShardVersionCount) {
  // A checkpoint that declares N shards but carries a different number of
  // shard versions is internally inconsistent (e.g. a corrupt or hand-edited
  // blob): restore must refuse it up front even when the declared layout
  // matches the server's, rather than restoring params and then indexing a
  // short version vector.
  SharedParameterServer ps(random_vec(20, 5), 0.9, 4);
  const std::vector<float> before = ps.snapshot();
  Checkpoint ckpt = ps.snapshot_checkpoint(0);
  ASSERT_EQ(ckpt.num_shards, 4u);
  ckpt.params.assign(20, 9.0f);
  ckpt.shard_versions.pop_back();
  EXPECT_THROW(ps.restore(ckpt), CheckpointError);
  ckpt.shard_versions.assign(6, 0);
  EXPECT_THROW(ps.restore(ckpt), CheckpointError);
  EXPECT_EQ(ps.snapshot(), before) << "a refused restore must write nothing";
}

}  // namespace
}  // namespace ss
