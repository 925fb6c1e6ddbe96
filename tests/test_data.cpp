#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "common/error.h"
#include "data/batcher.h"
#include "data/synthetic.h"

namespace ss {
namespace {

SyntheticSpec tiny_spec() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 128;
  return spec;
}

// The three specs whose generated bits are pinned: the small CIFAR-10-like
// task, the wide socket/top-k workload's spec at reduced row counts, and a
// heavy label-noise spec (every noisy row draws one extra value).
SyntheticSpec wide_spec() {
  SyntheticSpec spec = SyntheticSpec::cifar100_like();
  spec.feature_dim = 1024;
  spec.class_separation = 0.25;
  spec.train_size = 96;
  spec.test_size = 48;
  return spec;
}

SyntheticSpec noisy_spec() {
  SyntheticSpec spec = tiny_spec();
  spec.train_size = 301;
  spec.test_size = 67;
  spec.label_noise = 0.5;
  spec.seed = 77;
  return spec;
}

/// 64-bit FNV-1a over `bytes` raw bytes, as 16 hex digits.
std::string fnv1a_hex(const void* data, std::size_t bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Digests of a dataset's features and labels, "features/labels".
std::string digest(const Dataset& d) {
  return fnv1a_hex(d.features().data(), d.features().numel() * sizeof(float)) + "/" +
         fnv1a_hex(d.labels().data(), d.labels().size() * sizeof(int));
}

TEST(Synthetic, SizesAndLabelRanges) {
  const DataSplit split = make_synthetic(tiny_spec());
  EXPECT_EQ(split.train.size(), 512u);
  EXPECT_EQ(split.test.size(), 128u);
  EXPECT_EQ(split.train.feature_dim(), 64u);
  EXPECT_EQ(split.train.num_classes(), 10);
  for (int y : split.train.labels()) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 10);
  }
}

TEST(Synthetic, DeterministicForSameSeed) {
  const DataSplit a = make_synthetic(tiny_spec());
  const DataSplit b = make_synthetic(tiny_spec());
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.features().numel(); ++i)
    EXPECT_EQ(a.train.features()[i], b.train.features()[i]);
}

TEST(Synthetic, DifferentSeedsProduceDifferentData) {
  auto spec_b = tiny_spec();
  spec_b.seed = 999;
  const DataSplit a = make_synthetic(tiny_spec());
  const DataSplit b = make_synthetic(spec_b);
  int same = 0;
  for (std::size_t i = 0; i < 100; ++i)
    if (a.train.features()[i] == b.train.features()[i]) ++same;
  EXPECT_LT(same, 5);
}

TEST(Synthetic, FeaturesApproximatelyStandardized) {
  const DataSplit split = make_synthetic(tiny_spec());
  double sq = 0.0;
  const auto& f = split.train.features();
  for (std::size_t i = 0; i < f.numel(); ++i) sq += static_cast<double>(f[i]) * f[i];
  const double var = sq / static_cast<double>(f.numel());
  EXPECT_GT(var, 0.5);
  EXPECT_LT(var, 2.0);
}

TEST(Synthetic, RejectsInvalidSpecs) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    void (*edit)(SyntheticSpec&);
  };
  const Case cases[] = {
      {"one class", [](SyntheticSpec& s) { s.num_classes = 1; }},
      {"label_noise 1.5", [](SyntheticSpec& s) { s.label_noise = 1.5; }},
      {"label_noise NaN", [](SyntheticSpec& s) { s.label_noise = nan; }},
      {"separation and stddev 0",
       [](SyntheticSpec& s) { s.class_separation = s.within_stddev = 0.0; }},
      {"stddev NaN", [](SyntheticSpec& s) { s.within_stddev = nan; }},
      {"separation NaN", [](SyntheticSpec& s) { s.class_separation = nan; }},
      {"stddev inf", [](SyntheticSpec& s) { s.within_stddev = inf; }},
      {"separation negative", [](SyntheticSpec& s) { s.class_separation = -1.0; }},
      {"stddev negative", [](SyntheticSpec& s) { s.within_stddev = -0.5; }},
      {"train_size 0", [](SyntheticSpec& s) { s.train_size = 0; }},
  };
  for (const Case& c : cases) {
    SyntheticSpec bad = tiny_spec();
    c.edit(bad);
    EXPECT_THROW((void)make_synthetic(bad), ConfigError) << c.name;
    EXPECT_THROW((void)make_synthetic_test(bad), ConfigError) << c.name;
    EXPECT_THROW((void)make_synthetic_train(bad, 0, bad.train_size), ConfigError) << c.name;
  }
  // One of the two spreads may be zero: the features stay finite.
  SyntheticSpec centers_only = tiny_spec();
  centers_only.within_stddev = 0.0;
  const DataSplit split = make_synthetic(centers_only);
  for (std::size_t i = 0; i < split.train.features().numel(); ++i)
    ASSERT_TRUE(std::isfinite(split.train.features()[i])) << i;
  // Row ranges past the split are rejected too.
  EXPECT_THROW((void)make_synthetic_train(tiny_spec(), 10, 5), ConfigError);
  EXPECT_THROW((void)make_synthetic_train(tiny_spec(), 0, 513), ConfigError);
}

// Pins every generated bit of the full split (x86-64).  Row-range and
// test-only builds are checked against the full split below, so this pin is
// what ties all of them to the historical data.
TEST(Synthetic, PinnedSplitDigests) {
  struct Case {
    const char* name;
    SyntheticSpec spec;
    const char* train;
    const char* test;
  };
  const Case cases[] = {
      {"cifar10", tiny_spec(), "82fdd8c1aebe9fe5/47f033aa391b17be",
       "1d5c0c6e54eea69d/75c44fba45338a87"},
      {"wide", wide_spec(), "9b5f15a88483fb67/05662728c99dd7d1",
       "e4bf95126d21fdd2/5d1d903e17bb1a7a"},
      {"noisy", noisy_spec(), "031a72e34219e6cc/4b56e7b4863b9895",
       "2e77724c96a3d370/21673c63af2f931d"},
  };
  for (const Case& c : cases) {
    const DataSplit split = make_synthetic(c.spec);
    EXPECT_EQ(digest(split.train), c.train) << c.name;
    EXPECT_EQ(digest(split.test), c.test) << c.name;
  }
}

/// Bit-for-bit equality of `part`'s built rows with the same rows of `full`.
void expect_rows_equal(const Dataset& part, const Dataset& full, const std::string& what) {
  ASSERT_EQ(part.size(), full.size()) << what;
  ASSERT_EQ(part.feature_dim(), full.feature_dim()) << what;
  const std::size_t d = full.feature_dim();
  const std::size_t rows = part.labels().size();
  ASSERT_LE(part.first_row() + rows, full.size()) << what;
  EXPECT_EQ(std::memcmp(part.features().data(),
                        full.features().data() + part.first_row() * d, rows * d * sizeof(float)),
            0)
      << what << ": features";
  EXPECT_EQ(std::memcmp(part.labels().data(), full.labels().data() + part.first_row(),
                        rows * sizeof(int)),
            0)
      << what << ": labels";
}

// A worker builds only its shard and the server only the test split; both
// must be the full split's rows bit for bit, including shards of sizes that
// do not divide evenly and the noisy spec's extra draws.
TEST(Synthetic, ShardAndTestOnlyBuildsMatchTheFullSplit) {
  for (const SyntheticSpec& spec : {tiny_spec(), wide_spec(), noisy_spec()}) {
    const DataSplit full = make_synthetic(spec);
    expect_rows_equal(make_synthetic_test(spec), full.test, "test-only split");
    for (const std::size_t n : {1u, 3u, 4u, 7u}) {
      const auto shards = make_shards(spec.train_size, n);
      for (std::size_t w = 0; w < n; ++w) {
        const Dataset part = make_synthetic_train(spec, shards[w].begin, shards[w].end);
        EXPECT_EQ(part.first_row(), shards[w].begin);
        EXPECT_EQ(part.labels().size(), shards[w].size());
        expect_rows_equal(part, full.train,
                          "shard " + std::to_string(w) + " of " + std::to_string(n));
      }
    }
  }
}

TEST(Dataset, RowsThatWereNotBuiltThrow) {
  const SyntheticSpec spec = tiny_spec();
  const Dataset part = make_synthetic_train(spec, 100, 200);
  EXPECT_EQ(part.size(), spec.train_size);
  Tensor batch({1, spec.feature_dim});
  std::vector<int> labels;
  for (const std::uint32_t row : {99u, 200u, 511u}) {
    const std::vector<std::uint32_t> idx = {row};
    EXPECT_THROW(part.gather(idx, batch, labels), ShapeError) << row;
  }
  const std::vector<std::uint32_t> past_end = {512};
  EXPECT_THROW(part.gather(past_end, batch, labels), ShapeError);
  const std::vector<std::uint32_t> built = {100, 199};
  Tensor pair({2, spec.feature_dim});
  EXPECT_NO_THROW(part.gather(built, pair, labels));
  EXPECT_THROW((void)part.head(1), ShapeError);
  EXPECT_THROW((void)make_synthetic_train(spec, 0, 10).head(11), ShapeError);
  EXPECT_EQ(make_synthetic_train(spec, 0, 10).head(10).size(), 10u);
}

TEST(Dataset, GatherCopiesRowsAndLabels) {
  const DataSplit split = make_synthetic(tiny_spec());
  const std::vector<std::uint32_t> idx = {3, 7, 1};
  Tensor batch({3, 64});
  std::vector<int> labels;
  split.train.gather(idx, batch, labels);
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], split.train.labels()[3]);
  EXPECT_EQ(batch.at2(1, 0), split.train.features().at2(7, 0));
}

TEST(Dataset, HeadTakesPrefix) {
  const DataSplit split = make_synthetic(tiny_spec());
  const Dataset head = split.test.head(10);
  EXPECT_EQ(head.size(), 10u);
  EXPECT_EQ(head.labels()[4], split.test.labels()[4]);
}

class ShardSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardSweep, PartitionIsExactAndBalanced) {
  const std::size_t workers = GetParam();
  const std::size_t total = 1000;
  const auto shards = make_shards(total, workers);
  ASSERT_EQ(shards.size(), workers);
  std::size_t covered = 0;
  std::uint32_t cursor = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, cursor);  // contiguous, no gaps
    EXPECT_GE(s.size(), total / workers);
    EXPECT_LE(s.size(), total / workers + 1);
    covered += s.size();
    cursor = s.end;
  }
  EXPECT_EQ(covered, total);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ShardSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 8u, 16u, 33u));

TEST(Shards, RejectsInvalidArguments) {
  EXPECT_THROW(make_shards(10, 0), ConfigError);
  EXPECT_THROW(make_shards(3, 5), ConfigError);
}

// Shard bounds are 32-bit: 2^32 rows over two workers used to wrap the
// second shard's end to 0.
TEST(Shards, RejectsRowCountsPast32Bits) {
  const std::size_t max_rows = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(make_shards(max_rows + 1, 2), ConfigError);
  const auto shards = make_shards(max_rows, 2);
  EXPECT_EQ(shards.back().end, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(shards.front().size() + shards.back().size(), max_rows);
}

TEST(MinibatchSampler, CoversShardExactlyOncePerEpoch) {
  const ShardSpec shard{100, 200};
  MinibatchSampler sampler(shard, 25, Rng(7));
  std::multiset<std::uint32_t> seen;
  std::vector<std::uint32_t> batch;
  for (int i = 0; i < 4; ++i) {  // one full epoch: 4 batches of 25
    sampler.next_batch(batch);
    ASSERT_EQ(batch.size(), 25u);
    seen.insert(batch.begin(), batch.end());
  }
  EXPECT_EQ(seen.size(), 100u);
  for (std::uint32_t i = 100; i < 200; ++i) EXPECT_EQ(seen.count(i), 1u);
  EXPECT_EQ(sampler.epochs_completed(), 0u);
  sampler.next_batch(batch);  // starts the second epoch
  EXPECT_EQ(sampler.epochs_completed(), 1u);
}

TEST(MinibatchSampler, BatchResizeMidStream) {
  MinibatchSampler sampler(ShardSpec{0, 64}, 8, Rng(8));
  std::vector<std::uint32_t> batch;
  sampler.next_batch(batch);
  EXPECT_EQ(batch.size(), 8u);
  sampler.set_batch_size(16);
  sampler.next_batch(batch);
  EXPECT_EQ(batch.size(), 16u);
  EXPECT_THROW(sampler.set_batch_size(0), ConfigError);
}

TEST(MinibatchSampler, DeterministicGivenRngStream) {
  MinibatchSampler a(ShardSpec{0, 50}, 10, Rng(9));
  MinibatchSampler b(ShardSpec{0, 50}, 10, Rng(9));
  std::vector<std::uint32_t> ba, bb;
  for (int i = 0; i < 10; ++i) {
    a.next_batch(ba);
    b.next_batch(bb);
    EXPECT_EQ(ba, bb);
  }
}

}  // namespace
}  // namespace ss
