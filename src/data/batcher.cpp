#include "data/batcher.h"

#include <limits>
#include <numeric>

#include "common/error.h"

namespace ss {

std::vector<ShardSpec> make_shards(std::size_t dataset_size, std::size_t num_workers) {
  if (num_workers == 0) throw ConfigError("make_shards: num_workers must be > 0");
  if (dataset_size < num_workers)
    throw ConfigError("make_shards: dataset smaller than worker count");
  // Shard bounds are 32-bit row indices.
  if (dataset_size > std::numeric_limits<std::uint32_t>::max())
    throw ConfigError("make_shards: dataset larger than 2^32 - 1 rows");
  std::vector<ShardSpec> shards(num_workers);
  const std::size_t base = dataset_size / num_workers;
  const std::size_t extra = dataset_size % num_workers;
  std::uint32_t cursor = 0;
  for (std::size_t w = 0; w < num_workers; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    shards[w].begin = cursor;
    shards[w].end = cursor + static_cast<std::uint32_t>(len);
    cursor = shards[w].end;
  }
  return shards;
}

MinibatchSampler::MinibatchSampler(ShardSpec shard, std::size_t batch_size, Rng rng)
    : shard_(shard), batch_size_(batch_size), rng_(rng) {
  if (shard_.size() == 0) throw ConfigError("MinibatchSampler: empty shard");
  if (batch_size_ == 0) throw ConfigError("MinibatchSampler: batch_size must be > 0");
  order_.resize(shard_.size());
  std::iota(order_.begin(), order_.end(), shard_.begin);
  reshuffle();
}

void MinibatchSampler::reshuffle() {
  rng_.shuffle(order_);
  cursor_ = 0;
}

void MinibatchSampler::next_batch(std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(batch_size_);
  while (out.size() < batch_size_) {
    if (cursor_ >= order_.size()) {
      ++epochs_;
      reshuffle();
    }
    out.push_back(order_[cursor_++]);
  }
}

void MinibatchSampler::set_batch_size(std::size_t batch_size) {
  if (batch_size == 0) throw ConfigError("MinibatchSampler: batch_size must be > 0");
  batch_size_ = batch_size;
}

}  // namespace ss
