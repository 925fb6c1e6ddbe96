// Data-parallel sharding and minibatch sampling.
//
// Matches the paper's data-parallel setup (§II-A): training data are
// partitioned across workers; each worker iterates minibatches from its own
// shard with its own shuffle stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace ss {

/// Contiguous partition of example indices assigned to one worker.
struct ShardSpec {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  ///< exclusive
  [[nodiscard]] std::uint32_t size() const noexcept { return end - begin; }
};

/// Partition [0, dataset_size) into `num_workers` near-equal shards.  Throws
/// ConfigError when a shard would be empty or a row index would not fit in
/// 32 bits.
std::vector<ShardSpec> make_shards(std::size_t dataset_size, std::size_t num_workers);

/// Per-worker minibatch sampler: shuffles its shard each epoch and yields
/// fixed-size index batches.  Deterministic given the rng stream.
class MinibatchSampler {
 public:
  MinibatchSampler(ShardSpec shard, std::size_t batch_size, Rng rng);

  /// Fill `out` with the next `batch_size` indices (wrapping over epochs).
  void next_batch(std::vector<std::uint32_t>& out);

  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }
  [[nodiscard]] std::size_t epochs_completed() const noexcept { return epochs_; }

  /// Change the batch size mid-training (configuration policy may resize
  /// batches when the protocol switches).
  void set_batch_size(std::size_t batch_size);

 private:
  void reshuffle();

  ShardSpec shard_;
  std::size_t batch_size_;
  Rng rng_;
  std::vector<std::uint32_t> order_;
  std::size_t cursor_ = 0;
  std::size_t epochs_ = 0;
};

}  // namespace ss
