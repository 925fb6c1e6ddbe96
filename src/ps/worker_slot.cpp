#include "ps/worker_slot.h"

#include <utility>

#include "compress/bank.h"
#include "tensor/ops.h"

namespace ss {

ShardSpec WorkerSlot::shard(std::size_t train_size, std::size_t slot,
                            std::size_t initial_workers) {
  // Join slots reuse the initial partition.
  return make_shards(train_size, initial_workers)[slot % initial_workers];
}

WorkerSlot::Streams WorkerSlot::streams_for(const Dataset& train, std::uint64_t seed,
                                            std::size_t slot, std::size_t initial_workers) {
  // Initial slots keep the historical stream ids; join slots (past the
  // initial workers) draw from disjoint ranges so no stream is ever shared.
  // Rng::fork advances its parent, so slot w replays the forks of slots
  // 0 .. w-1 first: the streams are the ones a runtime building every slot
  // in order would hand out, whichever process builds this one.
  const std::size_t n0 = initial_workers;
  Rng root(seed);
  for (std::size_t w = 0;; ++w) {
    Rng sampler = root.fork(w < n0 ? w + 1 : 1000 + w);
    Rng codec = root.fork(w < n0 ? n0 + 1 + w : 2000 + w);
    if (w == slot) return {shard(train.size(), slot, n0), sampler, codec};
  }
}

WorkerSlot::WorkerSlot(Model model, const Dataset& train, std::size_t batch_size,
                       std::uint64_t seed, std::size_t slot, std::size_t initial_workers)
    : WorkerSlot(std::move(model), train, batch_size, slot,
                 streams_for(train, seed, slot, initial_workers)) {}

WorkerSlot::WorkerSlot(Model model, const Dataset& train, std::size_t batch_size,
                       std::size_t slot, Streams streams)
    : slot_(static_cast<int>(slot)),
      train_(&train),
      model_(std::move(model)),
      sampler_(streams.shard, batch_size, streams.sampler),
      codec_rng_(streams.codec),
      batch_x_({batch_size, train.feature_dim()}) {}

void WorkerSlot::pull_gradient(Transport& ps) {
  ps.pull_with_versions(model_.params(), pull_versions_);
  compute_gradient();
}

void WorkerSlot::compute_gradient() {
  sampler_.next_batch(indices_);
  train_->gather(indices_, batch_x_, batch_y_);
  model_.compute_gradients(batch_x_, batch_y_);
}

std::int64_t WorkerSlot::encode(CompressorBank* bank) {
  if (bank == nullptr) return static_cast<std::int64_t>(model_.grads().size() * sizeof(float));
  encoded_ = bank->encode(slot_, model_.grads(), codec_rng_);
  return static_cast<std::int64_t>(encoded_.wire_size);
}

WorkerSlot::Push WorkerSlot::push(Transport& ps, CompressorBank* bank, double lr) {
  Push out;
  out.bytes = encode(bank);
  // Sparse (top-k) pushes touch only the shards holding kept coordinates;
  // dense quantized pushes sweep every shard like an uncompressed push.
  out.staleness = bank != nullptr ? ps.push_compressed(encoded_, lr, pull_versions_)
                                  : ps.push(model_.grads(), lr, pull_versions_);
  return out;
}

WorkerSlot::Push WorkerSlot::push_pull_gradient(Transport& ps, CompressorBank* bank, double lr) {
  Push out;
  out.bytes = encode(bank);
  out.staleness =
      bank != nullptr
          ? ps.push_pull_compressed(encoded_, lr, model_.params(), pull_versions_)
          : ps.push_pull(model_.grads(), lr, model_.params(), pull_versions_);
  compute_gradient();
  return out;
}

void WorkerSlot::add_into(std::span<float> sum, bool compressed) const {
  if (compressed)
    encoded_.add_into(sum);
  else
    ops::add_inplace(sum, model_.grads());
}

}  // namespace ss
