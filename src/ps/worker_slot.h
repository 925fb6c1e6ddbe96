// WorkerSlot: one worker's step against a parameter server, for every
// deployment.
//
// Sync-Switch runs the same worker step under every protocol: pull the
// parameters, compute a minibatch gradient at them, push it back.  A
// WorkerSlot owns what one worker needs for that step — its model replica,
// minibatch sampler, codec RNG stream, batch buffers, and the per-shard
// versions of its last pull — and exposes the step in the pieces the
// runtimes compose:
//
//  * `pull_gradient` + `push` — the asynchronous step (ASP/SSP), against
//    any Transport.  The threaded runtime calls them over InProcTransport,
//    with its straggler delay between the two pieces.
//  * `push_pull_gradient` — the same step fused across its seam: push this
//    gradient, land the fresh parameters, compute the next gradient, with
//    one Transport::push_pull between.  The socket worker process
//    (net/worker_process.h) runs its quota as one `pull_gradient`, then
//    this, then a last `push`, so each step is one exchange on the wire.
//  * `pull_gradient` + `encode` — the synchronous step (BSP): every slot
//    pulls the round's parameters through the Transport and encodes; the
//    leader sums the slots with `add_into` and pushes the mean once,
//    against its own `pull_versions`.
//
// A slot keeps no parameter or gradient vector of its own: the replica's
// layer tensors are views into the model's flat params() and grads()
// (nn/model.h), so a pull lands in params() and the push or encode reads
// grads(), with no flatten copy in between.
//
// The constructor holds the one rule that assigns slot `w` its data and
// RNG streams, so a worker process computes exactly the gradients a worker
// thread with the same slot would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_push.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "net/transport.h"
#include "nn/model.h"
#include "tensor/tensor.h"

namespace ss {

class CompressorBank;

class WorkerSlot {
 public:
  /// What one push cost: its staleness and its wire bytes.
  struct Push {
    std::int64_t staleness = 0;
    std::int64_t bytes = 0;
  };

  /// Slot `slot` of a run that started with `initial_workers` workers; slots
  /// past that are later joins.  `model` is this slot's replica (only its
  /// shape matters: gradients are taken at the pulled parameters, which
  /// overwrite its own); `train` must outlive the slot.
  WorkerSlot(Model model, const Dataset& train, std::size_t batch_size, std::uint64_t seed,
             std::size_t slot, std::size_t initial_workers);

  /// The rows of a `train_size`-row train split that slot `slot` samples
  /// from: a socket worker builds just these (data/synthetic.h).
  static ShardSpec shard(std::size_t train_size, std::size_t slot, std::size_t initial_workers);

  /// Pull the parameters, with their shard versions, into the replica's
  /// params(), then the gradient at them.
  void pull_gradient(Transport& ps);

  /// Encode the gradient through this slot's `bank` slot; null `bank` sends
  /// it dense.  Returns the push's wire bytes.
  std::int64_t encode(CompressorBank* bank);

  /// Encode and push against the versions of the last pull.
  Push push(Transport& ps, CompressorBank* bank, double lr);

  /// `push`, then `pull_gradient`, with the push and the pull in one
  /// Transport::push_pull: bit for bit the two calls in turn.
  Push push_pull_gradient(Transport& ps, CompressorBank* bank, double lr);

  /// The per-shard versions of the last pull.
  [[nodiscard]] std::span<const std::int64_t> pull_versions() const noexcept {
    return pull_versions_;
  }

  /// Add the last encoded gradient into `sum`: the decoded push when
  /// `compressed`, the raw gradient otherwise.
  void add_into(std::span<float> sum, bool compressed) const;

 private:
  /// Slot `slot`'s data shard and RNG streams (the one stream rule).
  struct Streams {
    ShardSpec shard;
    Rng sampler;
    Rng codec;
  };
  static Streams streams_for(const Dataset& train, std::uint64_t seed, std::size_t slot,
                             std::size_t initial_workers);
  WorkerSlot(Model model, const Dataset& train, std::size_t batch_size, std::size_t slot,
             Streams streams);

  /// The gradient of a fresh minibatch at the replica's params(), left in
  /// its grads().
  void compute_gradient();

  int slot_;
  const Dataset* train_;
  Model model_;
  MinibatchSampler sampler_;
  Rng codec_rng_;
  Tensor batch_x_;
  std::vector<int> batch_y_;
  std::vector<std::uint32_t> indices_;
  std::vector<std::int64_t> pull_versions_;  ///< per-shard versions at pull
  CompressedPush encoded_;                   ///< the last compressed encode
};

}  // namespace ss
