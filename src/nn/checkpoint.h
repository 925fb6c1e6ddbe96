// The checkpoint of the protocol-switch mechanism.
//
// Sync-Switch's switch is implemented exactly as in the paper (Section V):
// checkpoint the training state, restart the tasks under the new protocol,
// restore from the checkpoint.  A checkpoint captures the PS-side state:
// model parameters, optimizer velocity, the global step, and the PS shard
// layout with its per-shard version counters.  It is a plain in-memory
// struct (SharedParameterServer::snapshot_checkpoint makes one, restore
// reads it back, elastic/async_snapshotter.h holds them); it has no byte
// or file form.
#pragma once

#include <cstdint>
#include <vector>

namespace ss {

struct Checkpoint {
  std::int64_t global_step = 0;
  std::vector<float> params;
  std::vector<float> velocity;
  /// PS shard layout at checkpoint time.  1 = flat; a sharded server
  /// refuses to restore a checkpoint with a different multi-shard layout.
  std::uint64_t num_shards = 1;
  /// Per-shard update counters (empty for flat checkpoints).  Kept for
  /// reproducibility audits; restore never rolls versions back.
  std::vector<std::int64_t> shard_versions;

  bool operator==(const Checkpoint&) const = default;
};

}  // namespace ss
