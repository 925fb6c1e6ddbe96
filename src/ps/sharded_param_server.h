// Sharded parameter-server state: the authoritative model parameters plus
// the (server-side) momentum optimizer, partitioned into contiguous shards.
//
// The paper collocates PS shards with workers.  Earlier revisions kept one
// logical vector behind the parameter-server API and let the cluster model
// price sharding as a pure timing effect; that serializes every ASP push on
// one lock and caps the real-throughput ceiling.  This class makes the shard
// layer real:
//
//  * The vector is split into `num_shards` contiguous ranges.  Each shard
//    owns a version counter and a velocity slice (one flat SgdMomentum holds
//    the storage; `apply_range` updates disjoint slices).
//  * Full-vector `apply`/`pull`/`set_params` keep the historical semantics —
//    one logical update advances every shard — so all three runtimes work
//    against the same API, while staleness accounting can read per-shard
//    versions (`shard_versions` at pull, `staleness_since` at push).
//  * Per-shard primitives (`pull_shard`, `apply_shard`) let the threaded
//    runtime guard each shard with its own mutex instead of one global lock.
//  * `set_parallel_apply` attaches a persistent worker pool; full-vector
//    apply/pull then fan shards across threads.  Shards are disjoint, so the
//    parallel path is bit-for-bit identical to the serial one.
//
// Version counts let the runtimes measure gradient staleness exactly:
// staleness of an update = max over shards of
// (shard version at push - shard version at pull).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"
#include "ps/shard_pool.h"

namespace ss {

class ShardedParameterServer {
 public:
  /// Contiguous half-open index range [begin, end) owned by one shard.
  struct ShardRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  };

  /// `num_shards` is clamped to [1, num_params]; the first
  /// `num_params % num_shards` shards are one element larger.
  ShardedParameterServer(std::vector<float> init_params, double momentum,
                         std::size_t num_shards = 1);

  ShardedParameterServer(ShardedParameterServer&&) = default;
  ShardedParameterServer& operator=(ShardedParameterServer&&) = default;

  [[nodiscard]] std::size_t num_params() const noexcept { return params_.size(); }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shard_versions_.size(); }
  [[nodiscard]] ShardRange shard_range(std::size_t shard) const;

  /// Shard owning parameter `param_index` (the inverse of `shard_range`).
  [[nodiscard]] std::size_t shard_of(std::size_t param_index) const;

  /// Invoke `fn(shard, begin, end)` for each maximal run of `indices` owned
  /// by one shard, where [begin, end) are positions into `indices`.  The
  /// index list must be ascending (throws ConfigError at run boundaries
  /// otherwise; in-run order is validated by `apply_sparse_shard`); shards
  /// owning no index are skipped.  Runs are visited in ascending shard
  /// order — the property the threaded facade's per-shard locking relies on
  /// for deadlock freedom.  Shared by the sparse apply, sparse staleness,
  /// and the threaded `push_compressed` walk so the segmentation logic
  /// cannot drift between them.
  template <typename Fn>
  void for_each_shard_segment(std::span<const std::uint32_t> indices, Fn&& fn) const {
    std::size_t pos = 0;
    while (pos < indices.size()) {
      if (pos > 0 && indices[pos] <= indices[pos - 1])
        throw ConfigError("ShardedParameterServer: sparse indices must be ascending");
      const std::size_t s = shard_of(indices[pos]);
      const ShardRange r = shard_range(s);
      std::size_t end = pos + 1;
      while (end < indices.size() && indices[end] < r.end) ++end;
      fn(s, pos, end);
      pos = end;
    }
  }

  /// Authoritative parameters (what a worker pull copies).
  [[nodiscard]] std::span<const float> params() const noexcept { return params_; }

  /// Copy parameters into `out` (a worker pull).  Uses the parallel pool
  /// when one is attached.
  void pull(std::span<float> out) const;

  /// Overwrite the authoritative parameters in place (used by runtimes that
  /// train external replicas, e.g. the group-based protocol, to fold their
  /// result back).  Counts as one version advance on every shard.
  void set_params(std::span<const float> params);

  /// Number of complete logical updates applied so far: the minimum shard
  /// version (all shards agree except transiently, mid-push, under the
  /// threaded runtime's per-shard locking).
  [[nodiscard]] std::int64_t version() const noexcept;

  /// Apply one full gradient with the given learning rate (an ASP push, or
  /// the already-aggregated BSP gradient).  Every shard's version advances
  /// by one.  Uses the parallel pool when one is attached.
  void apply(std::span<const float> grad, double lr);

  /// Apply a sparse push: `values[i]` lands on coordinate `indices[i]`
  /// (strictly ascending, in range — throws ConfigError otherwise).  Only
  /// the shards owning kept coordinates are touched, and only their versions
  /// advance; coordinates outside the index set keep their parameter and
  /// velocity bits exactly (sparse momentum — see SgdMomentum::apply_sparse).
  /// An empty index set is a no-op.  For a single push from equal state, a
  /// listed coordinate's arithmetic is bit-identical to a dense `apply` of
  /// the scattered vector, independent of the shard layout.
  void apply_sparse(std::span<const std::uint32_t> indices, std::span<const float> values,
                    double lr);

  // --- Per-shard primitives (the threaded runtime's lock granularity).
  // `out`/`grad` are full-length vectors; only the shard's range is touched.

  void pull_shard(std::size_t shard, std::span<float> out) const;
  void apply_shard(std::size_t shard, std::span<const float> grad, double lr);
  /// Sparse apply restricted to one shard: every index must fall inside the
  /// shard's range (absolute coordinates).  Advances only this shard's
  /// version.  This is the granularity at which the threaded runtime locks.
  void apply_sparse_shard(std::size_t shard, std::span<const std::uint32_t> indices,
                          std::span<const float> values, double lr);
  [[nodiscard]] std::int64_t shard_version(std::size_t shard) const;

  /// Snapshot every shard version into `out` (resized to num_shards).
  void shard_versions(std::vector<std::int64_t>& out) const;

  /// Staleness of a push whose pull observed `pulled`: the largest number of
  /// updates any shard absorbed since.  Equals the historical global
  /// version-delta when every update is a full-vector apply.
  [[nodiscard]] std::int64_t staleness_since(std::span<const std::int64_t> pulled) const;

  /// Staleness of a *sparse* push: the max is taken only over the shards
  /// owning the kept coordinates — the shards this push actually reads and
  /// writes (`indices` strictly ascending, as for apply_sparse).
  [[nodiscard]] std::int64_t staleness_since(std::span<const std::int64_t> pulled,
                                             std::span<const std::uint32_t> indices) const;

  /// Attach a worker pool of `extra_threads` additional threads; subsequent
  /// full-vector apply/pull calls fan shards across extra_threads + 1
  /// workers.  Pass 0 to detach and return to the serial path.  The result
  /// of every operation is bit-identical either way.
  void set_parallel_apply(std::size_t extra_threads);
  [[nodiscard]] bool parallel_apply_enabled() const noexcept { return pool_ != nullptr; }

  [[nodiscard]] SgdMomentum& optimizer() noexcept { return opt_; }
  [[nodiscard]] const SgdMomentum& optimizer() const noexcept { return opt_; }

  /// Checkpoint the PS state, including the shard layout and per-shard
  /// versions (used by the protocol-switch mechanism).
  [[nodiscard]] Checkpoint make_checkpoint(std::int64_t global_step) const;

  /// Restore parameters + optimizer velocity from a checkpoint.  The
  /// checkpoint's shard layout must match this server's (flat single-shard
  /// checkpoints restore into any layout).  Versions are not rolled back:
  /// they only ever move forward, so staleness accounting stays monotone
  /// across a checkpoint-restart.
  void restore(const Checkpoint& ckpt);

  // --- Per-shard snapshot hooks (the elastic subsystem's granularity).
  // The threaded facade wraps each call in that shard's mutex, so the
  // AsyncSnapshotter can walk the server copy-on-read — one consistent
  // (params, velocity, version) slice at a time — without ever holding more
  // than one shard lock.  `params_out`/`velocity_out` are full-length
  // vectors; only the shard's range is touched (like `pull_shard`).

  void snapshot_shard_state(std::size_t shard, std::span<float> params_out,
                            std::span<float> velocity_out, std::int64_t& version_out) const;
  /// Overwrite one shard's parameter + velocity slices from full-length
  /// vectors.  Version counters are never rolled back (same contract as
  /// `restore`).
  void restore_shard_state(std::size_t shard, std::span<const float> params,
                           std::span<const float> velocity);

  /// True if all parameters are finite (divergence guard).
  [[nodiscard]] bool healthy() const noexcept;

 private:
  std::vector<float> params_;
  SgdMomentum opt_;
  std::vector<std::int64_t> shard_versions_;
  std::unique_ptr<ShardApplyPool> pool_;
};

}  // namespace ss
