// The parameter server: the authoritative model parameters plus the
// server-side momentum optimizer, partitioned into contiguous shards, each
// guarded by its own mutex.  One class serves every runtime — the simulator
// (one thread, so every lock is uncontended), the threaded runtime's worker
// threads, and the socket server's session threads — so a protocol switch
// checkpoints, reconfigures and restores the same object on all three.
//
//  * The vector is split into `num_shards` contiguous ranges (the paper
//    collocates PS shards with workers).  Each shard owns a version counter
//    and a velocity slice; one flat SgdMomentum holds the velocity storage
//    and `apply_range` updates disjoint slices.
//  * Concurrent pushes serialize per shard: worker A can apply shard 1
//    while worker B applies shard 0.  Every call walks the shards in
//    ascending order, holding one shard lock at a time (set_momentum holds
//    them all, taken in the same order), so no two calls can deadlock.
//  * A dense push advances every shard's version by one; a sparse push
//    advances only the shards owning kept coordinates, so per-shard
//    versions diverge under sparse traffic.  `pull_with_versions` snapshots
//    every shard's version as it copies that shard, and a push's staleness
//    is the largest number of updates any shard it touches absorbed since:
//    max over touched shards of (version at push - version at pull).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "compress/compressed_push.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"

namespace ss {

class SharedParameterServer {
 public:
  /// `num_shards` is clamped to [1, num_params]; the first
  /// `num_params % num_shards` shards are one element larger.  Throws
  /// ConfigError on an empty vector.
  SharedParameterServer(std::vector<float> init_params, double momentum,
                        std::size_t num_shards = 1);

  [[nodiscard]] std::size_t num_params() const noexcept { return params_.size(); }
  [[nodiscard]] std::size_t num_shards() const noexcept { return versions_.size(); }

  /// Copy the parameters into `out` (sized num_params), shard by shard.
  void pull(std::span<float> out) const;

  /// Pull, and snapshot each shard's version as it is copied (`versions` is
  /// resized to num_shards).  That vector is what `push` measures staleness
  /// against.
  void pull_with_versions(std::span<float> out, std::vector<std::int64_t>& versions) const;

  /// `pull` into a fresh vector.
  [[nodiscard]] std::vector<float> snapshot() const;

  /// Apply a full gradient shard by shard; returns the push's staleness
  /// against `pull_versions` (one entry per shard).
  std::int64_t push(std::span<const float> grad, double lr,
                    std::span<const std::int64_t> pull_versions);

  /// Apply a validated push (ConfigError if it decodes to another length
  /// than num_params; nothing is re-checked).  Dense pushes apply like
  /// `push`; sparse pushes lock, apply and version only the shards owning
  /// kept coordinates, so concurrent sparse pushes to disjoint shards never
  /// serialize, and their staleness is measured over those shards only.
  /// Before each shard lock, the lines the shard's run will write are asked
  /// for in a writable state (a hint; see param_server.cpp), so the lock is
  /// not held while they move between cores.  Coordinates outside the index
  /// set keep their parameter and velocity bits exactly (sparse momentum,
  /// SgdMomentum::apply_sparse).
  std::int64_t push_compressed(const ValidatedPush& push, double lr,
                               std::span<const std::int64_t> pull_versions);

  /// Validate `push` (ConfigError if malformed) and apply it.
  std::int64_t push_compressed(const CompressedPush& push, double lr,
                               std::span<const std::int64_t> pull_versions) {
    return push_compressed(ValidatedPush(push), lr, pull_versions);
  }

  /// Staleness a dense push would have now against `pulled`.  K-async
  /// buffers a push and measures it on arrival, before the buffer applies.
  [[nodiscard]] std::int64_t staleness_since(std::span<const std::int64_t> pulled) const;

  /// Overwrite the parameters (the group runtime folds its replicas' result
  /// back).  Counts as one version advance on every shard.
  void set_params(std::span<const float> params);

  /// Momentum of every later push (the sim's momentum schedules).
  void set_momentum(double momentum) noexcept;

  /// Copy-on-read checkpoint of the whole state (params, velocity, shard
  /// layout and per-shard versions), one shard lock at a time: each shard's
  /// slice is consistent, and cross-shard skew is bounded by the pushes that
  /// land mid-walk, the same guarantee `pull` gives.  `logical_step` lands
  /// in Checkpoint::global_step.
  [[nodiscard]] Checkpoint snapshot_checkpoint(std::int64_t logical_step) const;

  /// Restore params and velocity, shard by shard.  A flat checkpoint
  /// (`num_shards <= 1`, e.g. a single-shard server's snapshot) restores into
  /// any layout; a sharded one must match this server's shard count and
  /// carry one version per shard, or it is refused with CheckpointError
  /// before anything is written.  Versions never roll back, so staleness
  /// accounting stays monotone across a restore.
  void restore(const Checkpoint& ckpt);

  /// True if every parameter is finite (the divergence guard).
  [[nodiscard]] bool healthy() const;

 private:
  /// Contiguous half-open index range [begin, end) owned by one shard.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  };
  [[nodiscard]] Range range(std::size_t shard) const noexcept;
  /// Shard owning parameter `index` (< num_params): the inverse of `range`.
  [[nodiscard]] std::size_t shard_of(std::size_t index) const noexcept;
  /// Call `fn(shard, range)` for every shard in ascending order, each under
  /// its own lock.
  template <typename Fn>
  void for_each_shard(Fn&& fn) const {
    for (std::size_t s = 0; s < mu_.size(); ++s) {
      const std::lock_guard<std::mutex> lock(mu_[s]);
      fn(s, range(s));
    }
  }

  std::vector<float> params_;
  SgdMomentum opt_;
  std::vector<std::int64_t> versions_;  ///< versions_[s] is guarded by mu_[s]
  mutable std::vector<std::mutex> mu_;  ///< one lock per shard
};

}  // namespace ss
