// Asynchronous, consistent sharded-PS snapshots for crash recovery.
//
// A crash under RecoveryMode::kRestoreSnapshot rolls the parameter server
// back to the last snapshot, so the loss window is bounded by one snapshot
// interval — but only if taking a snapshot does not itself stall training.
// The split here keeps both runtimes honest:
//
//  * SnapshotStore is the passive, thread-safe holder of the latest
//    checkpoint (format v2: params + velocity + shard layout + versions).
//    The simulator drives it synchronously at exact step boundaries, which
//    is what makes elastic sim runs bit-for-bit reproducible.
//  * AsyncSnapshotter is the snapshotter both real deployments share: the
//    threaded runtime and the socket PS server.  It captures a checkpoint
//    through a caller-supplied capture function, once on demand for the
//    recovery floor (`snapshot_now`) and, when `interval > 0`, from a
//    background thread that watches a progress counter (PS updates
//    applied) and captures every `interval` updates.  The capture walks
//    the PS copy-on-read, one shard lock at a time
//    (SharedParameterServer::snapshot_checkpoint in ps/param_server.h, the
//    call the simulator's synchronous captures make too), so workers
//    pushing to other shards never block on it — each shard's slice is
//    internally consistent (params + velocity + version move together
//    under the shard lock) and cross-shard skew is bounded by the pushes
//    that land mid-walk, the same guarantee a worker pull has.
//
// One lock guards every capture and every restore of the snapshotter's PS:
// cadence and floor captures, the crash restore (`restore_latest`), and
// whatever a caller wraps in `exclusive` (the server's remote checkpoint
// and restore requests).  Without it a capture walking the shards while a
// restore rewrites them could store a torn mix of pre- and post-restore
// slices as "latest".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "nn/checkpoint.h"

namespace ss {

/// Thread-safe holder of the most recent snapshot.
class SnapshotStore {
 public:
  void put(Checkpoint ckpt);

  /// Copy of the latest snapshot, if any has been taken.
  [[nodiscard]] std::optional<Checkpoint> latest() const;

  /// Number of snapshots stored so far.
  [[nodiscard]] std::int64_t count() const;

  /// `global_step` of the latest snapshot (-1 when none exists).
  [[nodiscard]] std::int64_t latest_step() const;

 private:
  mutable std::mutex mu_;
  std::optional<Checkpoint> latest_;
  std::int64_t count_ = 0;
};

/// Snapshots for one PS: the recovery floor on demand, an optional
/// background cadence, and the crash restore, all under one lock.
/// Construction starts the cadence thread when `interval > 0`; destruction
/// (or stop()) joins it.  `capture` and `progress` must be safe to call
/// concurrently with training — the intended capture is the per-shard-locked
/// SharedParameterServer::snapshot_checkpoint.
class AsyncSnapshotter {
 public:
  using CaptureFn = std::function<Checkpoint()>;
  using ProgressFn = std::function<std::int64_t()>;
  using RestoreFn = std::function<void(const Checkpoint&)>;

  /// `interval == 0` means no cadence: only snapshot_now() captures.
  AsyncSnapshotter(CaptureFn capture, ProgressFn progress, std::int64_t interval,
                   SnapshotStore& store);
  ~AsyncSnapshotter();

  AsyncSnapshotter(const AsyncSnapshotter&) = delete;
  AsyncSnapshotter& operator=(const AsyncSnapshotter&) = delete;

  /// Capture + store a snapshot immediately on the calling thread (the
  /// run-start floor, so recovery always has something to restore).
  void snapshot_now();

  /// Restore the latest snapshot through `restore` and return the updates
  /// it loses: progress minus the snapshot's global_step.  nullopt when no
  /// snapshot exists.  With a cadence, the restored state is captured at
  /// once as the new floor.
  std::optional<std::int64_t> restore_latest(const RestoreFn& restore);

  /// Run `fn` under the capture/restore lock and return its result.
  template <typename Fn>
  decltype(auto) exclusive(Fn&& fn) {
    const std::lock_guard<std::mutex> lock(ps_mu_);
    return std::forward<Fn>(fn)();
  }

  /// Join the background thread (idempotent).
  void stop();

 private:
  void loop();
  void capture_locked();  ///< callers hold ps_mu_

  CaptureFn capture_;
  ProgressFn progress_;
  std::int64_t interval_;
  SnapshotStore& store_;
  std::mutex ps_mu_;       ///< the one capture/restore lock; guards next_due_
  std::int64_t next_due_;  ///< progress value the next cadence snapshot is due at
  std::mutex stop_mu_;     ///< guards stop_ and the cadence wait
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace ss
