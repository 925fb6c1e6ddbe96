// Consistent sharded-PS snapshots for crash recovery, one class for every
// runtime.
//
// A crash under RecoveryMode::kRestoreSnapshot rolls the parameter server
// back to the last snapshot, so the loss window is bounded by one snapshot
// interval — but only if taking a snapshot does not itself stall training.
// AsyncSnapshotter owns a PS's snapshots in the simulator, on threads and
// on the socket server: it captures a checkpoint (format v2: params +
// velocity + shard layout + versions) through a caller-supplied capture
// function, holds the latest one, and restores it on a crash.
//
//  * `snapshot_now` captures on the calling thread: the run-start floor,
//    and the simulator's captures at exact step boundaries (which is what
//    makes elastic sim runs bit-for-bit reproducible).
//  * When `interval > 0` (threads and the socket server), a background
//    thread watches a progress counter (PS updates applied) and captures
//    every `interval` updates.  The capture walks the PS copy-on-read, one
//    shard lock at a time (SharedParameterServer::snapshot_checkpoint in
//    ps/param_server.h), so workers pushing to other shards never block on
//    it — each shard's slice is internally consistent (params + velocity +
//    version move together under the shard lock) and cross-shard skew is
//    bounded by the pushes that land mid-walk, the same guarantee a worker
//    pull has.
//  * `restore_latest` restores the held checkpoint and returns the updates
//    it loses.
//
// One lock guards every capture and every restore, and the held
// checkpoint.  Without it a capture walking the shards while a restore
// rewrites them could store a torn mix of pre- and post-restore slices as
// "latest".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "nn/checkpoint.h"

namespace ss {

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

  /// `interval == 0` means no cadence and no thread: only snapshot_now()
  /// captures.
  AsyncSnapshotter(CaptureFn capture, ProgressFn progress, std::int64_t interval);
  ~AsyncSnapshotter();

  AsyncSnapshotter(const AsyncSnapshotter&) = delete;
  AsyncSnapshotter& operator=(const AsyncSnapshotter&) = delete;

  /// Capture + hold a snapshot immediately on the calling thread.
  void snapshot_now();

  /// Restore the latest snapshot through `restore` and return the updates
  /// it loses: progress minus the snapshot's global_step.  nullopt when no
  /// snapshot exists.  With a cadence, the restored state is captured at
  /// once as the new floor.
  std::optional<std::int64_t> restore_latest(const RestoreFn& restore);

  /// Number of snapshots captured so far.
  [[nodiscard]] std::int64_t count() const;

  /// Join the background thread (idempotent).
  void stop();

 private:
  void loop();
  void capture_locked();  ///< callers hold ps_mu_

  CaptureFn capture_;
  ProgressFn progress_;
  std::int64_t interval_;
  mutable std::mutex ps_mu_;  ///< the one capture/restore lock; guards the three below
  std::optional<Checkpoint> latest_;
  std::int64_t count_ = 0;
  std::int64_t next_due_;  ///< progress value the next cadence snapshot is due at
  std::mutex stop_mu_;     ///< guards stop_ and the cadence wait
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace ss
