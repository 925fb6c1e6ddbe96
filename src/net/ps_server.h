// PsServer: host the parameter server in its own OS process.
//
// `run_ps_server` owns the whole run: it builds the model + initial
// parameters from the seed, listens on the endpoint, assigns slots to the
// first `num_workers` connections (shipping each the full run configuration
// — the server owns the config, workers only know where to connect), and
// serves pull/push/drain frames from one session thread per connection
// against a SharedParameterServer (ps/param_server.h), the one
// PS class the simulator and the threaded runtime use.  The deployed
// protocol is ASP: workers run the threaded runtime's WorkerSlot step for
// their quota and quiesce at one final drain barrier (the in-process
// runtime remains the reference for BSP/SSP and live switching).  A config
// no worker could train on is rejected before the server listens.
//
// Fault tolerance is the threaded runtime's crash path over real process
// death, through the same AsyncSnapshotter: copy-on-read checkpoints on an
// update cadence over a run-start floor, with every capture and restore
// under the snapshotter's one lock.  No frame captures or restores a
// snapshot: the PS's parameters change only through pushes and the eviction
// restore.  When a worker's socket dies mid-run (kill -9, OOM, network
// partition — anything that closes the fd) the
// server evicts the slot, restores the latest snapshot
// (RecoveryMode::kRestoreSnapshot semantics: updates since the snapshot are
// lost, versions never roll back), and drops the slot from the drain
// barrier, a std::barrier as on threads, so the survivors carry on.  A
// worker dying at the barrier is caught on the release send instead.  The
// run ends when every alive worker has drained (or every worker died); the
// server then evaluates final accuracy on the test split and returns.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compress/spec.h"
#include "data/synthetic.h"
#include "nn/zoo.h"

namespace ss {

struct PsServerConfig {
  std::string listen = "unix:/tmp/sync_switch_ps.sock";
  std::size_t num_workers = 2;
  std::int64_t steps_per_worker = 100;
  std::size_t batch_size = 32;
  double lr = 0.05;
  double momentum = 0.9;
  std::uint64_t seed = 99;
  std::size_t num_ps_shards = 1;
  /// PS updates between asynchronous snapshots; 0 = run-start snapshot only
  /// (recovery still has a floor, the loss window is just the whole run).
  std::int64_t snapshot_interval = 0;
  ModelArch arch = ModelArch::kLinear;
  SyntheticSpec data;           ///< workers regenerate the same split
  CompressionSpec compression;  ///< encoded worker-side; wire carries CompressedPush
  /// Observability: when > 0 (and obs::enabled()), the server logs a compact
  /// metrics line every this-many seconds while the run is live, plus one
  /// final line at exit.  0 = off.
  double metrics_period_seconds = 0.0;
  /// Invoked with the concrete endpoint once the server is listening (tcp
  /// port 0 resolved) — tests and scripts use it to know when to connect.
  std::function<void(const std::string&)> on_listening;
};

struct PsServerResult {
  std::int64_t total_updates = 0;    ///< pushes applied (incl. rolled-back ones)
  std::size_t workers_joined = 0;
  std::size_t workers_evicted = 0;   ///< slots lost to a dead connection
  std::int64_t snapshots_restored = 0;
  std::int64_t updates_lost = 0;     ///< rolled back across all restores
  double final_accuracy = 0.0;       ///< on the test split, server-side
  std::vector<float> final_params;
};

/// Run one full serve cycle (blocking).  Throws ConfigError on a bad
/// config, NetError if the endpoint cannot be bound.
PsServerResult run_ps_server(const PsServerConfig& cfg);

}  // namespace ss
