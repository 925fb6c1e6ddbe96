// WorkerProcess: one training worker in its own OS process.
//
// `run_worker_process` connects to a PsServer, receives its slot and the
// server-owned run configuration (AssignmentMsg), regenerates the dataset and
// model locally, and runs the ASP step loop — the threaded runtime's own
// WorkerSlot step (ps/worker_slot.h): pull, local gradient, (optionally
// compressed) push — entirely through the SocketTransport, with each push
// and the next step's pull fused into one exchange.  The slot's
// constructor assigns the data shard and RNG streams, so a worker process
// computes the same gradients a worker *thread* with the same slot would.
//
// After its step quota the worker announces quiescence (drain_arrive, which
// blocks until every alive worker has arrived) and leaves cleanly with Bye.
// Dying instead — kill -9, crash, `crash_after_steps` below — just closes
// the socket, which is precisely the signal the server's eviction path
// consumes.
#pragma once

#include <cstdint>
#include <string>

namespace ss {

struct WorkerProcessConfig {
  std::string endpoint;  ///< PsServer endpoint ("unix:<path>" or "tcp:<host>:<port>")
  /// Test hook: disconnect abruptly (no drain, no Bye) after this many
  /// steps; -1 = run the full quota.  Simulates a mid-run crash without
  /// needing an external kill.
  std::int64_t crash_after_steps = -1;
};

struct WorkerProcessResult {
  std::uint32_t worker = 0;      ///< slot assigned by the server
  std::int64_t steps = 0;        ///< local steps completed
  std::int64_t push_bytes = 0;   ///< wire bytes of gradient payloads
  double mean_staleness = 0.0;   ///< mean staleness over this worker's pushes
  bool drained = false;          ///< reached and was released from the drain barrier
};

/// Run one worker to completion (blocking).  Throws NetError if the server
/// is unreachable, rejects the handshake, or dies mid-run.
WorkerProcessResult run_worker_process(const WorkerProcessConfig& cfg);

}  // namespace ss
