// Parameter synchronization protocols (paper Section II-B).
//
// This enum is the axis Sync-Switch switches along: BSP trades throughput
// for zero staleness, ASP trades staleness for throughput, and the
// SSP/DSSP/K-variant family interpolates between them. Every runtime
// (sim_runtime, threaded_runtime, group_runtime) consumes a Protocol to
// decide when a worker's gradient may be applied and when a worker must
// block; the TrainingSession's timing policy decides *when* to change the
// value mid-run (checkpoint -> actuate -> restore).
//
// `is_synchronous` partitions the enum the way the paper's analysis does:
// barrier-per-round protocols have zero staleness by construction, the rest
// are measured by the profiler's staleness counters.
#pragma once

#include <string>

namespace ss {

/// The synchronization protocol governing how worker gradients reach the
/// parameter servers.
enum class Protocol {
  kBsp,   ///< Bulk Synchronous Parallel: barrier each step, aggregated update.
  kAsp,   ///< Asynchronous Parallel: every worker pushes/pulls at its own pace.
  kSsp,   ///< Stale Synchronous Parallel: async within a fixed staleness bound.
  kDssp,  ///< Dynamic SSP (Zhao et al., ICDCS'19): bound adapts in [lo, hi].
  // The K-variant family of Dutta et al. ("Slow and stale gradients can win
  // the race", paper reference [11]): the synchronization degree is the
  // hyper-parameter K.  kKSync with K = n is exactly BSP; kKAsync with K = 1
  // is exactly ASP.
  kKSync,       ///< wait for the K fastest workers, cancel the rest.
  kKBatchSync,  ///< wait for the first K minibatches (any worker), cancel rest.
  kKAsync,      ///< apply once gradients from K distinct workers arrive; no cancel.
  kKBatchAsync, ///< apply once any K gradients arrive; no cancellations.
};

inline std::string protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kBsp:
      return "BSP";
    case Protocol::kAsp:
      return "ASP";
    case Protocol::kSsp:
      return "SSP";
    case Protocol::kDssp:
      return "DSSP";
    case Protocol::kKSync:
      return "K-sync";
    case Protocol::kKBatchSync:
      return "K-batch-sync";
    case Protocol::kKAsync:
      return "K-async";
    case Protocol::kKBatchAsync:
      return "K-batch-async";
  }
  return "?";
}

/// True for protocols whose workers all compute on one parameter version per
/// round (barrier semantics; zero staleness).
inline bool is_synchronous(Protocol p) {
  return p == Protocol::kBsp || p == Protocol::kKSync || p == Protocol::kKBatchSync;
}

/// True for the protocols a staleness bound gates (fixed for SSP, the lower
/// bound for DSSP).
inline bool reads_staleness_bound(Protocol p) {
  return p == Protocol::kSsp || p == Protocol::kDssp;
}

/// True for protocols the real-thread runtime (ps/threaded_runtime.h)
/// implements; the simulator supports the whole enum.  Schedules that mix
/// protocols are validated against this before any worker thread starts.
inline bool threaded_supported(Protocol p) {
  return p == Protocol::kBsp || p == Protocol::kAsp || p == Protocol::kSsp;
}

}  // namespace ss
