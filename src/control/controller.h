// OnlineController: simulator-in-the-loop autotuning (ROADMAP item 4).
//
// The paper picks its switch point offline (core/binary_search +
// config_policy) or reacts to a detector threshold (ps/switch_schedule
// triggers).  The controller is the middle ground: at every drain barrier
// of the threaded runtime it
//
//   measure — snapshot what the last decision interval actually cost
//             (sim/calibration.h: per-worker step times, wire bytes,
//             straggler factor),
//   twin    — fan a small candidate grid (protocol x SSP bound x
//             compression, optionally evicting the measured straggler)
//             through the simulator as RunRequests (core/twin.h) via
//             SweepRunner with a shared RunCache,
//   score   — rank candidates on predicted time-to-target-accuracy
//             (twin_score), and
//   enact   — return the winning move for the runtime to apply while the
//             workers are parked — protocol/bound/compression in-place,
//             eviction through the existing recovery machinery.
//
// Hysteresis keeps it from thrashing: a move is enacted only if the
// predicted relative gain clears `min_predicted_gain` AND at least
// `min_steps_between_moves` local steps have passed since the last move.
//
// Determinism: decide() is a pure function of (config, quantized measured
// stats).  Twin runs are bit-deterministic, cache hits are bit-identical to
// cold runs (so cache state cannot change a decision, only its latency),
// the twin seed is fixed per controller (identical stats => identical
// queries => warm hits), and grid order breaks ties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/spec.h"
#include "core/run_cache.h"
#include "core/sweep.h"
#include "ps/protocol.h"
#include "sim/calibration.h"
#include "sim/cluster.h"

namespace ss {

/// One grid point: a configuration the controller considers moving to.
struct ControllerCandidate {
  Protocol protocol = Protocol::kBsp;
  int ssp_staleness_bound = 3;
  /// Run pushes through the configured codec (only offered when the run
  /// has one; toggling re-uses the codec's residual state).
  bool compress = false;
  /// Membership move: evict the measured straggler's slot.
  bool evict_straggler = false;

  /// Short table label, e.g. "ASP", "SSP(b=3)+topk", "BSP-evict(w2)".
  [[nodiscard]] std::string label() const;
};

/// One candidate's twin evaluation.
struct CandidateOutcome {
  ControllerCandidate candidate;
  double predicted_seconds = 0.0;  ///< twin_score — lower is better
  bool from_cache = false;
  std::string error;  ///< non-empty if the twin run failed; candidate skipped
};

/// The per-barrier decision record surfaced in ThreadedTrainResult.
struct ControllerDecision {
  std::int64_t at_step = 0;  ///< per-worker local step of the drain barrier
  Protocol protocol_before = Protocol::kBsp;
  MeasuredPhaseCosts measured;  ///< quantized stats the decision saw
  std::vector<CandidateOutcome> candidates;
  ControllerCandidate chosen;  ///< best-scoring candidate (== hold when none)
  bool enacted = false;
  /// "enacted" | "hold:best" | "hold:gain<min" | "hold:hysteresis" |
  /// "hold:error <what>".
  std::string reason;
  /// Fraction of predicted time saved vs. holding: (hold - best) / hold.
  double predicted_gain = 0.0;
  /// Realized throughput change over the *next* interval, filled in by the
  /// runtime at the following barrier: 1 - (seconds/step after) /
  /// (seconds/step before).  0 until known (the run always ends on a
  /// barrier, so every decision gets one).
  double realized_gain = 0.0;
  std::size_t cache_hits = 0;       ///< twin queries served from warm cache
  double decide_wall_seconds = 0.0; ///< real time the decision cost
};

struct ControllerConfig {
  bool enabled = false;

  /// Local steps per worker between drain-barrier decision points.
  std::int64_t decision_interval = 32;

  // --- hysteresis -------------------------------------------------------
  /// A move is enacted at most once per this many local steps.
  std::int64_t min_steps_between_moves = 64;
  /// Minimum predicted relative gain ((hold - best) / hold) to move.
  double min_predicted_gain = 0.10;

  // --- twin -------------------------------------------------------------
  /// Proxy-workload accuracy the twin scores time-to-accuracy against.
  double target_accuracy = 0.60;
  /// Global minibatch steps each twin query simulates.
  std::int64_t twin_horizon_steps = 192;
  /// Run-cache directory for twin results ("" = in-process only, no reuse
  /// across barriers or runs).
  std::string cache_dir;
  /// Sweep pool width for the candidate fan-out (0 = hardware).
  std::size_t twin_jobs = 0;

  // --- grid -------------------------------------------------------------
  /// Protocols considered (threaded-supported only; others are skipped).
  std::vector<Protocol> protocols = {Protocol::kBsp, Protocol::kAsp, Protocol::kSsp};
  /// Offer evicting the measured straggler (enacted through the recovery
  /// machinery; bounded by min_workers).
  bool consider_eviction = false;
  /// Eviction floor: never shrink the cluster below this many workers.
  std::size_t min_workers = 2;

  /// Base ClusterSpec for calibration: supplies what the runtime cannot
  /// measure (latency, bandwidth, barrier:compute cost ratios — see
  /// calibrate_cluster_spec).  Defaults mirror the determinism corpus's
  /// tiny cluster, scaled by measurement at every decision.
  ClusterSpec twin_base_cluster = default_twin_base_cluster();

  [[nodiscard]] static ClusterSpec default_twin_base_cluster();
};

/// The decision engine.  Owns the twin sweep pool and (optionally) the twin
/// run cache; holds no reference to the runtime — the runtime feeds it
/// measurements and applies (or ignores) what it returns.
class OnlineController {
 public:
  /// `run_compression` is the training run's codec (grid variants toggle
  /// it on and off; absent codec => no compression variants).
  OnlineController(ControllerConfig config, CompressionSpec run_compression);

  /// Evaluate the grid against `measured` (quantized internally) and pick
  /// the next configuration.  Pure in (config, quantized stats);
  /// `steps_since_move` implements hysteresis and `remaining_steps` lets
  /// short run tails decline moves that cannot amortize.
  [[nodiscard]] ControllerDecision decide(std::int64_t at_step, Protocol current_protocol,
                                          int current_ssp_bound, bool compression_active,
                                          const MeasuredPhaseCosts& measured,
                                          std::int64_t steps_since_move,
                                          std::int64_t remaining_steps);

  [[nodiscard]] const ControllerConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] std::vector<ControllerCandidate> build_grid(
      Protocol current_protocol, int current_ssp_bound, bool compression_active,
      const MeasuredPhaseCosts& measured) const;

  ControllerConfig cfg_;
  CompressionSpec run_compression_;
  std::optional<RunCache> cache_;
  SweepRunner runner_;
  /// In-memory memo over RunRequest::cache_key(): repeated twin queries
  /// within one run hit warm state even with no cache_dir configured.
  /// Memoized results are bit-identical to fresh runs, so the memo can
  /// change decision latency but never a decision.
  std::unordered_map<std::string, RunResult> memo_;
};

}  // namespace ss
