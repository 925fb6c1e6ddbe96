// Cluster cost model: how long compute, communication and synchronization
// take on the simulated GPU cluster.
//
// The model mirrors the paper's testbed (Section VI-A): n GCP nodes, one
// K80-class GPU each, parameter servers collocated with workers.  Costs:
//
//   worker task   = pull + compute + push            (paper Fig. 3)
//   BSP step      = max over workers(task) + sync_overhead(n)
//   ASP cycle     = task + async apply
//
// sync_overhead models the barrier: gradient gather/aggregate/broadcast
// through the collocated PS shards.  It grows superlinearly with cluster
// size (incast congestion at the PSs), which is what makes BSP's per-step
// cost at n=16 disproportionately worse — the effect behind the paper's
// Figure 13/Table I setup-3 numbers.  Constants are calibrated in
// bench/setups.h so the BSP:ASP ratios match the paper's (see
// EXPERIMENTS.md).
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "common/vtime.h"

namespace ss {

/// Static description of the simulated cluster + workload cost inputs.
struct ClusterSpec {
  std::size_t num_workers = 8;

  /// Parameter-server shards the vector is partitioned across (collocated
  /// with workers, as in the paper's testbed).  Pulls and pushes fan out to
  /// every shard in parallel: each leg carries payload_bytes / num_ps_shards
  /// and the worker pays `shard_issue_overhead` to issue each extra request.
  /// 1 (the default) reproduces the historical single-server pricing bit for
  /// bit.  Also the shard count the session builds the SharedParameterServer with.
  std::size_t num_ps_shards = 1;

  /// Per-extra-shard request issue cost on the worker (serialization of the
  /// RPC sends; the transfers themselves overlap).
  VTime shard_issue_overhead = VTime::from_us(50.0);

  /// Virtual per-batch GPU compute time for this workload (mean) at the
  /// reference batch size.  Stands in for "ResNet32 on a K80 with batch B"
  /// style numbers; actual compute scales with batch / reference_batch.
  VTime compute_per_batch = VTime::from_ms(120.0);

  /// Batch size `compute_per_batch` refers to.
  std::size_t reference_batch = 64;

  /// Lognormal sigma of per-step compute jitter (multiplicative, mean 1).
  double compute_jitter_sigma = 0.12;

  /// One-way network latency per transfer.
  VTime net_latency = VTime::from_ms(2.0);

  /// Model size on the wire, bytes (parameters ~= gradients).
  double payload_bytes = 4.0 * 13000;

  /// Network bandwidth, bytes/second.
  double bandwidth_bps = 100.0 * 1024 * 1024;

  /// Barrier overhead = sync_base + sync_quad * n^2.
  VTime sync_base = VTime::from_ms(280.0);
  VTime sync_quad = VTime::from_ms(6.5);

  /// PS-side apply cost for one asynchronous update.
  VTime async_apply = VTime::from_ms(1.0);

  /// Elastic membership pricing (src/elastic/): fixed hand-off cost of
  /// integrating a newly provisioned node at a join event.  The VM itself
  /// is provisioned in the background (as in the replacement policy's
  /// ~100 s), so what the running job pays is the barrier-group
  /// reconfiguration + session hand-shake; the joining node's initial
  /// full-parameter pull is priced on top via `join_time()`.
  VTime join_provision = VTime::from_seconds(8.0);
};

/// Per-(worker, step) sampled durations.
class ClusterModel {
 public:
  explicit ClusterModel(ClusterSpec spec);

  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }

  /// One parameter pull or gradient push (they are symmetric), given the
  /// multiplicative slowdown currently applied to this worker (1.0 = none).
  [[nodiscard]] VTime transfer_time(double slow_factor) const noexcept;

  /// A transfer of `bytes` on the wire (gradient compression shrinks the
  /// push below `payload_bytes`; the pull stays full-size).  With S PS
  /// shards the payload is striped: the worker issues S requests
  /// (shard_issue_overhead each beyond the first) whose bytes/S legs overlap
  /// on the wire, so large-model transfers shrink toward bytes/(S*bandwidth)
  /// while small ones are dominated by the issue cost.
  [[nodiscard]] VTime transfer_time(double slow_factor, double bytes) const noexcept;

  /// A point-to-point transfer of `bytes` that does NOT traverse the
  /// parameter server (e.g. the group runtime's cross-group delta
  /// broadcasts): latency + bytes/bandwidth, independent of num_ps_shards.
  [[nodiscard]] VTime link_transfer_time(double slow_factor, double bytes) const noexcept;

  /// Forward+backward compute for one minibatch of `batch` examples, with
  /// jitter.  Cost scales linearly with batch / reference_batch.
  [[nodiscard]] VTime compute_time(Rng& rng, double slow_factor, std::size_t batch) const noexcept;

  /// Full worker task: pull + compute + push.
  [[nodiscard]] VTime task_time(Rng& rng, double slow_factor, std::size_t batch) const noexcept;

  /// Barrier overhead for `n` participating workers.
  [[nodiscard]] VTime sync_overhead(std::size_t n) const noexcept;

  /// Virtual-time cost of integrating a joining node: the re-provision
  /// hand-off (ClusterSpec::join_provision) plus the node's initial
  /// full-parameter pull from the PS shards.
  [[nodiscard]] VTime join_time() const noexcept;

  /// Crash recovery: streaming the last asynchronous snapshot (parameters +
  /// optimizer velocity, i.e. 2x payload_bytes) back into the PS shards.
  /// The barrier-group reconfiguration itself is priced by the caller via
  /// the actuator's resize_time.
  [[nodiscard]] VTime recovery_restore_time() const noexcept;

  /// Expected (jitter-free) worker cycle for a batch: pull + compute + push.
  /// Used to stagger asynchronous worker start-ups over one cycle.
  [[nodiscard]] VTime mean_cycle(std::size_t batch) const noexcept;

 private:
  ClusterSpec spec_;
};

}  // namespace ss
