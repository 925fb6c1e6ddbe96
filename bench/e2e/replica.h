// Replica worker loop: the benchmark's own copy of an ASP worker step
// (pull -> batch -> gradient -> encode -> push), driven through the public
// Transport seam and timed layer by layer from outside the program.
//
// Every call into a layer is wrapped in a span on the global wall tracer
// (track 100 + worker, args = worker and step):
//
//   bench.step        one whole step; the parent of the spans below
//   data.batch        sampler + gather
//   nn.grad           Model::gradient_at
//   compress.encode   CompressorBank::encode (codec runs only)
//   ps.pull / ps.push      InProcTransport calls
//   net.pull / net.push    SocketTransport calls (one frame pair each)
//
// The worker's loop time minus its layer spans is the residual: time the
// breakdown does not attribute to any layer (loop and span bookkeeping).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compress/spec.h"
#include "data/dataset.h"
#include "net/ps_server.h"
#include "nn/model.h"

namespace e2e {

/// Per-layer busy time summed over every replica step of every worker.
struct LayerTotals {
  std::int64_t steps = 0;
  double wall_s = 0.0;  ///< each worker's whole loop, start to end
  double batch_s = 0.0;
  double grad_s = 0.0;
  double encode_s = 0.0;
  double pull_s = 0.0;
  double push_s = 0.0;

  LayerTotals& operator+=(const LayerTotals& o);
  /// Mean microseconds per step of a layer total.
  [[nodiscard]] double us(double total_s) const;
  /// Loop time no layer span covers, as a share of the loop time.
  [[nodiscard]] double residual_share() const;
};

struct ReplicaResult {
  LayerTotals totals;
  std::vector<std::string> failures;  ///< correctness gates that failed
};

/// One socket deployment: the server's result and its two wall times.
struct Served {
  ss::PsServerResult result;
  double listen_s = 0.0;  ///< run_ps_server start -> listening (server set-up)
  double run_s = 0.0;     ///< listening -> server returned (training + final eval)
};

/// Run run_ps_server(`cfg`) on a thread, wait until it listens, then run
/// `worker(endpoint, i)` for i < cfg.num_workers, one thread each.  Joins
/// every thread and rethrows the first failure.
Served serve(ss::PsServerConfig cfg,
             const std::function<void(const std::string& endpoint, std::size_t i)>& worker);

/// `workers` threads train `prototype` ASP-style against one in-process
/// SharedParameterServer with `shards` shards, `steps` steps each.
[[nodiscard]] ReplicaResult replica_inproc(const ss::Model& prototype, const ss::Dataset& train,
                                           std::size_t workers, std::int64_t steps,
                                           std::size_t batch, double lr, std::size_t shards,
                                           const ss::CompressionSpec& compression,
                                           std::uint64_t seed, int first_track);

/// serve() `server` with `server.num_workers` replica workers connected over
/// SocketTransport.  `train` and `prototype` must be the dataset and model
/// the server's config describes.
[[nodiscard]] ReplicaResult replica_socket(ss::PsServerConfig server, const ss::Model& prototype,
                                           const ss::Dataset& train, int first_track);

}  // namespace e2e
