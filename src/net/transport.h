// The Transport seam: every call a worker step makes against a parameter
// server goes through this interface, so the same step (ps/worker_slot.h)
// runs against an in-address-space PS (threads) or a remote one (sockets,
// separate OS processes).
//
// The surface is exactly what the step needs, with the per-shard version
// semantics of SharedParameterServer (ps/param_server.h):
//
//  * `pull_with_versions` — copy the parameters and snapshot every shard's
//    version counter as it is copied (the exact staleness-accounting path).
//  * `push` / `push_compressed` — apply a dense gradient or a CompressedPush
//    against the versions observed at pull time; both return the push's
//    staleness (max updates any touched shard absorbed since the pull).
//  * `push_pull` / `push_pull_compressed` — a push followed by a pull, the
//    steady-state ASP step.  In process that is the two calls in turn; over
//    a socket it is one request and one reply instead of two of each.
//
// Checkpoints are not part of the seam, nor of any frame: every runtime
// captures and restores through the AsyncSnapshotter that owns its PS
// (elastic/async_snapshotter.h), on the PS's side of the wire.
//
// Backends:
//
//  * InProcTransport (net/inproc_transport.h) — a zero-cost forwarding shim
//    over SharedParameterServer.  The threaded runtime constructs one
//    internally, so its behaviour is bit-for-bit what it was before the
//    seam existed (the determinism and conformance suites pin this).
//  * SocketTransport (net/socket_transport.h) — the same calls serialized
//    as length-prefixed binary frames (net/frame.h) over a Unix-domain or
//    TCP socket to a PsServer hosting the shards in another OS process.
//
// Thread-safety is a property of the backend, not the interface:
// InProcTransport inherits SharedParameterServer's per-shard locking and is
// safe to share across worker threads; SocketTransport multiplexes one
// socket and is single-worker (one transport per worker process).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/compressed_push.h"

namespace ss {

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual std::size_t num_params() const = 0;
  [[nodiscard]] virtual std::size_t num_shards() const = 0;

  /// Copy the current parameters into `out` (sized num_params) and
  /// snapshot the per-shard version vector (resized to num_shards).
  virtual void pull_with_versions(std::span<float> out,
                                  std::vector<std::int64_t>& versions) = 0;

  /// Apply a full dense gradient; returns the push's staleness measured
  /// against `pull_versions` (one entry per shard).
  virtual std::int64_t push(std::span<const float> grad, double lr,
                            std::span<const std::int64_t> pull_versions) = 0;

  /// Apply a compressed push (dense quantized or sparse top-k); sparse
  /// pushes touch — and measure staleness over — only the shards owning
  /// kept coordinates.
  virtual std::int64_t push_compressed(const CompressedPush& push, double lr,
                                       std::span<const std::int64_t> pull_versions) = 0;

  /// push(`grad`, `lr`, `versions`), then pull_with_versions(`out`,
  /// `versions`): `versions` holds the last pull's versions on entry and
  /// the new pull's on return.  Returns the push's staleness.
  virtual std::int64_t push_pull(std::span<const float> grad, double lr, std::span<float> out,
                                 std::vector<std::int64_t>& versions) = 0;

  /// push_pull with a compressed push.
  virtual std::int64_t push_pull_compressed(const CompressedPush& push, double lr,
                                            std::span<float> out,
                                            std::vector<std::int64_t>& versions) = 0;
};

}  // namespace ss
