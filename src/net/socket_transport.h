// Socket-backed Transport: the worker side of the multi-process deployment.
//
// One SocketTransport is one worker's connection to the PsServer.  The
// constructor performs the Hello handshake and returns the server-owned run
// configuration (AssignmentMsg), after which every call maps 1:1 onto a
// request/reply frame pair:
//
//   pull_with_versions    ->  kPull               / kPullReply
//   push                  ->  kPushDense          / kPushReply
//   push_compressed       ->  kPushCompressed     / kPushReply
//   push_pull             ->  kPushPullDense      / kPushPullReply
//   push_pull_compressed  ->  kPushPullCompressed / kPushPullReply
//   drain_arrive          ->  kDrainArrive        / kDrainRelease
//   bye                   ->  kBye
//
// The first five are the Transport seam a WorkerSlot steps against; the
// push_pull pair is its steady-state step, one exchange where a push and a
// pull would take two.  The other two are calls the seam does not carry:
// drain_arrive blocks until the server releases the barrier, and bye is
// the clean leave (an abrupt close instead is exactly what the server's
// eviction path handles).  A worker cannot capture or restore the server's
// PS: snapshots stay inside the server.
//
// The dense data plane is copy-free: a push sends the caller's gradient in
// place, and a pull (or a push_pull's reply) receives the parameters
// straight into the caller's span, with only the small prefix staged in a
// reused buffer.
//
// A kError reply, a malformed frame, or a lost connection all throw
// NetError.  Not thread-safe: one transport per worker process/thread — the
// wire protocol is strictly request/reply per connection.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"

namespace ss {

class SocketTransport final : public Transport {
 public:
  /// Connect to a PsServer and run the Hello handshake; `assignment`
  /// receives the slot + run configuration the server owns.
  SocketTransport(const std::string& endpoint, AssignmentMsg& assignment);

  /// Wrap an already-connected socket (tests).  `assignment` as above.
  SocketTransport(Socket sock, AssignmentMsg& assignment);

  [[nodiscard]] std::size_t num_params() const override { return shape_.num_params; }
  [[nodiscard]] std::size_t num_shards() const override { return shape_.num_shards; }

  void pull_with_versions(std::span<float> out,
                          std::vector<std::int64_t>& versions) override;
  std::int64_t push(std::span<const float> grad, double lr,
                    std::span<const std::int64_t> pull_versions) override;
  std::int64_t push_compressed(const CompressedPush& push, double lr,
                               std::span<const std::int64_t> pull_versions) override;
  std::int64_t push_pull(std::span<const float> grad, double lr, std::span<float> out,
                         std::vector<std::int64_t>& versions) override;
  std::int64_t push_pull_compressed(const CompressedPush& push, double lr, std::span<float> out,
                                    std::vector<std::int64_t>& versions) override;

  /// Announce quiescence after `local_steps` steps and block until every
  /// alive worker has arrived.  Returns true when the run is over.
  [[nodiscard]] bool drain_arrive(std::int64_t local_steps);

  /// Clean leave.  After bye() the transport is closed.
  void bye();

 private:
  AssignmentMsg handshake();
  /// Send `request` and read the reply's header, requiring `expected` as
  /// its type; a kError reply is read and rethrown as NetError.
  FrameHeader call(const FrameOut& request, MsgType expected);
  /// call() and read the whole reply payload (valid until the next call).
  std::span<const std::uint8_t> rpc(const FrameOut& request, MsgType expected);
  /// call() for a reply that ends in the parameters (PullReply,
  /// PushPullReply: exactly their bound long), the parameters received
  /// straight into `out`.  Returns the prefix before them (valid until the
  /// next call).
  std::span<const std::uint8_t> rpc_params(const FrameOut& request, MsgType expected,
                                           std::span<float> out);

  Socket sock_;
  WireShape shape_;
  std::vector<std::uint8_t> payload_;  ///< reply payloads and dense prefixes
};

}  // namespace ss
