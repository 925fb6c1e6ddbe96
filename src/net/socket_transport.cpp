#include "net/socket_transport.h"

#include <cstddef>
#include <string>

#include "common/error.h"

namespace ss {

SocketTransport::SocketTransport(const std::string& endpoint, AssignmentMsg& assignment)
    : sock_(connect_endpoint(endpoint)) {
  assignment = handshake();
}

SocketTransport::SocketTransport(Socket sock, AssignmentMsg& assignment)
    : sock_(std::move(sock)) {
  assignment = handshake();
}

AssignmentMsg SocketTransport::handshake() {
  const AssignmentMsg assignment =
      AssignmentMsg::decode(rpc(HelloMsg{}.encode(), MsgType::kAssignment));
  shape_ = WireShape{assignment.num_params, assignment.num_shards};
  return assignment;
}

FrameHeader SocketTransport::call(const FrameOut& request, MsgType expected) {
  send_frame(sock_, request);
  FrameHeader reply;
  if (!recv_frame_header(sock_, reply, shape_))
    throw NetError("SocketTransport: server closed the connection");
  if (reply.type == expected) return reply;
  recv_payload(sock_, reply, payload_);  // keep the stream in frame sync
  if (reply.type == MsgType::kError)
    throw NetError("ps_server: " + ErrorMsg::decode(payload_).message);
  throw NetError("SocketTransport: unexpected reply type " +
                 std::to_string(static_cast<std::uint16_t>(reply.type)));
}

std::span<const std::uint8_t> SocketTransport::rpc(const FrameOut& request, MsgType expected) {
  recv_payload(sock_, call(request, expected), payload_);
  return payload_;
}

std::span<const std::uint8_t> SocketTransport::rpc_params(const FrameOut& request,
                                                         MsgType expected,
                                                         std::span<float> out) {
  const FrameHeader reply = call(request, expected);
  // Scatter receive: the prefix into payload_, the parameters straight into
  // `out`.  A reply of any other length is still read whole, so the stream
  // stays in frame sync.
  const bool exact = out.size() == shape_.num_params &&
                     reply.payload_bytes == max_payload_bytes(expected, shape_);
  recv_payload(sock_, reply, payload_,
               exact ? std::as_writable_bytes(out) : std::span<std::byte>{});
  if (!exact)
    throw NetError(std::string("SocketTransport: ") + msg_type_name(expected) +
                   " shape mismatch");
  return payload_;
}

void SocketTransport::pull_with_versions(std::span<float> out,
                                         std::vector<std::int64_t>& versions) {
  PullReplyMsg::decode_prefix(rpc_params(FrameOut(MsgType::kPull), MsgType::kPullReply, out),
                              shape_, versions);
}

std::int64_t SocketTransport::push(std::span<const float> grad, double lr,
                                   std::span<const std::int64_t> pull_versions) {
  const PushDenseMsg msg{lr, pull_versions, grad};
  return PushReplyMsg::decode(rpc(msg.encode(), MsgType::kPushReply)).staleness;
}

std::int64_t SocketTransport::push_compressed(const CompressedPush& push, double lr,
                                              std::span<const std::int64_t> pull_versions) {
  const PushCompressedMsg msg{lr, pull_versions, push};
  return PushReplyMsg::decode(rpc(msg.encode(), MsgType::kPushReply)).staleness;
}

// The request references `versions`; it is sent whole before the reply's
// versions overwrite them.
std::int64_t SocketTransport::push_pull(std::span<const float> grad, double lr,
                                        std::span<float> out,
                                        std::vector<std::int64_t>& versions) {
  const FrameOut request = PushDenseMsg{lr, versions, grad}.encode(/*then_pull=*/true);
  return PushPullReplyMsg::decode_prefix(rpc_params(request, MsgType::kPushPullReply, out),
                                         shape_, versions);
}

std::int64_t SocketTransport::push_pull_compressed(const CompressedPush& push, double lr,
                                                   std::span<float> out,
                                                   std::vector<std::int64_t>& versions) {
  const FrameOut request = PushCompressedMsg{lr, versions, push}.encode(/*then_pull=*/true);
  return PushPullReplyMsg::decode_prefix(rpc_params(request, MsgType::kPushPullReply, out),
                                         shape_, versions);
}

bool SocketTransport::drain_arrive(std::int64_t local_steps) {
  DrainArriveMsg msg;
  msg.local_steps = local_steps;
  return DrainReleaseMsg::decode(rpc(msg.encode(), MsgType::kDrainRelease)).done;
}

void SocketTransport::bye() {
  send_frame(sock_, FrameOut(MsgType::kBye));
  sock_.close();
}

}  // namespace ss
