#include "net/frame.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/socket.h"
#include "obs/obs.h"

namespace ss {
namespace {

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) throw std::runtime_error("socketpair");
  return {Socket(fds[0]), Socket(fds[1])};
}

/// The frame's bytes concatenated in wire order, without touching a socket.
std::vector<std::uint8_t> flatten(const FrameOut& f) {
  FrameOut::Parts parts;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0, n = f.gather(parts); i < n; ++i)
    out.insert(out.end(), parts[i].begin(), parts[i].end());
  return out;
}

std::vector<std::uint8_t> payload_of(const FrameOut& f) {
  std::vector<std::uint8_t> bytes = flatten(f);
  bytes.erase(bytes.begin(), bytes.begin() + kFrameHeaderBytes);
  return bytes;
}

/// What send_frame actually writes into a socketpair: exactly header +
/// payload bytes, followed by EOF once the sender closes.
std::vector<std::uint8_t> sent_bytes(const FrameOut& f) {
  auto [tx, rx] = socket_pair();
  std::vector<std::uint8_t> out(kFrameHeaderBytes + f.payload_bytes());
  std::thread reader([&, &rx = rx] { (void)rx.recv_all(out.data(), out.size(), false); });
  send_frame(tx, f);
  reader.join();
  tx.close();
  std::uint8_t extra = 0;
  EXPECT_FALSE(rx.recv_all(&extra, 1, /*eof_ok=*/true)) << "bytes past the frame";
  return out;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : bytes) {
    s += digits[b >> 4];
    s += digits[b & 0xF];
  }
  return s;
}

/// Send `f` into a socketpair and receive it back as a whole Frame.
Frame loop_back(const FrameOut& f, const WireShape& shape = {}) {
  auto [tx, rx] = socket_pair();
  send_frame(tx, f);
  Frame back;
  EXPECT_TRUE(recv_frame(rx, back, shape));
  EXPECT_EQ(back.type, f.type());
  return back;
}

// ---------------------------------------------------------------------------
// Wire-format pins: for every message type, the bytes the gather send writes
// equal the bytes the copy-through encoder wrote before it (recorded from
// that encoder).  The wire format is kFrameVersion 1 and must not drift.
// ---------------------------------------------------------------------------

AssignmentMsg pinned_assignment() {
  AssignmentMsg a;
  a.worker = 1;
  a.num_workers = 3;
  a.num_params = 102500;
  a.num_shards = 2;
  a.steps_per_worker = 1000;
  a.batch_size = 2;
  a.lr = 0.01;
  a.momentum = 0.9;
  a.seed = 8;
  a.arch = ModelArch::kLinear;
  a.compression = CompressionSpec::topk(0.01);
  a.data = SyntheticSpec::cifar100_like();
  return a;
}

TEST(NetFrame, EveryMessageTypeMatchesItsPinnedWireBytes) {
  const std::vector<std::int64_t> versions{5, 6};
  const std::vector<float> floats{1.5f, -2.0f, 0.25f};
  CompressedPush sparse;
  sparse.format = CompressedPush::Format::kSparse;
  sparse.num_params = 100;
  sparse.wire_size = 16;
  sparse.values = {0.5f, -0.5f};
  sparse.indices = {7, 42};
  CompressedPush dense;
  dense.format = CompressedPush::Format::kDense;
  dense.num_params = 3;
  dense.wire_size = 6;
  dense.values = {1.0f, 0.0f, -1.0f};
  const std::vector<std::int64_t> one_version{3};
  PushReplyMsg push_reply;
  push_reply.staleness = 3;
  DrainArriveMsg drain_arrive;
  drain_arrive.local_steps = 1000;
  ErrorMsg error;
  error.message = "boom";

  struct Pin {
    const char* name;
    FrameOut frame;
    const char* hex;
  };
  const std::vector<Pin> pins = {
      {"Hello", HelloMsg{}.encode(), "524653530100010002000000000000000100"},
      {"Assignment", pinned_assignment().encode(),
       "52465353010002009a0000000000000001000000030000000000000064900100000000000200000000000000"
       "e80300000000000002000000000000007b14ae47e17a843fcdccccccccccec3f080000000000000002017b14"
       "ae47e17a843f0f000000000000000000044064000000600000000000000000400000000000000010000000"
       "000000020000009a9999999999e93f000000000000f03f7b14ae47e17aa43f2e16000000000000"},
      {"Pull", FrameOut(MsgType::kPull), "52465353010003000000000000000000"},
      {"PullReply", PullReplyMsg{versions, floats}.encode(),
       "52465353010004002c000000000000000200000000000000050000000000000006000000000000000300"
       "0000000000000000c03f000000c00000803e"},
      {"PushDense", PushDenseMsg{0.01, versions, floats}.encode(),
       "524653530100050034000000000000007b14ae47e17a843f020000000000000005000000000000000600"
       "0000000000000300000000000000" "0000c03f000000c00000803e"},
      {"PushCompressed sparse", PushCompressedMsg{0.01, versions, sparse}.encode(),
       "524653530100060051000000000000007b14ae47e17a843f020000000000000005000000000000000600"
       "000000000000016400000000000000100000000000000002000000000000000000003f000000bf02000000"
       "00000000070000002a000000"},
      {"PushCompressed dense", PushCompressedMsg{0.02, one_version, dense}.encode(),
       "524653530100060045000000000000007b14ae47e17a943f0100000000000000030000000000000000030000"
       "0000000000060000000000000003000000000000000000803f00000000000080bf0000000000000000"},
      {"PushReply", push_reply.encode(), "524653530100070008000000000000000300000000000000"},
      {"DrainArrive", drain_arrive.encode(), "52465353010008000800000000000000e803000000000000"},
      {"DrainRelease", DrainReleaseMsg{}.encode(), "5246535301000900010000000000000001"},
      {"Ok", FrameOut(MsgType::kOk), "5246535301000f000000000000000000"},
      {"Bye", FrameOut(MsgType::kBye), "52465353010010000000000000000000"},
      {"Error", error.encode(), "52465353010011000c000000000000000400000000000000626f6f6d"},
      // The push-and-pull types, new in the same version: each request is
      // its push's payload under its own type, the reply a staleness ahead
      // of the PullReply layout.
      {"PushPullDense", PushDenseMsg{0.01, versions, floats}.encode(/*then_pull=*/true),
       "524653530100120034000000000000007b14ae47e17a843f020000000000000005000000000000000600"
       "0000000000000300000000000000" "0000c03f000000c00000803e"},
      {"PushPullCompressed sparse",
       PushCompressedMsg{0.01, versions, sparse}.encode(/*then_pull=*/true),
       "524653530100130051000000000000007b14ae47e17a843f020000000000000005000000000000000600"
       "000000000000016400000000000000100000000000000002000000000000000000003f000000bf02000000"
       "00000000070000002a000000"},
      {"PushPullReply", PushPullReplyMsg{3, versions, floats}.encode(),
       "524653530100140034000000000000000300000000000000020000000000000005000000000000000600"
       "00000000000003000000000000000000c03f000000c00000803e"},
  };
  std::vector<bool> covered(static_cast<std::size_t>(kLastMsgType) + 1, false);
  for (const Pin& p : pins) {
    EXPECT_EQ(hex(sent_bytes(p.frame)), p.hex) << p.name;
    covered[static_cast<std::size_t>(p.frame.type())] = true;
  }
  for (const std::uint16_t t : kRetiredMsgTypes) covered[t] = true;  // no message to pin
  for (auto t = static_cast<std::size_t>(MsgType::kHello); t < covered.size(); ++t)
    EXPECT_TRUE(covered[t]) << "no pin for " << msg_type_name(static_cast<MsgType>(t));
}

TEST(NetFrame, DenseUpdateOfTheSocketBenchShapeIs820128Bytes) {
  // One ASP update as two exchanges on the wire: Pull, PullReply,
  // PushDense, PushReply, for the 102,500-parameter single-shard model of
  // the socket benchmark.
  const WireShape shape{102500, 1};
  const std::vector<float> p(shape.num_params, 0.5f);
  const std::vector<std::int64_t> v{9};
  const FrameOut pull_reply = PullReplyMsg{v, p}.encode();
  const FrameOut push = PushDenseMsg{0.01, v, p}.encode();
  EXPECT_EQ(pull_reply.payload_bytes(), pull_reply_bytes(shape));
  EXPECT_EQ(push.payload_bytes(), push_dense_bytes(shape));
  const std::uint64_t update = kFrameHeaderBytes * 4 + FrameOut(MsgType::kPull).payload_bytes() +
                               pull_reply.payload_bytes() + push.payload_bytes() +
                               PushReplyMsg{}.encode().payload_bytes();
  EXPECT_EQ(update, 820128u);
}

TEST(NetFrame, FusedDenseUpdateOfTheSocketBenchShapeIs820096Bytes) {
  // The same update as one exchange: a PushPullDense and its PushPullReply.
  // The 16-byte Pull and the 24-byte PushReply go; the reply gains the
  // 8-byte staleness.
  const WireShape shape{102500, 1};
  const std::vector<float> p(shape.num_params, 0.5f);
  const std::vector<std::int64_t> v{9};
  const FrameOut request = PushDenseMsg{0.01, v, p}.encode(/*then_pull=*/true);
  const FrameOut reply = PushPullReplyMsg{0, v, p}.encode();
  EXPECT_EQ(request.payload_bytes(), push_dense_bytes(shape));
  EXPECT_EQ(reply.payload_bytes(), max_payload_bytes(MsgType::kPushPullReply, shape));
  EXPECT_EQ(kFrameHeaderBytes * 2 + request.payload_bytes() + reply.payload_bytes(), 820096u);
}

TEST(NetFrame, PushPullRequestsCarryTheirPushPayloadVerbatim) {
  const std::vector<std::int64_t> versions{5, 6, 7};
  const std::vector<float> grad{1.5f, -2.5f, 0.0f, 99.0f};
  const PushDenseMsg dense{0.25, versions, grad};
  EXPECT_EQ(dense.encode(/*then_pull=*/true).type(), MsgType::kPushPullDense);
  EXPECT_EQ(payload_of(dense.encode(/*then_pull=*/true)), payload_of(dense.encode()));
  CompressedPush sparse;
  sparse.format = CompressedPush::Format::kSparse;
  sparse.num_params = 4;
  sparse.wire_size = 8;
  sparse.values = {0.5f};
  sparse.indices = {2};
  const PushCompressedMsg compressed{0.5, versions, sparse};
  EXPECT_EQ(compressed.encode(/*then_pull=*/true).type(), MsgType::kPushPullCompressed);
  EXPECT_EQ(payload_of(compressed.encode(/*then_pull=*/true)), payload_of(compressed.encode()));
}

TEST(NetFrame, BulkArraysAreReferencedNotCopied) {
  const std::vector<float> grad(4096, 1.0f);
  const std::vector<std::int64_t> versions{1, 2, 3};
  const FrameOut f = PushDenseMsg{0.1, versions, grad}.encode();
  FrameOut::Parts parts;
  const std::size_t n = f.gather(parts);
  // header+lr+count | versions | count | grad
  ASSERT_EQ(n, 4u);
  EXPECT_EQ(parts[1].data(), reinterpret_cast<const std::uint8_t*>(versions.data()));
  EXPECT_EQ(parts[3].data(), reinterpret_cast<const std::uint8_t*>(grad.data()));
  EXPECT_EQ(parts[3].size(), grad.size() * sizeof(float));
  // A copy of the frame stages its own scalars but still references the
  // caller's arrays.
  const FrameOut copy = f;
  EXPECT_EQ(flatten(copy), flatten(f));
}

// ---------------------------------------------------------------------------
// Round trips through a socketpair: send_frame, then recv_frame (or the
// scatter receive) and the decoder.  Fields use distinct, non-default values
// so a swapped or skipped field cannot round-trip by accident.
// ---------------------------------------------------------------------------

TEST(NetFrame, HelloRoundTrips) {
  HelloMsg m;
  m.protocol_version = 7;
  EXPECT_EQ(HelloMsg::decode(loop_back(m.encode()).payload).protocol_version, 7);
}

TEST(NetFrame, AssignmentRoundTrips) {
  AssignmentMsg m;
  m.worker = 3;
  m.num_workers = 5;
  m.num_params = 1234;
  m.num_shards = 4;
  m.steps_per_worker = 777;
  m.batch_size = 48;
  m.lr = 0.125;
  m.momentum = 0.875;
  m.seed = 424242;
  m.arch = ModelArch::kResNet32Lite;
  m.compression = CompressionSpec::topk(0.05);
  m.data = SyntheticSpec::cifar100_like();
  const AssignmentMsg b = AssignmentMsg::decode(loop_back(m.encode()).payload);
  EXPECT_EQ(b.worker, m.worker);
  EXPECT_EQ(b.num_workers, m.num_workers);
  EXPECT_EQ(b.num_params, m.num_params);
  EXPECT_EQ(b.num_shards, m.num_shards);
  EXPECT_EQ(b.steps_per_worker, m.steps_per_worker);
  EXPECT_EQ(b.batch_size, m.batch_size);
  EXPECT_DOUBLE_EQ(b.lr, m.lr);
  EXPECT_DOUBLE_EQ(b.momentum, m.momentum);
  EXPECT_EQ(b.seed, m.seed);
  EXPECT_EQ(b.arch, m.arch);
  EXPECT_EQ(b.compression.kind, CodecKind::kTopK);
  EXPECT_DOUBLE_EQ(b.compression.topk_fraction, 0.05);
  EXPECT_EQ(b.data.num_classes, m.data.num_classes);
  EXPECT_EQ(b.data.feature_dim, m.data.feature_dim);
  EXPECT_EQ(b.data.train_size, m.data.train_size);
  EXPECT_EQ(b.data.test_size, m.data.test_size);
  EXPECT_EQ(b.data.modes_per_class, m.data.modes_per_class);
  EXPECT_DOUBLE_EQ(b.data.class_separation, m.data.class_separation);
  EXPECT_DOUBLE_EQ(b.data.within_stddev, m.data.within_stddev);
  EXPECT_DOUBLE_EQ(b.data.label_noise, m.data.label_noise);
  EXPECT_EQ(b.data.seed, m.data.seed);
}

TEST(NetFrame, DenseFramesScatterIntoTheirDestination) {
  const WireShape shape{4, 3};
  const std::vector<std::int64_t> versions{5, 6, 7};
  const std::vector<float> params{1.5f, -2.5f, 0.0f, 99.0f};
  auto [tx, rx] = socket_pair();

  send_frame(tx, PullReplyMsg{versions, params}.encode());
  FrameHeader h;
  ASSERT_TRUE(recv_frame_header(rx, h, shape));
  EXPECT_EQ(h.type, MsgType::kPullReply);
  ASSERT_EQ(h.payload_bytes, pull_reply_bytes(shape));
  std::vector<float> dest(shape.num_params);
  std::vector<std::uint8_t> prefix;
  recv_payload(rx, h, prefix, std::as_writable_bytes(std::span(dest)));
  std::vector<std::int64_t> got;
  PullReplyMsg::decode_prefix(prefix, shape, got);
  EXPECT_EQ(got, versions);
  EXPECT_EQ(dest, params);

  send_frame(tx, PushDenseMsg{0.03, versions, params}.encode());
  ASSERT_TRUE(recv_frame_header(rx, h, shape));
  ASSERT_EQ(h.payload_bytes, push_dense_bytes(shape));
  std::fill(dest.begin(), dest.end(), 0.0f);
  recv_payload(rx, h, prefix, std::as_writable_bytes(std::span(dest)));
  EXPECT_DOUBLE_EQ(PushDenseMsg::decode_prefix(prefix, shape, got), 0.03);
  EXPECT_EQ(got, versions);
  EXPECT_EQ(dest, params);

  send_frame(tx, PushDenseMsg{0.04, versions, params}.encode(/*then_pull=*/true));
  ASSERT_TRUE(recv_frame_header(rx, h, shape));
  EXPECT_EQ(h.type, MsgType::kPushPullDense);
  ASSERT_EQ(h.payload_bytes, push_dense_bytes(shape));
  std::fill(dest.begin(), dest.end(), 0.0f);
  recv_payload(rx, h, prefix, std::as_writable_bytes(std::span(dest)));
  EXPECT_DOUBLE_EQ(PushDenseMsg::decode_prefix(prefix, shape, got), 0.04);
  EXPECT_EQ(got, versions);
  EXPECT_EQ(dest, params);

  send_frame(tx, PushPullReplyMsg{-4, versions, params}.encode());
  ASSERT_TRUE(recv_frame_header(rx, h, shape));
  EXPECT_EQ(h.type, MsgType::kPushPullReply);
  ASSERT_EQ(h.payload_bytes, max_payload_bytes(MsgType::kPushPullReply, shape));
  std::fill(dest.begin(), dest.end(), 0.0f);
  got.clear();
  recv_payload(rx, h, prefix, std::as_writable_bytes(std::span(dest)));
  EXPECT_EQ(PushPullReplyMsg::decode_prefix(prefix, shape, got), -4);
  EXPECT_EQ(got, versions);
  EXPECT_EQ(dest, params);
}

TEST(NetFrame, PushCompressedRoundTrips) {
  const std::vector<std::int64_t> versions{1, 2};
  CompressedPush sparse;
  sparse.format = CompressedPush::Format::kSparse;
  sparse.num_params = 100;
  sparse.wire_size = 16;
  sparse.values = {0.5f, -0.5f};
  sparse.indices = {7, 42};
  const WireShape shape{100, 2};
  std::vector<std::int64_t> got_versions;
  CompressedPush got;
  for (const bool then_pull : {false, true}) {
    got = CompressedPush{};
    got_versions.clear();
    EXPECT_DOUBLE_EQ(
        PushCompressedMsg::decode(
            loop_back(PushCompressedMsg{0.01, versions, sparse}.encode(then_pull), shape).payload,
            got_versions, got)
            .lr,
        0.01);
    EXPECT_EQ(got_versions, versions);
    EXPECT_EQ(got.format, CompressedPush::Format::kSparse);
    EXPECT_EQ(got.num_params, 100u);
    EXPECT_EQ(got.wire_size, 16u);
    EXPECT_EQ(got.indices, sparse.indices);
    EXPECT_EQ(got.values, sparse.values);
  }

  CompressedPush dense;
  dense.format = CompressedPush::Format::kDense;
  dense.num_params = 4;
  dense.wire_size = 6;
  dense.values = {1.0f, 0.0f, -1.0f, 2.0f};
  (void)PushCompressedMsg::decode(payload_of(PushCompressedMsg{0.02, versions, dense}.encode()),
                                  got_versions, got);
  EXPECT_EQ(got.format, CompressedPush::Format::kDense);
  EXPECT_EQ(got.values, dense.values);
  EXPECT_TRUE(got.indices.empty());
}

TEST(NetFrame, SmallMessagesRoundTrip) {
  PushReplyMsg pr;
  pr.staleness = -3;
  EXPECT_EQ(PushReplyMsg::decode(loop_back(pr.encode()).payload).staleness, -3);

  DrainArriveMsg da;
  da.local_steps = 512;
  EXPECT_EQ(DrainArriveMsg::decode(loop_back(da.encode()).payload).local_steps, 512);

  DrainReleaseMsg dr;
  dr.done = false;
  EXPECT_FALSE(DrainReleaseMsg::decode(loop_back(dr.encode()).payload).done);

  ErrorMsg em;
  em.message = "shard layout mismatch";
  EXPECT_EQ(ErrorMsg::decode(loop_back(em.encode()).payload).message, em.message);

  EXPECT_TRUE(loop_back(FrameOut(MsgType::kBye)).payload.empty());
}

TEST(NetFrame, FixedLayoutBoundsEqualTheEncodedLengths) {
  const WireShape shape{10, 2};
  EXPECT_EQ(max_payload_bytes(MsgType::kHello, shape), HelloMsg{}.encode().payload_bytes());
  EXPECT_EQ(max_payload_bytes(MsgType::kAssignment, shape),
            AssignmentMsg{}.encode().payload_bytes());
  EXPECT_EQ(max_payload_bytes(MsgType::kPushReply, shape), PushReplyMsg{}.encode().payload_bytes());
  EXPECT_EQ(max_payload_bytes(MsgType::kDrainArrive, shape),
            DrainArriveMsg{}.encode().payload_bytes());
  EXPECT_EQ(max_payload_bytes(MsgType::kDrainRelease, shape),
            DrainReleaseMsg{}.encode().payload_bytes());
  for (const MsgType t : {MsgType::kPull, MsgType::kOk, MsgType::kBye})
    EXPECT_EQ(max_payload_bytes(t, shape), 0u) << msg_type_name(t);

  // The compressed bound is a sparse push that keeps every coordinate.
  const std::vector<std::int64_t> versions(shape.num_shards, 0);
  CompressedPush all;
  all.format = CompressedPush::Format::kSparse;
  all.num_params = shape.num_params;
  all.values.assign(shape.num_params, 1.0f);
  for (std::uint32_t i = 0; i < shape.num_params; ++i) all.indices.push_back(i);
  const FrameOut all_kept = PushCompressedMsg{0.1, versions, all}.encode();
  EXPECT_EQ(max_payload_bytes(MsgType::kPushCompressed, shape), all_kept.payload_bytes());
  EXPECT_EQ(max_payload_bytes(MsgType::kPushPullCompressed, shape), all_kept.payload_bytes());

  // The dense frames are exactly their bound.
  const std::vector<float> floats(shape.num_params, 1.0f);
  const PushDenseMsg dense{0.1, versions, floats};
  const PushPullReplyMsg reply{0, versions, floats};
  EXPECT_EQ(max_payload_bytes(MsgType::kPushPullDense, shape),
            dense.encode(/*then_pull=*/true).payload_bytes());
  EXPECT_EQ(max_payload_bytes(MsgType::kPushPullReply, shape), reply.encode().payload_bytes());
}

// ---------------------------------------------------------------------------
// Malformed frames on the socket: every corruption ends in a typed NetError
// whose message names the failure — never a crash, never a silently-wrong
// value.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> valid_frame_bytes() {
  PushReplyMsg m;
  m.staleness = 1;
  return flatten(m.encode());
}

struct MalformedCase {
  const char* name;
  std::vector<std::uint8_t> bytes;
  const char* expect_substr;
};

std::vector<MalformedCase> malformed_cases() {
  std::vector<MalformedCase> cases;
  auto patched = [](std::size_t at, const void* src, std::size_t n) {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    std::memcpy(b.data() + at, src, n);
    return b;
  };
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b.resize(kFrameHeaderBytes - 3);  // header cut short by a closed peer
    cases.push_back({"truncated_header", std::move(b), "closed mid-message"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b[0] ^= 0xFF;
    cases.push_back({"bad_magic", std::move(b), "bad magic"});
  }
  const std::uint16_t version42 = 42;
  cases.push_back({"bad_version", patched(4, &version42, 2), "unsupported protocol version"});
  const std::uint16_t type_ee = 0xEE;  // past the last type
  cases.push_back({"unknown_type", patched(6, &type_ee, 2), "unknown message type"});
  const std::uint16_t type_21 = 21;  // the first value past kPushPullReply
  cases.push_back({"first_unused_type", patched(6, &type_21, 2), "unknown message type"});
  const std::uint16_t type_zero = 0;  // below kHello
  cases.push_back({"zero_type", patched(6, &type_zero, 2), "unknown message type"});
  // Retired values are never reused: the remote checkpoint/restore RPC
  // (10-12; a peer must not be able to overwrite the PS) and the scalar
  // version query and reply (13, 14).
  static constexpr std::uint16_t retired[] = {10, 11, 12, 13, 14};
  cases.push_back({"retired_type_10", patched(6, &retired[0], 2), "unknown message type"});
  cases.push_back({"retired_type_11", patched(6, &retired[1], 2), "unknown message type"});
  cases.push_back({"retired_type_12", patched(6, &retired[2], 2), "unknown message type"});
  cases.push_back({"retired_type_13", patched(6, &retired[3], 2), "unknown message type"});
  cases.push_back({"retired_type_14", patched(6, &retired[4], 2), "unknown message type"});
  const std::uint64_t huge = kMaxFramePayload + 1;
  cases.push_back({"length_past_global_cap", patched(8, &huge, 8), "-byte cap"});
  const std::uint64_t nine = 9;  // PushReply is exactly 8 bytes
  cases.push_back({"length_past_type_bound", patched(8, &nine, 8), "exceeds its 8-byte bound"});
  {
    // An Error header one byte past its bound, with no payload behind it:
    // refused from the header alone, not after waiting on the payload.
    std::vector<std::uint8_t> b = flatten(FrameOut(MsgType::kError));
    const std::uint64_t past = 8 + kMaxErrorMessageBytes + 1;
    std::memcpy(b.data() + 8, &past, sizeof(past));
    cases.push_back({"error_past_its_bound", std::move(b), "exceeds its 4104-byte bound"});
  }
  // The push-and-pull types, one byte past their bounds for the (empty)
  // shape the receiver holds, with no payload behind them: refused from the
  // header alone.  The dense request and the reply have one exact length,
  // so this is also the smallest wrong length a receiver cannot read whole.
  const struct {
    const char* name;
    MsgType type;
    const char* bound;
  } fused[] = {
      {"push_pull_dense_past_its_bound", MsgType::kPushPullDense, "exceeds its 24-byte bound"},
      {"push_pull_compressed_past_its_bound", MsgType::kPushPullCompressed,
       "exceeds its 49-byte bound"},
      {"push_pull_reply_past_its_bound", MsgType::kPushPullReply, "exceeds its 24-byte bound"},
  };
  for (const auto& f : fused) {
    std::vector<std::uint8_t> b = flatten(FrameOut(f.type));
    const std::uint64_t past = max_payload_bytes(f.type, WireShape{}) + 1;
    std::memcpy(b.data() + 8, &past, sizeof(past));
    cases.push_back({f.name, std::move(b), f.bound});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b.pop_back();  // payload shorter than the header claims, then EOF
    cases.push_back({"truncated_payload", std::move(b), "closed mid-message"});
  }
  return cases;
}

TEST(NetFrame, MalformedFramesThrowTypedErrors) {
  for (const MalformedCase& c : malformed_cases()) {
    auto [tx, rx] = socket_pair();
    const std::span<const std::uint8_t> raw(c.bytes);
    tx.send_parts(std::span(&raw, 1));
    tx.close();
    try {
      Frame f;
      (void)recv_frame(rx, f);
      FAIL() << c.name << ": received without error";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
  }
  // An over-long error text is truncated to the bound on the way out, so
  // it still arrives.
  ErrorMsg long_error;
  long_error.message = std::string(kMaxErrorMessageBytes, 'x') + "tail";
  const FrameOut sent = long_error.encode();
  EXPECT_EQ(sent.payload_bytes(), max_payload_bytes(MsgType::kError, WireShape{}));
  EXPECT_EQ(ErrorMsg::decode(loop_back(sent).payload).message,
            std::string(kMaxErrorMessageBytes, 'x'));
}

TEST(NetFrame, ShortFixedLayoutPayloadFailsItsDecoder) {
  // A length under the type's bound is read whole (the stream stays in
  // sync); the decoder then rejects it.
  const std::vector<std::uint8_t> four{1, 2, 3, 4};
  FrameOut f(MsgType::kPushReply);
  f.ref(four.data(), four.size());
  try {
    (void)PushReplyMsg::decode(loop_back(f).payload);
    FAIL() << "decoded a 4-byte PushReply";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated payload"), std::string::npos) << e.what();
  }
}

struct MalformedPayloadCase {
  const char* name;
  MsgType type;
  std::vector<std::uint8_t> payload;
  const char* expect_substr;
};

TEST(NetFrame, MalformedPayloadsThrowTypedErrors) {
  const WireShape shape{2, 1};
  const std::vector<std::int64_t> one{1};
  const std::vector<std::int64_t> two{1, 2};
  const std::vector<float> g2{1.0f, 2.0f};
  std::vector<MalformedPayloadCase> cases;

  auto prefix_of = [](const FrameOut& f, std::size_t floats) {
    std::vector<std::uint8_t> p = payload_of(f);
    p.resize(p.size() - floats * sizeof(float));
    return p;
  };
  cases.push_back({"pull_reply_version_count", MsgType::kPullReply,
                   prefix_of(PullReplyMsg{two, g2}.encode(), 2), "version count 2"});
  cases.push_back({"pull_reply_float_count", MsgType::kPullReply,
                   prefix_of(PullReplyMsg{one, std::span(g2).first(1)}.encode(), 1),
                   "float count 1"});
  cases.push_back({"push_dense_empty_versions", MsgType::kPushDense,
                   prefix_of(PushDenseMsg{0.1, {}, g2}.encode(), 2), "empty version vector"});
  {
    std::vector<std::uint8_t> p = prefix_of(PushDenseMsg{0.1, one, g2}.encode(), 2);
    p.push_back(0);  // one byte of junk after the float count
    cases.push_back({"push_dense_trailing_bytes", MsgType::kPushDense, std::move(p),
                     "trailing bytes"});
  }
  {
    std::vector<std::uint8_t> p = prefix_of(PushDenseMsg{0.1, one, g2}.encode(), 2);
    p.resize(p.size() - 3);
    cases.push_back({"push_dense_truncated_prefix", MsgType::kPushDense, std::move(p),
                     "truncated payload"});
  }
  {
    CompressedPush c;
    c.format = CompressedPush::Format::kSparse;
    c.num_params = 10;
    c.values = {1.0f, 2.0f};
    c.indices = {3, 99};  // 99 out of range for 10 params
    cases.push_back({"sparse_index_out_of_range", MsgType::kPushCompressed,
                     payload_of(PushCompressedMsg{0.1, one, c}.encode()), "PushCompressed"});
    c.indices = {5, 3};  // violates the strictly-ascending contract
    cases.push_back({"sparse_indices_descending", MsgType::kPushCompressed,
                     payload_of(PushCompressedMsg{0.1, one, c}.encode()), "PushCompressed"});
    c.format = CompressedPush::Format::kDense;
    c.num_params = 8;  // a dense push must carry num_params values
    c.indices.clear();
    cases.push_back({"dense_length_mismatch", MsgType::kPushCompressed,
                     payload_of(PushCompressedMsg{0.1, one, c}.encode()), "PushCompressed"});
    c.num_params = 2;
    std::vector<std::uint8_t> p = payload_of(PushCompressedMsg{0.1, one, c}.encode());
    const std::uint64_t lie = 1u << 20;
    std::memcpy(p.data() + 8, &lie, sizeof(lie));  // version count
    cases.push_back({"vector_count_lie", MsgType::kPushCompressed, std::move(p),
                     "truncated payload"});
  }
  cases.push_back({"push_pull_reply_version_count", MsgType::kPushPullReply,
                   prefix_of(PushPullReplyMsg{0, two, g2}.encode(), 2), "version count 2"});
  cases.push_back({"push_pull_reply_float_count", MsgType::kPushPullReply,
                   prefix_of(PushPullReplyMsg{0, one, std::span(g2).first(1)}.encode(), 1),
                   "float count 1"});
  cases.push_back({"push_pull_reply_truncated_staleness", MsgType::kPushPullReply,
                   {1, 2, 3}, "truncated payload"});
  cases.push_back({"assignment_empty_payload", MsgType::kAssignment, {}, "truncated payload"});

  for (const MalformedPayloadCase& c : cases) {
    std::vector<std::int64_t> versions;
    CompressedPush push;
    try {
      switch (c.type) {
        case MsgType::kPullReply:
          PullReplyMsg::decode_prefix(c.payload, shape, versions);
          break;
        case MsgType::kPushDense:
          (void)PushDenseMsg::decode_prefix(c.payload, shape, versions);
          break;
        case MsgType::kPushCompressed:
          (void)PushCompressedMsg::decode(c.payload, versions, push);
          break;
        case MsgType::kPushPullReply:
          (void)PushPullReplyMsg::decode_prefix(c.payload, shape, versions);
          break;
        case MsgType::kAssignment:
          (void)AssignmentMsg::decode(c.payload);
          break;
        default:
          FAIL() << c.name << ": case table covers no decoder for this type";
      }
      FAIL() << c.name << ": decoded without error";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
  }
}

TEST(NetFrame, AssignmentRejectsOutOfRangeEnums) {
  AssignmentMsg m;
  m.worker = 0;
  m.num_workers = 1;
  const std::vector<std::uint8_t> payload = payload_of(m.encode());
  // arch byte sits right after worker(4) + five u64/i64 fields (40) + two
  // doubles (16) + seed (8) = offset 68.
  std::vector<std::uint8_t> bad_arch = payload;
  bad_arch[68] = 0x7F;
  EXPECT_THROW((void)AssignmentMsg::decode(bad_arch), NetError);
  std::vector<std::uint8_t> bad_codec = payload;
  bad_codec[69] = 0x7F;
  EXPECT_THROW((void)AssignmentMsg::decode(bad_codec), NetError);
}

TEST(NetFrame, AssignmentRejectsWorkerSlotOutOfRange) {
  AssignmentMsg m;
  m.worker = 4;
  m.num_workers = 4;  // valid slots are 0..3
  EXPECT_THROW((void)AssignmentMsg::decode(payload_of(m.encode())), NetError);
}

TEST(NetFrame, GatherAndScatterPathsKeepTheWireMetricsAndSpans) {
  obs::metrics().reset();
  obs::tracer().clear();
  obs::enable_metrics();
  obs::enable_tracing();
  const WireShape shape{1000, 2};
  const std::vector<float> grad(shape.num_params, 0.5f);
  const std::vector<std::int64_t> versions{4, 4};
  auto [tx, rx] = socket_pair();
  std::thread sender([&, &tx = tx] { send_frame(tx, PushDenseMsg{0.1, versions, grad}.encode()); });
  FrameHeader h;
  ASSERT_TRUE(recv_frame_header(rx, h, shape));
  std::vector<float> dest(shape.num_params);
  std::vector<std::uint8_t> prefix;
  recv_payload(rx, h, prefix, std::as_writable_bytes(std::span(dest)));
  sender.join();
  obs::disable_all();

  const auto frame_bytes = static_cast<std::int64_t>(kFrameHeaderBytes + push_dense_bytes(shape));
  auto& reg = obs::metrics();
  EXPECT_EQ(reg.counter("ss_net_frames_sent_total").value(), 1);
  EXPECT_EQ(reg.counter("ss_net_frames_received_total").value(), 1);
  EXPECT_EQ(reg.counter("ss_net_bytes_sent_total").value(), frame_bytes);
  EXPECT_EQ(reg.counter("ss_net_bytes_received_total").value(), frame_bytes);
  for (const auto& hist : reg.snapshot().histograms) {
    if (hist.name.rfind("ss_net_", 0) != 0) continue;
    EXPECT_EQ(hist.count, 1) << hist.name;
    if (hist.name.find("frame_bytes") != std::string::npos) {
      EXPECT_DOUBLE_EQ(hist.sum, static_cast<double>(frame_bytes)) << hist.name;
    }
  }
  std::ostringstream trace;
  obs::tracer().write_chrome_trace(trace);
  EXPECT_NE(trace.str().find("\"send PushDense\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"recv PushDense\""), std::string::npos);
  obs::tracer().clear();
  obs::metrics().reset();
}

// ---------------------------------------------------------------------------
// The gather send survives short writes and EINTR: a slow reader fills the
// socket buffer while signals keep interrupting the blocked sendmsg.
// ---------------------------------------------------------------------------

TEST(NetFrame, GatherSendSurvivesShortWritesAndSignals) {
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupted sends return early
  // Left installed: a no-op handler outlives any signal still in flight.
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);

  std::vector<float> grad(1 << 19);  // 2 MiB: many socket buffers' worth
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = static_cast<float>(i);
  const std::vector<std::int64_t> versions{11, 12};
  const FrameOut f = PushDenseMsg{0.5, versions, grad}.encode();
  const std::vector<std::uint8_t> expected = flatten(f);

  auto [tx, rx] = socket_pair();
  std::atomic<bool> sent{false};
  std::vector<std::uint8_t> got(expected.size());
  std::thread reader([&, &rx = rx] {
    for (std::size_t at = 0; at < got.size();) {
      const std::size_t chunk = std::min<std::size_t>(4096, got.size() - at);
      (void)rx.recv_all(got.data() + at, chunk, false);
      at += chunk;
      if (at % (64 * 4096) == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const pthread_t sender = ::pthread_self();
  std::thread interrupter([&] {
    while (!sent.load()) {
      ::pthread_kill(sender, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  send_frame(tx, f);
  sent = true;
  interrupter.join();
  reader.join();
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace ss
