#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/error.h"

namespace ss {

namespace {

/// Strictly-validating payload reader: every read is bounds-checked, vector
/// counts are validated against the bytes actually present before resizing,
/// and `done()` rejects trailing bytes — a frame must decode exactly.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const char* what)
      : p_(bytes.data()), remaining_(bytes.size()), what_(what) {}

  void raw(void* dst, std::size_t n) {
    if (remaining_ < n) fail("truncated payload");
    if (n == 0) return;
    std::memcpy(dst, p_, n);
    p_ += n;
    remaining_ -= n;
  }
  template <typename T>
  T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    raw(&v, sizeof(v));
    return v;
  }
  template <typename T>
  void vec(std::vector<T>& out) {
    const auto count = scalar<std::uint64_t>();
    if (count > remaining_ / sizeof(T)) fail("truncated payload");
    out.resize(count);
    raw(out.data(), count * sizeof(T));
  }
  void done() const {
    if (remaining_ != 0) fail("trailing bytes");
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw NetError(std::string(what_) + ": " + why);
  }

 private:
  const std::uint8_t* p_;
  std::size_t remaining_;
  const char* what_;
};

bool known_type(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kHello) &&
         t <= static_cast<std::uint16_t>(kLastMsgType) &&
         std::find(kRetiredMsgTypes.begin(), kRetiredMsgTypes.end(), t) ==
             kRetiredMsgTypes.end();
}

/// The prefix every dense frame shares after its own leading fields:
/// [u64 S][S x i64 versions][u64 P], with S and P pinned by the shape.
/// Counts are checked before anything is read into `versions`.
void read_dense_counts(Reader& r, const WireShape& shape, std::vector<std::int64_t>& versions) {
  const auto shards = r.scalar<std::uint64_t>();
  if (shards == 0) r.fail("empty version vector");
  if (shards != shape.num_shards)
    r.fail("version count " + std::to_string(shards) + " does not match the " +
           std::to_string(shape.num_shards) + " assigned shards");
  versions.resize(shards);
  r.raw(versions.data(), shards * sizeof(std::int64_t));
  const auto floats = r.scalar<std::uint64_t>();
  if (floats != shape.num_params)
    r.fail("float count " + std::to_string(floats) + " does not match the " +
           std::to_string(shape.num_params) + " assigned parameters");
  r.done();
}

}  // namespace

// --------------------------------------------------------------- FrameOut

FrameOut::FrameOut(MsgType type) : type_(type) {
  const auto raw_type = static_cast<std::uint16_t>(type);
  std::memcpy(staged_.data(), &kFrameMagic, sizeof(kFrameMagic));
  std::memcpy(staged_.data() + 4, &kFrameVersion, sizeof(kFrameVersion));
  std::memcpy(staged_.data() + 6, &raw_type, sizeof(raw_type));
  // Bytes 8..16 hold the payload length, kept current by every append.
  staged_len_ = kFrameHeaderBytes;
  parts_[0] = Part{nullptr, 0, kFrameHeaderBytes};
  num_parts_ = 1;
}

void FrameOut::stage(const void* src, std::size_t n) {
  if (staged_len_ + n > kMaxStaged) throw std::length_error("FrameOut: staged fields overflow");
  std::memcpy(staged_.data() + staged_len_, src, n);
  add_part(Part{nullptr, staged_len_, n});
  staged_len_ += n;
}

void FrameOut::ref(const void* data, std::size_t n) {
  if (n == 0) return;  // empty vectors hand over a null data()
  add_part(Part{static_cast<const std::uint8_t*>(data), 0, n});
}

void FrameOut::add_part(Part part) {
  Part& last = parts_[num_parts_ - 1];
  if (part.data == nullptr && last.data == nullptr &&
      last.staged_at + last.len == part.staged_at) {
    last.len += part.len;  // extend the staged run
  } else {
    if (num_parts_ == kMaxParts) throw std::length_error("FrameOut: too many parts");
    parts_[num_parts_++] = part;
  }
  payload_bytes_ += part.len;
  std::memcpy(staged_.data() + 8, &payload_bytes_, sizeof(payload_bytes_));
}

std::size_t FrameOut::gather(Parts& out) const {
  for (std::size_t i = 0; i < num_parts_; ++i) {
    const Part& p = parts_[i];
    out[i] = {p.data != nullptr ? p.data : staged_.data() + p.staged_at, p.len};
  }
  return num_parts_;
}

// ----------------------------------------------------------- header, bounds

FrameHeader decode_frame_header(std::span<const std::uint8_t> header) {
  if (header.size() != kFrameHeaderBytes) throw NetError("Frame: truncated header");
  Reader r(header, "Frame header");
  if (r.scalar<std::uint32_t>() != kFrameMagic) throw NetError("Frame: bad magic");
  const auto version = r.scalar<std::uint16_t>();
  if (version != kFrameVersion)
    throw NetError("Frame: unsupported protocol version " + std::to_string(version));
  const auto raw_type = r.scalar<std::uint16_t>();
  if (!known_type(raw_type))
    throw NetError("Frame: unknown message type " + std::to_string(raw_type));
  FrameHeader h;
  h.type = static_cast<MsgType>(raw_type);
  h.payload_bytes = r.scalar<std::uint64_t>();
  if (h.payload_bytes > kMaxFramePayload)
    throw NetError("Frame: payload length " + std::to_string(h.payload_bytes) +
                   " exceeds the " + std::to_string(kMaxFramePayload) + "-byte cap");
  return h;
}

std::uint64_t pull_reply_bytes(const WireShape& shape) {
  return 8 + 8 * std::uint64_t{shape.num_shards} + 8 + 4 * std::uint64_t{shape.num_params};
}

std::uint64_t push_dense_bytes(const WireShape& shape) { return 8 + pull_reply_bytes(shape); }

std::uint64_t max_payload_bytes(MsgType type, const WireShape& shape) {
  switch (type) {
    case MsgType::kHello:
      return sizeof(std::uint16_t);
    case MsgType::kAssignment: {
      static const std::uint64_t bytes = AssignmentMsg{}.encode().payload_bytes();
      return bytes;
    }
    case MsgType::kPull:
    case MsgType::kOk:
    case MsgType::kBye:
      return 0;
    case MsgType::kPullReply:
      return pull_reply_bytes(shape);
    case MsgType::kPushDense:
    case MsgType::kPushPullDense:
      return push_dense_bytes(shape);
    case MsgType::kPushPullReply:
      return 8 + pull_reply_bytes(shape);  // the staleness, then a PullReply
    case MsgType::kPushCompressed:
    case MsgType::kPushPullCompressed:
      // A PushDense's fields plus format, num_params, wire_size and an index
      // vector as long as the values: every coordinate kept.
      return push_dense_bytes(shape) + 1 + 8 + 8 + 8 + 4 * std::uint64_t{shape.num_params};
    case MsgType::kPushReply:
    case MsgType::kDrainArrive:
      return sizeof(std::int64_t);
    case MsgType::kDrainRelease:
      return sizeof(std::uint8_t);
    case MsgType::kError:
      return sizeof(std::uint64_t) + kMaxErrorMessageBytes;
  }
  return 0;
}

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kAssignment: return "Assignment";
    case MsgType::kPull: return "Pull";
    case MsgType::kPullReply: return "PullReply";
    case MsgType::kPushDense: return "PushDense";
    case MsgType::kPushCompressed: return "PushCompressed";
    case MsgType::kPushReply: return "PushReply";
    case MsgType::kDrainArrive: return "DrainArrive";
    case MsgType::kDrainRelease: return "DrainRelease";
    case MsgType::kOk: return "Ok";
    case MsgType::kBye: return "Bye";
    case MsgType::kError: return "Error";
    case MsgType::kPushPullDense: return "PushPullDense";
    case MsgType::kPushPullCompressed: return "PushPullCompressed";
    case MsgType::kPushPullReply: return "PushPullReply";
  }
  return "Unknown";
}

// ------------------------------------------------------------------ Hello

FrameOut HelloMsg::encode() const {
  FrameOut f(MsgType::kHello);
  f.scalar(protocol_version);
  return f;
}

HelloMsg HelloMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "Hello");
  HelloMsg m;
  m.protocol_version = r.scalar<std::uint16_t>();
  r.done();
  return m;
}

// ------------------------------------------------------------- Assignment

FrameOut AssignmentMsg::encode() const {
  FrameOut f(MsgType::kAssignment);
  f.scalar(worker);
  f.scalar(num_workers);
  f.scalar(num_params);
  f.scalar(num_shards);
  f.scalar(steps_per_worker);
  f.scalar(batch_size);
  f.scalar(lr);
  f.scalar(momentum);
  f.scalar(seed);
  f.scalar(static_cast<std::uint8_t>(arch));
  f.scalar(static_cast<std::uint8_t>(compression.kind));
  f.scalar(compression.topk_fraction);
  f.scalar(static_cast<std::int32_t>(compression.qsgd_levels));
  f.scalar(compression.terngrad_clip_sigma);
  f.scalar(static_cast<std::int32_t>(data.num_classes));
  f.scalar(static_cast<std::uint64_t>(data.feature_dim));
  f.scalar(static_cast<std::uint64_t>(data.train_size));
  f.scalar(static_cast<std::uint64_t>(data.test_size));
  f.scalar(static_cast<std::int32_t>(data.modes_per_class));
  f.scalar(data.class_separation);
  f.scalar(data.within_stddev);
  f.scalar(data.label_noise);
  f.scalar(data.seed);
  return f;
}

AssignmentMsg AssignmentMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "Assignment");
  AssignmentMsg m;
  m.worker = r.scalar<std::uint32_t>();
  m.num_workers = r.scalar<std::uint64_t>();
  m.num_params = r.scalar<std::uint64_t>();
  m.num_shards = r.scalar<std::uint64_t>();
  m.steps_per_worker = r.scalar<std::int64_t>();
  m.batch_size = r.scalar<std::uint64_t>();
  m.lr = r.scalar<double>();
  m.momentum = r.scalar<double>();
  m.seed = r.scalar<std::uint64_t>();
  const auto arch = r.scalar<std::uint8_t>();
  if (arch > static_cast<std::uint8_t>(ModelArch::kResNet50BnLite))
    throw NetError("Assignment: unknown model arch " + std::to_string(arch));
  m.arch = static_cast<ModelArch>(arch);
  const auto codec = r.scalar<std::uint8_t>();
  if (codec > static_cast<std::uint8_t>(CodecKind::kQsgd))
    throw NetError("Assignment: unknown codec kind " + std::to_string(codec));
  m.compression.kind = static_cast<CodecKind>(codec);
  m.compression.topk_fraction = r.scalar<double>();
  m.compression.qsgd_levels = r.scalar<std::int32_t>();
  m.compression.terngrad_clip_sigma = r.scalar<double>();
  m.data.num_classes = r.scalar<std::int32_t>();
  m.data.feature_dim = r.scalar<std::uint64_t>();
  m.data.train_size = r.scalar<std::uint64_t>();
  m.data.test_size = r.scalar<std::uint64_t>();
  m.data.modes_per_class = r.scalar<std::int32_t>();
  m.data.class_separation = r.scalar<double>();
  m.data.within_stddev = r.scalar<double>();
  m.data.label_noise = r.scalar<double>();
  m.data.seed = r.scalar<std::uint64_t>();
  r.done();
  if (m.worker >= m.num_workers)
    throw NetError("Assignment: worker slot out of range");
  return m;
}

// ---------------------------------------------------------- dense frames

FrameOut PullReplyMsg::encode() const {
  FrameOut f(MsgType::kPullReply);
  f.vec(versions);
  f.vec(params);
  return f;
}

void PullReplyMsg::decode_prefix(std::span<const std::uint8_t> prefix, const WireShape& shape,
                                 std::vector<std::int64_t>& versions) {
  Reader r(prefix, "PullReply");
  read_dense_counts(r, shape, versions);
}

FrameOut PushDenseMsg::encode(bool then_pull) const {
  FrameOut f(then_pull ? MsgType::kPushPullDense : MsgType::kPushDense);
  f.scalar(lr);
  f.vec(pull_versions);
  f.vec(grad);
  return f;
}

double PushDenseMsg::decode_prefix(std::span<const std::uint8_t> prefix, const WireShape& shape,
                                   std::vector<std::int64_t>& pull_versions) {
  Reader r(prefix, "PushDense");
  const auto lr = r.scalar<double>();
  read_dense_counts(r, shape, pull_versions);
  return lr;
}

FrameOut PushPullReplyMsg::encode() const {
  FrameOut f(MsgType::kPushPullReply);
  f.scalar(staleness);
  f.vec(versions);
  f.vec(params);
  return f;
}

std::int64_t PushPullReplyMsg::decode_prefix(std::span<const std::uint8_t> prefix,
                                             const WireShape& shape,
                                             std::vector<std::int64_t>& versions) {
  Reader r(prefix, "PushPullReply");
  const auto staleness = r.scalar<std::int64_t>();
  read_dense_counts(r, shape, versions);
  return staleness;
}

// --------------------------------------------------------- PushCompressed

FrameOut PushCompressedMsg::encode(bool then_pull) const {
  FrameOut f(then_pull ? MsgType::kPushPullCompressed : MsgType::kPushCompressed);
  f.scalar(lr);
  f.vec(pull_versions);
  f.scalar(static_cast<std::uint8_t>(push.format));
  f.scalar(static_cast<std::uint64_t>(push.num_params));
  f.scalar(static_cast<std::uint64_t>(push.wire_size));
  f.vec(std::span<const float>(push.values));
  f.vec(std::span<const std::uint32_t>(push.indices));
  return f;
}

PushCompressedMsg::Decoded PushCompressedMsg::decode(std::span<const std::uint8_t> payload,
                                                     std::vector<std::int64_t>& pull_versions,
                                                     CompressedPush& push) {
  Reader r(payload, "PushCompressed");
  const auto lr = r.scalar<double>();
  r.vec(pull_versions);
  const auto format = r.scalar<std::uint8_t>();
  if (format > static_cast<std::uint8_t>(CompressedPush::Format::kSparse))
    throw NetError("PushCompressed: unknown push format " + std::to_string(format));
  push.format = static_cast<CompressedPush::Format>(format);
  push.num_params = r.scalar<std::uint64_t>();
  push.wire_size = r.scalar<std::uint64_t>();
  r.vec(push.values);
  r.vec(push.indices);
  r.done();
  if (pull_versions.empty()) throw NetError("PushCompressed: empty version vector");
  // Validate the push invariants at the trust boundary, converting the
  // library's ConfigError into the transport's typed error: a corrupt frame
  // must never reach the PS apply path (whose ascending-index walk is what
  // the per-shard deadlock-freedom argument rests on).
  try {
    return {lr, ValidatedPush(push)};
  } catch (const ConfigError& e) {
    throw NetError(std::string("PushCompressed: ") + e.what());
  }
}

// --------------------------------------------------------------- replies

FrameOut PushReplyMsg::encode() const {
  FrameOut f(MsgType::kPushReply);
  f.scalar(staleness);
  return f;
}

PushReplyMsg PushReplyMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "PushReply");
  PushReplyMsg m;
  m.staleness = r.scalar<std::int64_t>();
  r.done();
  return m;
}

FrameOut DrainArriveMsg::encode() const {
  FrameOut f(MsgType::kDrainArrive);
  f.scalar(local_steps);
  return f;
}

DrainArriveMsg DrainArriveMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "DrainArrive");
  DrainArriveMsg m;
  m.local_steps = r.scalar<std::int64_t>();
  r.done();
  return m;
}

FrameOut DrainReleaseMsg::encode() const {
  FrameOut f(MsgType::kDrainRelease);
  f.scalar(static_cast<std::uint8_t>(done ? 1 : 0));
  return f;
}

DrainReleaseMsg DrainReleaseMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "DrainRelease");
  DrainReleaseMsg m;
  m.done = r.scalar<std::uint8_t>() != 0;
  r.done();
  return m;
}

FrameOut ErrorMsg::encode() const {
  FrameOut f(MsgType::kError);
  const std::size_t n = std::min<std::size_t>(message.size(), kMaxErrorMessageBytes);
  f.scalar(static_cast<std::uint64_t>(n));
  f.ref(message.data(), n);
  return f;
}

ErrorMsg ErrorMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "Error");
  ErrorMsg m;
  const auto n = r.scalar<std::uint64_t>();
  if (n > payload.size()) throw NetError("Error: truncated payload");
  m.message.resize(n);
  r.raw(m.message.data(), n);
  r.done();
  return m;
}

}  // namespace ss
