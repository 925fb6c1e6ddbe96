// Length-prefixed binary frame codec for the socket transport.
//
// Every worker <-> PS-server message is one frame:
//
//   [u32 magic "SSFR"][u16 version][u16 type][u64 payload_bytes][payload]
//
// all little-endian, payload layouts per message type below.  The codec is
// strictly validating: a malformed frame (bad magic, unknown version or
// type, length past the type's bound, truncated or over-long payload, counts
// that disagree with the run's shape, sparse indices out of range or out of
// order) decodes to a typed NetError — never a crash, never a
// silently-wrong message (mirroring the trace-parser's error contract in
// scenario/trace_replay.h).
//
// Payload conventions: integers are fixed-width little-endian, doubles are
// 8-byte IEEE bit patterns, vectors are [u64 count][elements].  Compressed
// pushes re-use CompressedPush's field set verbatim — the wire object the
// codecs were designed around finally crosses a real wire.
//
// A steady-state ASP step is one exchange, not two: a push-and-pull request
// (PushPullDense, PushPullCompressed) carries its push's payload verbatim,
// and the server applies it, pulls, and answers with one PushPullReply (the
// push's staleness, then the PullReply layout).  Pull/PullReply and the
// plain pushes with their PushReply remain for the first pull and the last
// push of a worker's quota.  No message
// carries a checkpoint: snapshots stay inside the server
// (elastic/async_snapshotter.h), so no peer can overwrite the PS wholesale.
//
// Zero copy.  An outgoing frame is a FrameOut: the header and the scalar and
// count fields are staged in a small inline buffer, while bulk arrays
// (parameters, gradients, compressed values, the error text) are
// referenced where they already lie and handed to the kernel by one gather
// send.  On the way in, every payload is bounded at header time by its
// type's largest length for the run's shape (max_payload_bytes), before
// anything is allocated or read.  The dense data-plane frames (PullReply,
// PushDense, PushPullDense, PushPullReply) are received by scatter: the
// small prefix into a scratch buffer, the float array straight into its
// destination; their `decode_prefix` then checks the counts against the
// shape.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "compress/compressed_push.h"
#include "compress/spec.h"
#include "data/synthetic.h"
#include "nn/zoo.h"

namespace ss {

inline constexpr std::uint32_t kFrameMagic = 0x53534652;  // "SSFR"
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Global cap on a frame payload, checked before the run's shape is known.
/// Every type's own bound (max_payload_bytes) lies below it for any model
/// up to 100M parameters; a corrupt length field past it fails fast.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;
/// Longest message text an Error frame carries; ErrorMsg::encode truncates
/// a longer one.  The frame's bound is this plus the 8-byte length.
inline constexpr std::uint64_t kMaxErrorMessageBytes = 4096;

/// Wire message types.  Values are part of the protocol; append only, and
/// never reuse a retired value (kRetiredMsgTypes).
enum class MsgType : std::uint16_t {
  kHello = 1,        ///< worker -> ps: join the run
  kAssignment = 2,   ///< ps -> worker: slot + the full run configuration
  kPull = 3,         ///< worker -> ps: request params + version vector
  kPullReply = 4,    ///< ps -> worker: per-shard versions + parameters
  kPushDense = 5,    ///< worker -> ps: uncompressed full gradient
  kPushCompressed = 6,  ///< worker -> ps: CompressedPush (dense or sparse)
  kPushReply = 7,    ///< ps -> worker: staleness of the applied push
  kDrainArrive = 8,  ///< worker -> ps: quiesced at the drain barrier
  kDrainRelease = 9, ///< ps -> worker: barrier complete; continue or done
  // 10, 11, 12: retired (the remote checkpoint/restore RPC).
  // 13, 14: retired (the scalar version query and its reply).
  kOk = 15,          ///< generic success acknowledgement
  kBye = 16,         ///< worker -> ps: clean leave (after drain release)
  kError = 17,       ///< ps -> worker: request failed; payload = message
  kPushPullDense = 18,       ///< worker -> ps: a PushDense, then pull
  kPushPullCompressed = 19,  ///< worker -> ps: a PushCompressed, then pull
  kPushPullReply = 20,       ///< ps -> worker: staleness + the PullReply layout
};
/// The highest type value in use.
inline constexpr MsgType kLastMsgType = MsgType::kPushPullReply;

/// Type values that once meant a message and are rejected as unknown now.
inline constexpr std::array<std::uint16_t, 5> kRetiredMsgTypes{10, 11, 12, 13, 14};

/// Human-readable message-type name ("PushDense", "DrainArrive", ...);
/// "Unknown" for values outside the enum.  For logs and trace span labels.
[[nodiscard]] const char* msg_type_name(MsgType type) noexcept;

/// One outgoing frame, assembled for a gather send.  Scalars are staged
/// (copied into an inline buffer that also holds the header); arrays are
/// referenced in place and must outlive the send.  Copyable: staged parts
/// are kept as offsets, never as pointers into the object.
class FrameOut {
 public:
  /// Most parts one frame can hold: the header run plus three referenced
  /// arrays, each followed by a staged run, with room to spare.
  static constexpr std::size_t kMaxParts = 8;
  using Parts = std::array<std::span<const std::uint8_t>, kMaxParts>;

  explicit FrameOut(MsgType type);

  template <typename T>
  void scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    stage(&v, sizeof(v));
  }
  /// Reference `n` bytes in place.
  void ref(const void* data, std::size_t n);
  /// [u64 count][elements]: the count staged, the elements referenced.
  template <typename T>
  void vec(std::span<const T> v) {
    scalar(static_cast<std::uint64_t>(v.size()));
    ref(v.data(), v.size_bytes());
  }

  [[nodiscard]] MsgType type() const noexcept { return type_; }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }

  /// The frame's bytes in wire order, header first; returns the part count.
  std::size_t gather(Parts& out) const;

 private:
  /// Header + the longest all-scalar payload (Assignment, 154 bytes).
  static constexpr std::size_t kMaxStaged = 192;
  /// A staged run (`data == nullptr`, bytes at `staged_at`) or a reference.
  struct Part {
    const std::uint8_t* data = nullptr;
    std::size_t staged_at = 0;
    std::size_t len = 0;
  };

  void stage(const void* src, std::size_t n);
  void add_part(Part part);

  MsgType type_;
  std::uint64_t payload_bytes_ = 0;
  std::array<std::uint8_t, kMaxStaged> staged_{};
  std::size_t staged_len_ = 0;
  std::array<Part, kMaxParts> parts_{};
  std::size_t num_parts_ = 0;
};

/// A validated frame header.
struct FrameHeader {
  MsgType type = MsgType::kError;
  std::uint64_t payload_bytes = 0;
};

/// Validate a frame header: magic, version, known type, and the global
/// cap.  `header` must be exactly kFrameHeaderBytes long.
[[nodiscard]] FrameHeader decode_frame_header(std::span<const std::uint8_t> header);

/// One received frame: the type tag plus its raw payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// The run's parameter shape.  It fixes the exact length of the dense
/// frames, so a receiver can bound every payload from the header alone.
struct WireShape {
  std::size_t num_params = 0;
  std::size_t num_shards = 0;
};

/// Exact payload bytes of a PullReply ([u64 S][S x i64][u64 P][P x f32]).
[[nodiscard]] std::uint64_t pull_reply_bytes(const WireShape& shape);
/// Exact payload bytes of a PushDense or PushPullDense ([f64 lr] + the
/// PullReply layout).
[[nodiscard]] std::uint64_t push_dense_bytes(const WireShape& shape);

/// The largest payload a frame of `type` may carry in a run of `shape`.
/// Fixed-layout messages and the dense frames must be exactly this long; a
/// PushCompressed or PushPullCompressed may be shorter (the bound is a
/// sparse push keeping every coordinate), and an Error's bound is its
/// longest message.
[[nodiscard]] std::uint64_t max_payload_bytes(MsgType type, const WireShape& shape);

// ---------------------------------------------------------------------------
// Message payloads.  Each struct has an encode() producing a FrameOut and a
// decoder validating every field.  The data-plane messages are views: they
// reference the sender's arrays, and decode into the receiver's buffers.
// ---------------------------------------------------------------------------

/// Worker -> PS greeting.  `protocol_version` lets the server reject a
/// mismatched binary before anything else flows.
struct HelloMsg {
  std::uint16_t protocol_version = kFrameVersion;

  [[nodiscard]] FrameOut encode() const;
  [[nodiscard]] static HelloMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: the assigned slot plus the entire run configuration.  The
/// server owns the config; workers only know where to connect, which rules
/// out config drift between processes (the distributed-training analogue of
/// a bad deploy).
struct AssignmentMsg {
  std::uint32_t worker = 0;       ///< assigned slot in [0, num_workers)
  std::uint64_t num_workers = 0;
  std::uint64_t num_params = 0;
  std::uint64_t num_shards = 1;
  std::int64_t steps_per_worker = 0;
  std::uint64_t batch_size = 0;
  double lr = 0.0;
  double momentum = 0.0;
  std::uint64_t seed = 0;         ///< root seed; workers fork per-slot streams
  ModelArch arch = ModelArch::kLinear;
  CompressionSpec compression;    ///< codec every worker encodes through
  SyntheticSpec data;             ///< the dataset every worker regenerates

  [[nodiscard]] FrameOut encode() const;
  [[nodiscard]] static AssignmentMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: parameters + the per-shard version vector snapshotted as
/// they were copied (the exact staleness-accounting path on the wire).
struct PullReplyMsg {
  std::span<const std::int64_t> versions;
  std::span<const float> params;

  [[nodiscard]] FrameOut encode() const;
  /// Decode the prefix of an exact-length PullReply (every field before the
  /// parameters, which the receiver scatters into place).  Both counts must
  /// match `shape`; `versions` receives the version vector.
  static void decode_prefix(std::span<const std::uint8_t> prefix, const WireShape& shape,
                            std::vector<std::int64_t>& versions);
};

/// Worker -> PS: uncompressed full-gradient push.  Sent as a
/// PushPullDense (`then_pull`), the same payload asks for the parameters
/// after the push in a PushPullReply.
struct PushDenseMsg {
  double lr = 0.0;
  std::span<const std::int64_t> pull_versions;
  std::span<const float> grad;

  [[nodiscard]] FrameOut encode(bool then_pull = false) const;
  /// As PullReplyMsg::decode_prefix; returns the push's learning rate.
  [[nodiscard]] static double decode_prefix(std::span<const std::uint8_t> prefix,
                                            const WireShape& shape,
                                            std::vector<std::int64_t>& pull_versions);
};

/// Worker -> PS: a CompressedPush (dense quantized or sparse top-k); sent
/// as a PushPullCompressed (`then_pull`), a push-and-pull request.
/// Decode validates the push invariants (sparse indices strictly ascending
/// and < num_params) so a corrupt frame cannot reach the PS math, and hands
/// the PS the ValidatedPush, so the push is not checked again.
struct PushCompressedMsg {
  double lr = 0.0;
  std::span<const std::int64_t> pull_versions;
  const CompressedPush& push;

  struct Decoded {
    double lr;
    ValidatedPush push;  ///< views the decode's `push` buffer
  };

  [[nodiscard]] FrameOut encode(bool then_pull = false) const;
  /// Decode into the receiver's buffers (capacity reused).  NetError if the
  /// frame or the push it carries is malformed.
  [[nodiscard]] static Decoded decode(std::span<const std::uint8_t> payload,
                                      std::vector<std::int64_t>& pull_versions,
                                      CompressedPush& push);
};

/// PS -> worker: staleness of the just-applied push.
struct PushReplyMsg {
  std::int64_t staleness = 0;

  [[nodiscard]] FrameOut encode() const;
  [[nodiscard]] static PushReplyMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker, answering a push-and-pull request: the push's staleness,
/// then the parameters and versions pulled after it was applied, in the
/// PullReply layout.
struct PushPullReplyMsg {
  std::int64_t staleness = 0;
  std::span<const std::int64_t> versions;
  std::span<const float> params;

  [[nodiscard]] FrameOut encode() const;
  /// As PullReplyMsg::decode_prefix; returns the staleness.
  [[nodiscard]] static std::int64_t decode_prefix(std::span<const std::uint8_t> prefix,
                                                  const WireShape& shape,
                                                  std::vector<std::int64_t>& versions);
};

/// Worker -> PS: arrived at the drain barrier after `local_steps` steps.
struct DrainArriveMsg {
  std::int64_t local_steps = 0;

  [[nodiscard]] FrameOut encode() const;
  [[nodiscard]] static DrainArriveMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: every alive worker arrived; `done` says whether the run is
/// over (the v1 deployment drains exactly once, at the step quota).
struct DrainReleaseMsg {
  bool done = true;

  [[nodiscard]] FrameOut encode() const;
  [[nodiscard]] static DrainReleaseMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker failure report.  The server catches its own exceptions and
/// ships `what()`; the transport rethrows it as NetError("ps_server: ...").
/// encode() references `message`, which must outlive the send, and sends
/// at most its first kMaxErrorMessageBytes.
struct ErrorMsg {
  std::string message;

  [[nodiscard]] FrameOut encode() const;
  [[nodiscard]] static ErrorMsg decode(std::span<const std::uint8_t> payload);
};

}  // namespace ss
