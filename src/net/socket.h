// Thin POSIX socket layer for the multi-process deployment.
//
// Endpoints are strings so the CLI, tests, and docs all speak one format:
//
//   unix:/path/to/ps.sock   Unix-domain stream socket (the default for
//                           single-host deployments and the CI smoke test)
//   tcp:host:port           TCP; port 0 binds an ephemeral port and
//                           Listener::endpoint() reports the concrete one
//
// `Socket` is a movable RAII fd with loop-until-complete send/recv (EINTR
// retried, SIGPIPE suppressed); failures throw NetError.  A peer closing
// the connection surfaces as `recv_frame_header` returning false when the
// EOF lands exactly on a frame boundary — the clean-shutdown signal the PS
// server's eviction logic keys off — and as a NetError mid-frame.
//
// Frames go out in one gather send (`send_frame`: the FrameOut's staged
// header and scalars plus its referenced arrays, no user-space copy) and
// come in as a header (`recv_frame_header`, which bounds the payload by the
// type before anything is read) followed by the payload (`recv_payload`,
// which can land a trailing array straight in its destination).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame.h"

namespace ss {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Send every byte of `parts`, in order, as one gather send (sendmsg;
  /// short writes and EINTR retried).
  void send_parts(std::span<const std::span<const std::uint8_t>> parts);

  /// Receive exactly `n` bytes.  Returns false iff the peer closed the
  /// connection before the first byte and `eof_ok` is set; any other
  /// shortfall throws NetError.
  [[nodiscard]] bool recv_all(void* data, std::size_t n, bool eof_ok);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Write one frame: a single gather send of its staged and referenced parts.
void send_frame(Socket& sock, const FrameOut& frame);

/// Read and validate one frame header, bounding the payload by
/// max_payload_bytes(type, shape).  Returns false on a clean EOF at a frame
/// boundary.  A longer length throws NetError before anything is allocated
/// or read: the stream cannot be resynchronised without reading those
/// bytes, so the caller must drop the connection.
[[nodiscard]] bool recv_frame_header(Socket& sock, FrameHeader& header, const WireShape& shape);

/// Read the payload `header` announced: its last `tail.size()` bytes
/// straight into `tail` (the scatter receive of a dense frame's array), the
/// bytes before them into `prefix` (resized; its capacity is reused).
/// Throws NetError if the connection is lost mid-frame.
void recv_payload(Socket& sock, const FrameHeader& header, std::vector<std::uint8_t>& prefix,
                  std::span<std::byte> tail = {});

/// recv_frame_header + recv_payload of the whole payload into `frame`.
[[nodiscard]] bool recv_frame(Socket& sock, Frame& frame, const WireShape& shape = {});

/// Connect to `endpoint` ("unix:<path>" or "tcp:<host>:<port>").
[[nodiscard]] Socket connect_endpoint(const std::string& endpoint);

/// Listening socket bound to an endpoint.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Block until a client connects.
  [[nodiscard]] Socket accept();

  /// The concrete endpoint string (tcp port 0 resolved to the bound port);
  /// what a worker passes to connect_endpoint.
  [[nodiscard]] const std::string& endpoint() const noexcept { return endpoint_; }

  void close() noexcept;

 private:
  friend Listener listen_endpoint(const std::string&, int);
  int fd_ = -1;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on close
};

/// Bind + listen on `endpoint`.  A pre-existing Unix socket path is
/// replaced (stale file from a killed server).
[[nodiscard]] Listener listen_endpoint(const std::string& endpoint, int backlog = 16);

}  // namespace ss
