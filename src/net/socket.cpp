#include "net/socket.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "obs/obs.h"

namespace ss {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

// Wire-layer instrumentation handles, registered lazily on the first frame
// sent/received with observability enabled (send_frame/recv_payload guard on
// obs::enabled(), so an obs-off process never touches the registry).  Byte
// histograms count the full frame (header + payload) — the quantity the
// simulator's transfer_time pricing charges — so real wire-cost
// distributions diff directly against simulated ones.
struct WireMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Histogram& sent_frame_bytes;
  obs::Histogram& recv_frame_bytes;
  obs::Histogram& send_seconds;
  obs::Histogram& recv_seconds;
};

WireMetrics& wire_metrics() {
  static WireMetrics* m = [] {
    auto& reg = obs::metrics();
    const std::vector<double> byte_buckets{64,      256,     1024,     4096,    16384,
                                           65536,   262144,  1048576,  4194304, 16777216};
    const std::vector<double> time_buckets{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0};
    return new WireMetrics{
        reg.counter("ss_net_frames_sent_total", "Frames written to a socket"),
        reg.counter("ss_net_frames_received_total", "Frames read from a socket"),
        reg.counter("ss_net_bytes_sent_total", "Frame bytes written (header + payload)"),
        reg.counter("ss_net_bytes_received_total", "Frame bytes read (header + payload)"),
        reg.histogram("ss_net_sent_frame_bytes", byte_buckets,
                      "Per-frame wire cost, send side (bytes)"),
        reg.histogram("ss_net_recv_frame_bytes", byte_buckets,
                      "Per-frame wire cost, receive side (bytes)"),
        reg.histogram("ss_net_send_frame_seconds", time_buckets,
                      "Blocking send time per frame (seconds)"),
        reg.histogram("ss_net_recv_frame_seconds", time_buckets,
                      "Payload receive time per frame (seconds; header wait excluded)"),
    };
  }();
  return *m;
}

/// Split "unix:<path>" / "tcp:<host>:<port>".  A bare path (contains '/')
/// is accepted as a Unix endpoint for convenience.
struct ParsedEndpoint {
  bool is_unix = true;
  std::string path;  // unix
  std::string host;  // tcp
  std::string port;  // tcp (string form for getaddrinfo)
};

ParsedEndpoint parse_endpoint(const std::string& endpoint) {
  ParsedEndpoint ep;
  if (endpoint.rfind("unix:", 0) == 0) {
    ep.path = endpoint.substr(5);
  } else if (endpoint.rfind("tcp:", 0) == 0) {
    ep.is_unix = false;
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size())
      throw NetError("endpoint '" + endpoint + "': expected tcp:<host>:<port>");
    ep.host = rest.substr(0, colon);
    ep.port = rest.substr(colon + 1);
  } else if (endpoint.find('/') != std::string::npos) {
    ep.path = endpoint;
  } else {
    throw NetError("endpoint '" + endpoint +
                   "': expected unix:<path> or tcp:<host>:<port>");
  }
  if (ep.is_unix && ep.path.empty())
    throw NetError("endpoint '" + endpoint + "': empty unix path");
  if (ep.is_unix && ep.path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw NetError("endpoint '" + endpoint + "': unix path too long");
  return ep;
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_parts(std::span<const std::span<const std::uint8_t>> parts) {
  if (fd_ < 0) throw NetError("Socket::send_parts: socket closed");
  std::array<iovec, FrameOut::kMaxParts> iov{};
  if (parts.size() > iov.size()) throw NetError("Socket::send_parts: too many parts");
  std::size_t n = 0;
  for (const auto& p : parts)
    if (!p.empty()) iov[n++] = {const_cast<std::uint8_t*>(p.data()), p.size()};
  iovec* next = iov.data();
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = n;
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t sent = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("Socket::send_parts");
    }
    // Drop the parts fully written; trim the one the short write cut into.
    auto left = static_cast<std::size_t>(sent);
    while (n > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --n;
    }
    if (n > 0) {
      next->iov_base = static_cast<std::uint8_t*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
}

bool Socket::recv_all(void* data, std::size_t n, bool eof_ok) {
  if (fd_ < 0) throw NetError("Socket::recv_all: socket closed");
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("Socket::recv_all");
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw NetError("Socket::recv_all: connection closed mid-message");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void send_frame(Socket& sock, const FrameOut& frame) {
  FrameOut::Parts parts;
  const std::span<const std::span<const std::uint8_t>> wire(parts.data(), frame.gather(parts));
  if (!obs::enabled()) {
    sock.send_parts(wire);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  sock.send_parts(wire);
  const auto t1 = std::chrono::steady_clock::now();
  WireMetrics& m = wire_metrics();
  const auto n = static_cast<std::int64_t>(kFrameHeaderBytes + frame.payload_bytes());
  m.frames_sent.add();
  m.bytes_sent.add(n);
  m.sent_frame_bytes.observe(static_cast<double>(n));
  m.send_seconds.observe(std::chrono::duration<double>(t1 - t0).count());
  if (obs::tracing()) {
    auto& tr = obs::tracer();
    tr.complete(obs::thread_track(), std::string("send ") + msg_type_name(frame.type()),
                tr.to_us(t0), tr.to_us(t1) - tr.to_us(t0), {obs::arg("bytes", n)});
  }
}

bool recv_frame_header(Socket& sock, FrameHeader& header, const WireShape& shape) {
  std::array<std::uint8_t, kFrameHeaderBytes> raw{};
  if (!sock.recv_all(raw.data(), raw.size(), /*eof_ok=*/true)) return false;
  header = decode_frame_header(raw);
  const std::uint64_t bound = max_payload_bytes(header.type, shape);
  if (header.payload_bytes > bound)
    throw NetError(std::string("Frame: ") + msg_type_name(header.type) + " payload of " +
                   std::to_string(header.payload_bytes) + " bytes exceeds its " +
                   std::to_string(bound) + "-byte bound");
  return true;
}

void recv_payload(Socket& sock, const FrameHeader& header, std::vector<std::uint8_t>& prefix,
                  std::span<std::byte> tail) {
  if (tail.size() > header.payload_bytes)
    throw NetError("recv_payload: destination larger than the payload");
  // The span clock starts after the header: header blocking time is mostly
  // idle wait for the peer to speak, not transfer cost.
  const bool obs_on = obs::enabled();
  using Clock = std::chrono::steady_clock;
  const auto t0 = obs_on ? Clock::now() : Clock::time_point{};
  prefix.resize(header.payload_bytes - tail.size());
  if (!prefix.empty()) (void)sock.recv_all(prefix.data(), prefix.size(), /*eof_ok=*/false);
  if (!tail.empty()) (void)sock.recv_all(tail.data(), tail.size(), /*eof_ok=*/false);
  if (!obs_on) return;
  const auto t1 = Clock::now();
  WireMetrics& m = wire_metrics();
  const auto n = static_cast<std::int64_t>(kFrameHeaderBytes + header.payload_bytes);
  m.frames_received.add();
  m.bytes_received.add(n);
  m.recv_frame_bytes.observe(static_cast<double>(n));
  m.recv_seconds.observe(std::chrono::duration<double>(t1 - t0).count());
  if (obs::tracing()) {
    auto& tr = obs::tracer();
    tr.complete(obs::thread_track(), std::string("recv ") + msg_type_name(header.type),
                tr.to_us(t0), tr.to_us(t1) - tr.to_us(t0), {obs::arg("bytes", n)});
  }
}

bool recv_frame(Socket& sock, Frame& frame, const WireShape& shape) {
  FrameHeader header;
  if (!recv_frame_header(sock, header, shape)) return false;
  frame.type = header.type;
  recv_payload(sock, header, frame.payload);
  return true;
}

Socket connect_endpoint(const std::string& endpoint) {
  const ParsedEndpoint ep = parse_endpoint(endpoint);
  if (ep.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("connect_endpoint: socket");
    Socket sock(fd);
    const sockaddr_un addr = make_unix_addr(ep.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
      throw_errno("connect_endpoint: connect " + endpoint);
    return sock;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
  if (rc != 0)
    throw NetError("connect_endpoint: resolve " + endpoint + ": " + gai_strerror(rc));
  Socket sock;
  std::string last_error = "no addresses";
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      sock = Socket(fd);
      break;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (!sock.valid())
    throw NetError("connect_endpoint: connect " + endpoint + ": " + last_error);
  return sock;
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)),
      unix_path_(std::move(other.unix_path_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
    unix_path_ = std::move(other.unix_path_);
  }
  return *this;
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Socket Listener::accept() {
  if (fd_ < 0) throw NetError("Listener::accept: listener closed");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    throw_errno("Listener::accept");
  }
}

Listener listen_endpoint(const std::string& endpoint, int backlog) {
  const ParsedEndpoint ep = parse_endpoint(endpoint);
  Listener listener;
  if (ep.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("listen_endpoint: socket");
    listener.fd_ = fd;
    ::unlink(ep.path.c_str());  // stale socket file from a killed server
    const sockaddr_un addr = make_unix_addr(ep.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
      throw_errno("listen_endpoint: bind " + endpoint);
    listener.unix_path_ = ep.path;
    listener.endpoint_ = "unix:" + ep.path;
  } else {
    addrinfo hints{};
    hints.ai_family = AF_INET;  // deterministic endpoint() string form
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
    if (rc != 0)
      throw NetError("listen_endpoint: resolve " + endpoint + ": " + gai_strerror(rc));
    int fd = -1;
    for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) throw_errno("listen_endpoint: bind " + endpoint);
    listener.fd_ = fd;
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
      throw_errno("listen_endpoint: getsockname");
    listener.endpoint_ = "tcp:" + ep.host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(listener.fd_, backlog) != 0) throw_errno("listen_endpoint: listen");
  return listener;
}

}  // namespace ss
