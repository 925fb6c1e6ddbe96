// Library error types.  We follow the Core Guidelines (E.14): distinct
// exception types per failure category, all rooted in std::runtime_error so
// callers can catch coarsely or finely.
#pragma once

#include <stdexcept>
#include <string>

namespace ss {

/// Invalid configuration supplied by the caller (bad cluster size,
/// inconsistent hyper-parameters, ...).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Shape/dimension mismatch in tensor or layer plumbing.
class ShapeError : public std::runtime_error {
 public:
  explicit ShapeError(const std::string& what) : std::runtime_error(what) {}
};

/// A file could not be opened, read or written.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// A checkpoint does not fit the server it is restored into (size or shard
/// layout).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Transport-layer failure: malformed wire frame, socket error, peer
/// disconnect, or a protocol violation between worker and PS server.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace ss
