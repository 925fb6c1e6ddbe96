// In-process Transport backend: a zero-copy forwarding shim over
// SharedParameterServer (ps/param_server.h).
//
// This is the backend the threaded runtime's worker slots step against.
// Every method forwards to the server's identically-named call (push_pull:
// push, then pull_with_versions), so routing the runtime through the seam
// changes nothing observable:
// the threaded determinism corpus and the conformance suite hold it to the
// direct calls bit for bit.
//
// The shim borrows the server; the owner (threaded_train) keeps it alive for
// the transport's lifetime.  Thread-safety is inherited from
// SharedParameterServer's per-shard locking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/transport.h"
#include "ps/param_server.h"

namespace ss {

class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(SharedParameterServer& ps) : ps_(ps) {}

  [[nodiscard]] std::size_t num_params() const override { return ps_.num_params(); }
  [[nodiscard]] std::size_t num_shards() const override { return ps_.num_shards(); }

  void pull_with_versions(std::span<float> out,
                          std::vector<std::int64_t>& versions) override {
    ps_.pull_with_versions(out, versions);
  }

  std::int64_t push(std::span<const float> grad, double lr,
                    std::span<const std::int64_t> pull_versions) override {
    return ps_.push(grad, lr, pull_versions);
  }

  std::int64_t push_compressed(const CompressedPush& push, double lr,
                               std::span<const std::int64_t> pull_versions) override {
    return ps_.push_compressed(push, lr, pull_versions);
  }

  std::int64_t push_pull(std::span<const float> grad, double lr, std::span<float> out,
                         std::vector<std::int64_t>& versions) override {
    const std::int64_t staleness = ps_.push(grad, lr, versions);
    ps_.pull_with_versions(out, versions);
    return staleness;
  }

  std::int64_t push_pull_compressed(const CompressedPush& push, double lr, std::span<float> out,
                                    std::vector<std::int64_t>& versions) override {
    const std::int64_t staleness = ps_.push_compressed(push, lr, versions);
    ps_.pull_with_versions(out, versions);
    return staleness;
  }

 private:
  SharedParameterServer& ps_;
};

}  // namespace ss
