#include "ps/param_server.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/error.h"

namespace ss {

namespace {

/// Copy the [r.begin, r.end) slice of `from` into the same slice of `to`.
template <typename Range>
void copy_range(std::span<const float> from, std::span<float> to, const Range& r) {
  std::copy(from.begin() + static_cast<std::ptrdiff_t>(r.begin),
            from.begin() + static_cast<std::ptrdiff_t>(r.end),
            to.begin() + static_cast<std::ptrdiff_t>(r.begin));
}

// Ask for the lines a sparse run will write, each index's parameter and its
// velocity, in a writable state, before the shard lock is taken.  Between
// pushes the other workers' pulls hold those lines shared in their caches,
// so each write would otherwise first claim its line from them, one after
// another, with the lock held.  These are hints only: no element is read
// or written, so results do not change.  The loop is inline asm because a
// loop of __builtin_prefetch calls has no effect GCC must keep, and GCC 12
// deletes it.  It stays out of line so that tools/check_isa_leak.py finds
// every prefetchw in a function whose name says `prfchw`.
#if defined(__x86_64__) || defined(__i386__)
[[gnu::noinline]] void prefetch_for_write_prfchw(const float* params, const float* velocity,
                                                 std::span<const std::uint32_t> indices) {
  for (const std::uint32_t i : indices) {
    asm volatile("prefetchw %0" ::"m"(params[i]));
    asm volatile("prefetchw %0" ::"m"(velocity[i]));
  }
}

void prefetch_for_write(const float* params, const float* velocity,
                        std::span<const std::uint32_t> indices) {
  // A function-local static, as for has_avx2() in tensor/ops.cpp.
  static const bool has_prfchw = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("prfchw") != 0;
  }();
  if (has_prfchw) prefetch_for_write_prfchw(params, velocity, indices);
}
#else
void prefetch_for_write(const float*, const float*, std::span<const std::uint32_t>) {}
#endif

}  // namespace

SharedParameterServer::SharedParameterServer(std::vector<float> init_params, double momentum,
                                             std::size_t num_shards)
    : params_(std::move(init_params)), opt_(params_.size(), momentum) {
  if (params_.empty()) throw ConfigError("SharedParameterServer: empty parameter vector");
  versions_.assign(std::clamp<std::size_t>(num_shards, 1, params_.size()), 0);
  mu_ = std::vector<std::mutex>(versions_.size());
}

SharedParameterServer::Range SharedParameterServer::range(std::size_t shard) const noexcept {
  const std::size_t base = params_.size() / num_shards();
  const std::size_t extra = params_.size() % num_shards();
  // The first `extra` shards get base + 1 elements.
  const std::size_t begin = shard * base + std::min(shard, extra);
  return {begin, begin + base + (shard < extra ? 1 : 0)};
}

std::size_t SharedParameterServer::shard_of(std::size_t index) const noexcept {
  const std::size_t base = params_.size() / num_shards();
  const std::size_t extra = params_.size() % num_shards();
  const std::size_t wide = extra * (base + 1);
  return index < wide ? index / (base + 1) : extra + (index - wide) / base;
}

void SharedParameterServer::pull(std::span<float> out) const {
  if (out.size() != params_.size())
    throw ConfigError("SharedParameterServer::pull: size mismatch");
  for_each_shard([&](std::size_t, Range r) { copy_range(params_, out, r); });
}

void SharedParameterServer::pull_with_versions(std::span<float> out,
                                               std::vector<std::int64_t>& versions) const {
  if (out.size() != params_.size())
    throw ConfigError("SharedParameterServer::pull_with_versions: size mismatch");
  versions.resize(num_shards());
  for_each_shard([&](std::size_t s, Range r) {
    copy_range(params_, out, r);
    versions[s] = versions_[s];
  });
}

std::vector<float> SharedParameterServer::snapshot() const {
  std::vector<float> out(params_.size());
  pull(out);
  return out;
}

std::int64_t SharedParameterServer::push(std::span<const float> grad, double lr,
                                         std::span<const std::int64_t> pull_versions) {
  if (grad.size() != params_.size())
    throw ConfigError("SharedParameterServer::push: gradient size mismatch");
  if (pull_versions.size() != num_shards())
    throw ConfigError("SharedParameterServer::push: shard count mismatch");
  std::int64_t staleness = 0;
  for_each_shard([&](std::size_t s, Range r) {
    staleness = std::max(staleness, versions_[s] - pull_versions[s]);
    opt_.apply_range(std::span<float>(params_).subspan(r.begin, r.size()),
                     grad.subspan(r.begin, r.size()), lr, r.begin);
    ++versions_[s];
  });
  return staleness;
}

std::int64_t SharedParameterServer::push_compressed(const ValidatedPush& validated, double lr,
                                                    std::span<const std::int64_t> pull_versions) {
  const CompressedPush& push = *validated;
  if (push.num_params != params_.size())
    throw ConfigError("SharedParameterServer::push_compressed: decoded length " +
                      std::to_string(push.num_params) + " does not match the parameter count " +
                      std::to_string(params_.size()));
  if (pull_versions.size() != num_shards())
    throw ConfigError("SharedParameterServer::push_compressed: shard count mismatch");
  if (!push.sparse()) return this->push(push.values, lr, pull_versions);
  // The indices are strictly ascending and in range (ValidatedPush), so
  // each maximal run owned by one shard is applied under that shard's lock
  // alone, in ascending shard order; shards owning no index are skipped.
  const std::span<const std::uint32_t> indices(push.indices);
  const std::span<const float> values(push.values);
  std::int64_t staleness = 0;
  for (std::size_t lo = 0; lo < indices.size();) {
    const std::size_t s = shard_of(indices[lo]);
    const std::size_t end = range(s).end;
    std::size_t hi = lo + 1;
    while (hi < indices.size() && indices[hi] < end) ++hi;
    const std::span<const std::uint32_t> run = indices.subspan(lo, hi - lo);
    prefetch_for_write(params_.data(), opt_.velocity().data(), run);
    const std::lock_guard<std::mutex> lock(mu_[s]);
    staleness = std::max(staleness, versions_[s] - pull_versions[s]);
    opt_.apply_sparse(params_, run, values.subspan(lo, hi - lo), lr);
    ++versions_[s];
    lo = hi;
  }
  return staleness;
}

std::int64_t SharedParameterServer::staleness_since(std::span<const std::int64_t> pulled) const {
  if (pulled.size() != num_shards())
    throw ConfigError("SharedParameterServer::staleness_since: shard count mismatch");
  std::int64_t staleness = 0;
  for_each_shard([&](std::size_t s, Range) {
    staleness = std::max(staleness, versions_[s] - pulled[s]);
  });
  return staleness;
}

void SharedParameterServer::set_params(std::span<const float> params) {
  if (params.size() != params_.size())
    throw ConfigError("SharedParameterServer::set_params: size mismatch");
  for_each_shard([&](std::size_t s, Range r) {
    copy_range(params, params_, r);
    ++versions_[s];
  });
}

void SharedParameterServer::set_momentum(double momentum) noexcept {
  // Every shard's apply reads the one momentum value: hold all the locks,
  // taken in ascending order like every other walk.  The setter is
  // noexcept, so every lock taken is released.
  for (std::mutex& m : mu_) m.lock();
  opt_.set_momentum(momentum);
  for (std::mutex& m : mu_) m.unlock();
}

Checkpoint SharedParameterServer::snapshot_checkpoint(std::int64_t logical_step) const {
  Checkpoint ckpt;
  ckpt.global_step = logical_step;
  ckpt.params.resize(params_.size());
  ckpt.velocity.resize(params_.size());
  ckpt.num_shards = static_cast<std::uint64_t>(num_shards());
  ckpt.shard_versions.resize(num_shards());
  for_each_shard([&](std::size_t s, Range r) {
    copy_range(params_, ckpt.params, r);
    copy_range(opt_.velocity(), ckpt.velocity, r);
    ckpt.shard_versions[s] = versions_[s];
  });
  return ckpt;
}

void SharedParameterServer::restore(const Checkpoint& ckpt) {
  if (ckpt.params.size() != params_.size() || ckpt.velocity.size() != params_.size())
    throw CheckpointError("SharedParameterServer::restore: checkpoint size mismatch");
  if (ckpt.num_shards > 1 && ckpt.num_shards != static_cast<std::uint64_t>(num_shards()))
    throw CheckpointError("SharedParameterServer::restore: shard layout mismatch");
  if (ckpt.num_shards > 1 && ckpt.shard_versions.size() != ckpt.num_shards)
    throw CheckpointError("SharedParameterServer::restore: checkpoint declares " +
                          std::to_string(ckpt.num_shards) + " shards but carries " +
                          std::to_string(ckpt.shard_versions.size()) + " shard versions");
  for_each_shard([&](std::size_t, Range r) {
    copy_range(ckpt.params, params_, r);
    copy_range(ckpt.velocity, opt_.mutable_velocity(), r);
  });
}

bool SharedParameterServer::healthy() const {
  // A float is NaN or infinite exactly when its exponent bits are all set.
  // OR-reducing that test over the whole shard, with no early exit, has no
  // branch per element, so it vectorises.
  std::uint32_t non_finite = 0;
  for_each_shard([&](std::size_t, Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i)
      non_finite |= (std::bit_cast<std::uint32_t>(params_[i]) & 0x7F800000u) == 0x7F800000u;
  });
  return non_finite == 0;
}

}  // namespace ss
