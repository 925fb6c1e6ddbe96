#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace ss {

namespace {

/// One split shared by every entry with the same data spec.  The first
/// entry that simulates builds it, so an all-cache-hit group builds nothing;
/// the last entry to finish frees it.
struct SharedSplit {
  const SyntheticSpec* spec = nullptr;
  std::once_flag built;
  std::optional<DataSplit> split;
  std::atomic<std::size_t> users{0};

  const DataSplit& get() {
    std::call_once(built, [this] { split.emplace(make_synthetic(*spec)); });
    return *split;
  }
  void release() {
    if (users.fetch_sub(1, std::memory_order_acq_rel) == 1) split.reset();
  }
};

SweepOutcome evaluate_one(const RunRequest& request, SharedSplit& data, const RunCache* cache) {
  SweepOutcome out;
  const auto start = std::chrono::steady_clock::now();
  try {
    std::optional<RunResult> cached;
    if (cache) cached = cache->load(request);
    if (cached) {
      out.result = std::move(*cached);
      out.from_cache = true;
    } else {
      out.result = TrainingSession(request, data.get()).run();
      if (cache) cache->store(request, out.result);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  data.release();
  out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace

std::size_t SweepRunner::effective_jobs(std::size_t num_requests) const {
  std::size_t jobs = options_.jobs;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(jobs, 1, std::max<std::size_t>(num_requests, 1));
}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<RunRequest>& requests) const {
  std::vector<SweepOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;

  // Group the entries by data spec: one shared split per distinct spec.
  std::vector<std::size_t> group(requests.size());
  std::vector<const SyntheticSpec*> specs;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SyntheticSpec& spec = requests[i].workload.data;
    const auto it = std::find_if(specs.begin(), specs.end(),
                                 [&](const SyntheticSpec* s) { return *s == spec; });
    group[i] = static_cast<std::size_t>(it - specs.begin());
    if (it == specs.end()) specs.push_back(&spec);
  }
  std::vector<SharedSplit> splits(specs.size());
  for (std::size_t g = 0; g < specs.size(); ++g) splits[g].spec = specs[g];
  for (const std::size_t g : group) splits[g].users.fetch_add(1, std::memory_order_relaxed);
  auto evaluate = [&](std::size_t i) {
    return evaluate_one(requests[i], splits[group[i]], options_.cache);
  };

  const std::size_t jobs = effective_jobs(requests.size());
  if (jobs == 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) outcomes[i] = evaluate(i);
    return outcomes;
  }

  // Work-stealing off a shared counter: each worker claims the next
  // unclaimed request, so a few expensive configs don't idle the pool.
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) return;
      outcomes[i] = evaluate(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  return outcomes;
}

}  // namespace ss
