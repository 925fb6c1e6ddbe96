// The benchmark's four workloads.  Each builds its inputs from the run seed,
// calls only the program's public entry points, and checks what comes back.
//
//   switch-straggler  threaded_train, BSP->ASP at 1/16, persistent 3x straggler
//   topk-wide         threaded_train ASP, 102,500-param linear model, top-k 1%
//   socket-wide       run_ps_server + 3 run_worker_process over TCP loopback
//   policy-sweep      SweepRunner{jobs=4} over {BSP, ASP, SSP, BSP->ASP} x seeds
//
// README.md explains why each was chosen and which layers it stresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// Per-layer metric values one job or replica pass measured, by metric name.
using Layers = std::map<std::string, double>;

/// One job: build the inputs from the seed (set-up), then run the fixed
/// budget (time to train).
struct JobOutcome {
  double setup_s = 0.0;
  double tta_s = 0.0;
  double final_acc = 0.0;
  std::vector<std::string> failures;  ///< correctness gates that failed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Run one job.  Its gates include an accuracy floor: the lowest final
  /// accuracy seen on seeds 1-5, minus 0.05.  With `layers` set, the job
  /// runs with the program's metrics and tracing armed (the caller arms
  /// them) and writes what they show into `layers`.
  virtual JobOutcome job(Layers* layers) = 0;

  /// Runs once after the timed jobs, on the last job's inputs.  The sweep
  /// re-runs entries serially here and requires bit-identical results.
  /// With `layers` set (traced runs) the training workloads run the replica
  /// worker loop at a quarter of the budget plus a short uncontended
  /// 1-worker pass, and write the layer times.  Returns the failed
  /// correctness gates, or nullopt when there was nothing to check (so no
  /// op is counted).
  virtual std::optional<std::vector<std::string>> finish(Layers* layers) = 0;

 protected:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}

  /// Seed of the next job's inputs (data, initial model, training streams).
  /// Every job of a run trains on inputs of its own, so a run's medians
  /// average over datasets instead of riding on one; all of them follow
  /// from the run seed.
  std::uint64_t next_job_seed() { return seed_ * 1000 + jobs_++; }

 private:
  std::uint64_t seed_;
  std::uint64_t jobs_ = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace e2e
