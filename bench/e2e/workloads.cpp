#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/sweep.h"
#include "data/synthetic.h"
#include "harness.h"
#include "net/worker_process.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "ps/threaded_runtime.h"
#include "replica.h"

namespace e2e {
namespace {

constexpr double kStragglerFactor = 3.0;
constexpr int kReplicaTrack = 100;  ///< first replica worker row in the trace
constexpr int kSoloTrack = 120;     ///< the 1-worker pass's row

std::string count_mismatch(const char* what, std::int64_t got, std::int64_t want) {
  return std::string(what) + " " + std::to_string(got) + ", expected " + std::to_string(want);
}

void gate_accuracy(JobOutcome& o, double floor) {
  if (!(o.final_acc >= floor))
    o.failures.push_back("accuracy " + std::to_string(o.final_acc) + " below floor " +
                         std::to_string(floor));
}

/// Sum and count of a histogram in the global metrics registry.
struct HistogramSample {
  double sum = 0.0;
  std::int64_t count = 0;
  [[nodiscard]] double mean_us() const {
    return count > 0 ? 1e6 * sum / static_cast<double>(count) : 0.0;
  }
};

HistogramSample histogram(const std::string& name) {
  for (const auto& h : ss::obs::metrics().snapshot().histograms)
    if (h.name == name) return {h.sum, h.count};
  return {};
}

std::int64_t counter(const std::string& name) {
  for (const auto& c : ss::obs::metrics().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

/// Layer metrics of a replica pass (`rep`) and its 1-worker twin (`solo`);
/// `wire` is "ps" or "net", `program_step_us` the program's own mean step.
/// Returns the failed gates of both passes, plus the 0.10 bound on the
/// share of a step no layer span accounts for: the layers must add up to
/// the step.
std::vector<std::string> replica_layers(const ReplicaResult& rep, const ReplicaResult& solo,
                                        const std::string& wire, double program_step_us,
                                        Layers& layers) {
  const LayerTotals& t = rep.totals;
  auto share = [&](double s) { return t.wall_s > 0.0 ? s / t.wall_s : 0.0; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  layers["nn.grad_us"] = t.us(t.grad_s);
  layers["nn.grad_share"] = share(t.grad_s);
  layers["data.batch_us"] = t.us(t.batch_s);
  layers["compress.encode_us"] = t.us(t.encode_s);
  layers["compress.encode_share"] = share(t.encode_s);
  layers[wire + ".pull_us"] = t.us(t.pull_s);
  layers[wire + ".pull_share"] = share(t.pull_s);
  layers[wire + ".push_us"] = t.us(t.push_s);
  layers[wire + ".push_share"] = share(t.push_s);
  layers[wire + ".push_wait_ratio"] = ratio(t.us(t.push_s), solo.totals.us(solo.totals.push_s));
  layers["bench.residual_share"] = t.residual_share();
  layers["bench.replica_ratio"] = ratio(t.us(t.wall_s), program_step_us);

  std::vector<std::string> f = rep.failures;
  f.insert(f.end(), solo.failures.begin(), solo.failures.end());
  if (t.residual_share() > 0.10)
    f.push_back("replica residual share " + std::to_string(t.residual_share()) +
                " exceeds 0.10");
  return f;
}

// ---------------------------------------------------------------------------
// switch-straggler and topk-wide: threaded_train on real threads.
// ---------------------------------------------------------------------------

struct ThreadedSpec {
  ss::SyntheticSpec data;
  ss::ModelArch arch = ss::ModelArch::kLinear;
  std::int64_t steps = 0;  ///< local steps per worker
  std::size_t workers = 4;
  std::size_t batch = 32;
  double lr = 0.01;
  std::size_t shards = 1;
  ss::CompressionSpec compression;
  bool bsp_to_asp = false;  ///< BSP for the first 1/16 of the steps, then ASP
  int straggler = -1;       ///< slot slowed kStragglerFactor x all run, or -1
  double floor = 0.0;       ///< accuracy gate
};

class ThreadedWorkload final : public Workload {
 public:
  ThreadedWorkload(ThreadedSpec spec, std::uint64_t seed)
      : Workload(seed), spec_(std::move(spec)) {}

  JobOutcome job(Layers* layers) override {
    JobOutcome o;
    seed_ = next_job_seed();
    spec_.data.seed = seed_;
    const Clock::time_point t0 = Clock::now();
    split_ = ss::make_synthetic(spec_.data);
    ss::Rng rng(seed_ + 1);
    model_ = ss::make_model(spec_.arch, spec_.data.feature_dim, spec_.data.num_classes, rng);
    o.setup_s = seconds_since(t0);

    const std::int64_t n = static_cast<std::int64_t>(spec_.workers);
    const std::int64_t bsp = spec_.bsp_to_asp ? spec_.steps / 16 : 0;
    ss::ThreadedTrainConfig cfg;
    cfg.num_workers = spec_.workers;
    cfg.batch_size = spec_.batch;
    cfg.steps_per_worker = spec_.steps;
    cfg.lr = spec_.lr;
    cfg.momentum = 0.9;
    cfg.seed = seed_ + 2;
    cfg.num_ps_shards = spec_.shards;
    cfg.compression = spec_.compression;
    if (spec_.bsp_to_asp)
      cfg.schedule = ss::SwitchSchedule::bsp_to_asp(bsp);
    else
      cfg.protocol = ss::Protocol::kAsp;
    if (spec_.straggler >= 0)
      cfg.stragglers = ss::StragglerSchedule::permanent(spec_.straggler, kStragglerFactor);
    // Cycle times come from the program's pre-step hook: each worker stamps
    // its own row, so the rows need no lock.
    std::vector<std::vector<Clock::time_point>> stamps;
    if (layers != nullptr) {
      stamps.resize(spec_.workers);
      for (auto& s : stamps) s.reserve(static_cast<std::size_t>(spec_.steps));
      cfg.pre_step_hook = [&stamps](std::size_t w, std::int64_t) {
        stamps[w].push_back(Clock::now());
      };
    }

    const Clock::time_point t1 = Clock::now();
    const ss::ThreadedTrainResult r = ss::threaded_train(model_, split_.train, cfg);
    o.tta_s = seconds_since(t1);

    ss::Model trained = model_.clone();
    trained.set_params(r.final_params);
    o.final_acc = trained.evaluate_accuracy(split_.test);
    const std::int64_t updates = bsp + n * (spec_.steps - bsp);
    if (r.total_updates != updates)
      o.failures.push_back(count_mismatch("PS updates", r.total_updates, updates));
    const std::int64_t push_bytes = n * spec_.steps * bytes_per_push();
    if (r.push_bytes != push_bytes)
      o.failures.push_back(count_mismatch("push bytes", r.push_bytes, push_bytes));
    for (auto& f : check_finite(r.final_params, "PS")) o.failures.push_back(std::move(f));
    gate_accuracy(o, spec_.floor);
    if (layers != nullptr) program_layers(r, o.tta_s, stamps, *layers);
    return o;
  }

  std::optional<std::vector<std::string>> finish(Layers* layers) override {
    if (layers == nullptr) return std::nullopt;
    const ReplicaResult rep =
        replica_inproc(model_, split_.train, spec_.workers, spec_.steps / 4,
                       spec_.batch, spec_.lr, spec_.shards, spec_.compression, seed_ + 3,
                       kReplicaTrack);
    const ReplicaResult solo =
        replica_inproc(model_, split_.train, 1, spec_.steps / 8,
                       spec_.batch, spec_.lr, spec_.shards, spec_.compression, seed_ + 3,
                       kSoloTrack);
    return replica_layers(rep, solo, "ps", program_step_us_, *layers);
  }

 private:
  [[nodiscard]] std::int64_t bytes_per_push() const {
    const auto p = static_cast<std::int64_t>(model_.num_params());
    if (!spec_.compression.enabled()) return 4 * p;
    // Top-k wire format: a (uint32 index, fp32 value) pair per kept
    // coordinate plus a 4-byte header.
    const std::int64_t k =
        std::llround(spec_.compression.topk_fraction * static_cast<double>(p));
    return 8 * k + 4;
  }

  /// Layer times the program itself shows: its metrics registry, its wall
  /// trace, its result struct, and the pre-step hook's stamps.
  void program_layers(const ss::ThreadedTrainResult& r, double tta_s,
                      const std::vector<std::vector<Clock::time_point>>& stamps, Layers& layers) {
    const double worker_s = static_cast<double>(spec_.workers) * tta_s;
    program_step_us_ = histogram("ss_threaded_step_seconds").mean_us();
    layers["ps.step_us"] = program_step_us_;
    layers["ps.drain_wait_share"] = histogram("ss_threaded_drain_wait_seconds").sum / worker_s;

    std::vector<double> cycles_us;
    for (const auto& row : stamps)
      for (std::size_t i = 1; i < row.size(); ++i)
        cycles_us.push_back(
            std::chrono::duration<double, std::micro>(row[i] - row[i - 1]).count());
    layers["ps.cycle_us_p50"] = quantile(cycles_us, 0.50);
    layers["ps.cycle_us_p99"] = quantile(cycles_us, 0.99);

    // From the program's trace: straggler sleeps, and in a BSP->ASP run the
    // BSP window [first phase_start, second phase_start).  A worker's round
    // barrier wait is the window minus its own step and drain spans in it;
    // the switch costs the longest drain wait that straddles the second
    // phase_start.
    const std::vector<Span> spans = read_spans(ss::obs::tracer());
    std::vector<std::int64_t> phase_starts;
    double straggler_us = 0.0;
    for (const Span& s : spans) {
      if (s.name == "phase_start") phase_starts.push_back(s.ts_us);
      if (s.name == "straggler_delay") straggler_us += static_cast<double>(s.dur_us);
    }
    layers["ps.straggler_delay_share"] = 1e-6 * straggler_us / worker_s;
    double barrier_us = 0.0;
    double transition_us = 0.0;
    if (phase_starts.size() >= 2) {
      const std::int64_t w0 = phase_starts[0];
      const std::int64_t w1 = phase_starts[1];
      barrier_us = static_cast<double>(spec_.workers) * static_cast<double>(w1 - w0);
      for (const Span& s : spans) {
        if (s.track < 1 || s.track > static_cast<int>(spec_.workers)) continue;
        if (s.ts_us < w0 || s.ts_us >= w1) continue;
        if (s.name == "step" || s.name == "drain_wait")
          barrier_us -= static_cast<double>(std::min(s.end_us(), w1) - s.ts_us);
        if (s.name == "drain_wait" && s.end_us() >= w1)
          transition_us = std::max(transition_us, static_cast<double>(s.dur_us));
      }
    }
    layers["ps.barrier_wait_share"] = 1e-6 * barrier_us / worker_s;
    layers["ps.transition_s"] = 1e-6 * transition_us;

    double bsp_s = 0.0;
    double asp_s = 0.0;
    for (const auto& ph : r.phases)
      (ph.protocol == ss::Protocol::kBsp ? bsp_s : asp_s) += ph.wall_seconds;
    layers["ps.bsp_phase_s"] = bsp_s;
    layers["ps.asp_phase_s"] = asp_s;
    layers["ps.mean_staleness"] = r.mean_staleness;
    const double dense = 4.0 * static_cast<double>(model_.num_params()) *
                         static_cast<double>(spec_.workers) * static_cast<double>(spec_.steps);
    layers["ps.push_bytes_per_update"] =
        static_cast<double>(r.push_bytes) / static_cast<double>(r.total_updates);
    layers["compress.wire_ratio"] = static_cast<double>(r.push_bytes) / dense;
  }

  ThreadedSpec spec_;
  std::uint64_t seed_ = 0;  ///< the last job's seed
  ss::DataSplit split_;
  ss::Model model_;
  double program_step_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// socket-wide: the PS in its own server loop, workers over TCP loopback.
// ---------------------------------------------------------------------------

class SocketWorkload final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 3;
  static constexpr std::int64_t kSteps = 1000;
  static constexpr double kFloor = 0.55;

  explicit SocketWorkload(std::uint64_t seed) : Workload(seed) {}

  JobOutcome job(Layers* layers) override {
    seed_ = next_job_seed();
    std::vector<ss::WorkerProcessResult> workers(kWorkers);
    const Served served =
        serve(config(kSteps, kWorkers), [&](const std::string& ep, std::size_t i) {
          workers[i] = ss::run_worker_process(ss::WorkerProcessConfig{ep, -1});
        });
    JobOutcome o;
    o.setup_s = served.listen_s;
    o.tta_s = served.run_s;
    o.final_acc = served.result.final_accuracy;

    const std::int64_t n = static_cast<std::int64_t>(kWorkers);
    const auto p = static_cast<std::int64_t>(served.result.final_params.size());
    std::int64_t push_bytes = 0;
    double staleness = 0.0;
    for (const auto& w : workers) {
      push_bytes += w.push_bytes;
      staleness += w.mean_staleness / static_cast<double>(kWorkers);
      if (w.steps != kSteps) o.failures.push_back(count_mismatch("worker steps", w.steps, kSteps));
      if (!w.drained) o.failures.push_back("a worker was not released from the drain barrier");
    }
    if (served.result.total_updates != n * kSteps)
      o.failures.push_back(count_mismatch("PS updates", served.result.total_updates, n * kSteps));
    if (served.result.workers_evicted != 0)
      o.failures.push_back(count_mismatch(
          "evictions", static_cast<std::int64_t>(served.result.workers_evicted), 0));
    if (push_bytes != n * kSteps * 4 * p)
      o.failures.push_back(count_mismatch("push bytes", push_bytes, n * kSteps * 4 * p));
    for (auto& f : check_finite(served.result.final_params, "PS"))
      o.failures.push_back(std::move(f));
    gate_accuracy(o, kFloor);

    if (layers != nullptr) {
      const auto updates = static_cast<double>(served.result.total_updates);
      double step_us = 0.0;
      std::int64_t step_count = 0;
      for (const Span& s : read_spans(ss::obs::tracer()))
        if (s.name == "step") {
          step_us += static_cast<double>(s.dur_us);
          ++step_count;
        }
      program_step_us_ = step_count > 0 ? step_us / static_cast<double>(step_count) : 0.0;
      (*layers)["ps.step_us"] = program_step_us_;
      (*layers)["ps.mean_staleness"] = staleness;
      (*layers)["ps.push_bytes_per_update"] = static_cast<double>(push_bytes) / updates;
      (*layers)["compress.wire_ratio"] =
          static_cast<double>(push_bytes) / (updates * 4.0 * static_cast<double>(p));
      (*layers)["net.bytes_per_update"] =
          static_cast<double>(counter("ss_net_bytes_sent_total")) / updates;
      (*layers)["net.frames_per_update"] =
          static_cast<double>(counter("ss_net_frames_sent_total")) / updates;
      (*layers)["net.send_frame_us"] = histogram("ss_net_send_frame_seconds").mean_us();
      (*layers)["net.recv_frame_us"] = histogram("ss_net_recv_frame_seconds").mean_us();
    }
    return o;
  }

  std::optional<std::vector<std::string>> finish(Layers* layers) override {
    if (layers == nullptr) return std::nullopt;
    // The replica trains on the dataset and model shape the server builds.
    const ss::DataSplit split = ss::make_synthetic(data_spec());
    ss::Rng rng(seed_ + 1);
    const ss::Model model = ss::make_model(ss::ModelArch::kLinear, split.train.feature_dim(),
                                           split.train.num_classes(), rng);
    const ReplicaResult rep = replica_socket(
        config(kSteps / 4, kWorkers), model, split.train, kReplicaTrack);
    const ReplicaResult solo = replica_socket(
        config(kSteps / 8, 1), model, split.train, kSoloTrack);
    return replica_layers(rep, solo, "net", program_step_us_, *layers);
  }

 private:
  [[nodiscard]] ss::SyntheticSpec data_spec() const {
    ss::SyntheticSpec d = ss::SyntheticSpec::cifar100_like();
    d.feature_dim = 1024;
    d.class_separation = 0.25;
    d.train_size = 4096;
    d.test_size = 2048;
    d.seed = seed_;
    return d;
  }

  [[nodiscard]] ss::PsServerConfig config(std::int64_t steps, std::size_t workers) const {
    ss::PsServerConfig c;
    c.listen = "tcp:127.0.0.1:0";
    c.num_workers = workers;
    c.steps_per_worker = steps;
    c.batch_size = 2;
    c.lr = 0.01;
    c.momentum = 0.9;
    c.seed = seed_ + 1;
    c.num_ps_shards = 1;
    c.snapshot_interval = 256;
    c.arch = ss::ModelArch::kLinear;
    c.data = data_spec();
    return c;
  }

  std::uint64_t seed_ = 0;  ///< the last job's seed
  double program_step_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// policy-sweep: the offline policy search on the simulator.
// ---------------------------------------------------------------------------

class SweepWorkload final : public Workload {
 public:
  static constexpr int kSeeds = 8;  ///< requests = 4 policies x kSeeds
  static constexpr double kFloor = 0.35;
  static constexpr std::size_t kThreads = 4;  ///< SweepRunner worker threads

  explicit SweepWorkload(std::uint64_t seed) : Workload(seed) {}

  JobOutcome job(Layers* layers) override {
    JobOutcome o;
    seed_ = next_job_seed();
    const Clock::time_point t0 = Clock::now();
    build();
    o.setup_s = seconds_since(t0);

    const ss::SweepRunner runner({.jobs = kThreads});
    auto& tr = ss::obs::tracer();
    const std::int64_t span_start = tr.now_us();
    const Clock::time_point t1 = Clock::now();
    outcomes_ = runner.run(requests_);
    o.tta_s = seconds_since(t1);
    if (layers != nullptr) tr.complete(0, "core.sweep", span_start, tr.now_us() - span_start);

    double acc_sum = 0.0;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      const ss::SweepOutcome& out = outcomes_[i];
      const std::string entry = "entry " + std::to_string(i);
      if (!out.error.empty()) o.failures.push_back(entry + " errored: " + out.error);
      if (out.result.diverged) o.failures.push_back(entry + " diverged");
      // BSP runs must train well past the untrained model.  The other
      // policies are exempt: on 8 workers, runs that spend most of their
      // budget asynchronous sometimes stall near chance without diverging,
      // which is the behaviour the policy search exists to find.
      if (policy_name(i) == "bsp" && !(out.result.final_accuracy > untrained_acc_ + 0.1))
        o.failures.push_back(entry + " did not train past the untrained model: accuracy " +
                             std::to_string(out.result.final_accuracy) + ", untrained " +
                             std::to_string(untrained_acc_));
      acc_sum += out.result.final_accuracy;
    }
    o.final_acc = acc_sum / static_cast<double>(outcomes_.size());
    gate_accuracy(o, kFloor);

    if (layers != nullptr) {
      std::vector<double> wall;
      std::map<std::string, std::vector<double>> by_policy;
      double steps = 0.0;
      for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        wall.push_back(outcomes_[i].wall_seconds);
        by_policy[policy_name(i)].push_back(outcomes_[i].wall_seconds);
        steps += static_cast<double>(outcomes_[i].result.steps_completed);
      }
      double busy = 0.0;
      for (const double w : wall) busy += w;
      const double pool = static_cast<double>(runner.effective_jobs(requests_.size())) * o.tta_s;
      (*layers)["core.sim_s_p50"] = median(wall);
      for (const auto& [name, v] : by_policy) (*layers)["core.sim_s." + name] = mean(v);
      (*layers)["core.pool_busy_share"] = busy / pool;
      (*layers)["core.sims_per_s"] = static_cast<double>(outcomes_.size()) / o.tta_s;
      (*layers)["sim.steps_per_s"] = steps / busy;
      (*layers)["bench.residual_share"] = 1.0 - busy / pool;
    }
    return o;
  }

  /// Serial re-run of the first entry of each policy, which must reproduce
  /// the parallel sweep's results bit for bit.
  std::optional<std::vector<std::string>> finish(Layers* layers) override {
    std::vector<std::string> f;
    const ss::SweepRunner serial({.jobs = 1});
    auto& tr = ss::obs::tracer();
    double serial_s = 0.0;
    double parallel_s = 0.0;
    for (std::size_t i = 0; i < kPolicies && i < requests_.size(); ++i) {
      const std::int64_t span_start = tr.now_us();
      const ss::SweepOutcome again = serial.run({requests_[i]}).front();
      if (layers != nullptr)
        tr.complete(1, "core.sim", span_start, tr.now_us() - span_start,
                    {ss::obs::arg("entry", static_cast<std::int64_t>(i))});
      serial_s += again.wall_seconds;
      parallel_s += outcomes_[i].wall_seconds;
      if (!identical(again.result, outcomes_[i].result))
        f.push_back("serial re-run of entry " + std::to_string(i) + " (" + policy_name(i) +
                    ") differs from the parallel sweep");
    }
    if (layers != nullptr) (*layers)["bench.replica_ratio"] = serial_s / parallel_s;
    return f;
  }

 private:
  static constexpr std::size_t kPolicies = 4;

  /// Requests are laid out policy-minor: entry i runs policy i % 4.
  static std::string policy_name(std::size_t i) {
    static const char* names[kPolicies] = {"bsp", "asp", "ssp", "switch"};
    return names[i % kPolicies];
  }

  static bool identical(const ss::RunResult& a, const ss::RunResult& b) {
    auto same_acc = [](const ss::AccuracyPoint& x, const ss::AccuracyPoint& y) {
      return x.step == y.step && x.seconds == y.seconds && x.accuracy == y.accuracy;
    };
    auto same_loss = [](const ss::LossPoint& x, const ss::LossPoint& y) {
      return x.step == y.step && x.seconds == y.seconds && x.loss == y.loss;
    };
    return a.diverged == b.diverged && a.converged == b.converged &&
           a.converged_accuracy == b.converged_accuracy && a.final_accuracy == b.final_accuracy &&
           a.train_time_seconds == b.train_time_seconds && a.mean_staleness == b.mean_staleness &&
           a.final_train_loss == b.final_train_loss && a.steps_completed == b.steps_completed &&
           std::equal(a.accuracy_curve.begin(), a.accuracy_curve.end(),
                      b.accuracy_curve.begin(), b.accuracy_curve.end(), same_acc) &&
           std::equal(a.loss_curve.begin(), a.loss_curve.end(), b.loss_curve.begin(),
                      b.loss_curve.end(), same_loss);
  }

  /// Set-up: the request grid, plus the dataset and untrained model the
  /// collapse gate compares against.
  void build() {
    ss::Workload w;
    w.arch = ss::ModelArch::kResNet32Lite;
    w.data = ss::SyntheticSpec::cifar10_like();
    w.data.train_size = 4096;
    w.data.test_size = 1024;
    w.data.seed = seed_;
    w.total_steps = 256;
    w.hyper.batch_size = 64;
    w.hyper.learning_rate = 0.05;
    w.hyper.momentum = 0.9;
    w.eval_interval = 32;

    const ss::DataSplit split = ss::make_synthetic(w.data);
    ss::Rng rng(seed_ + 1);
    ss::Model model = ss::make_model(w.arch, w.data.feature_dim, w.data.num_classes, rng);
    untrained_acc_ = model.evaluate_accuracy(split.test);

    const ss::SyncSwitchPolicy policies[kPolicies] = {
        ss::SyncSwitchPolicy::pure(ss::Protocol::kBsp),
        ss::SyncSwitchPolicy::pure(ss::Protocol::kAsp),
        ss::SyncSwitchPolicy::pure(ss::Protocol::kSsp),
        ss::SyncSwitchPolicy::bsp_to_asp(0.0625)};
    requests_.clear();
    for (int s = 0; s < kSeeds; ++s)
      for (const auto& policy : policies) {
        ss::RunRequest req;
        req.workload = w;
        req.cluster.num_workers = 8;
        req.policy = policy;
        req.seed = seed_ * 1000 + static_cast<std::uint64_t>(s);
        requests_.push_back(std::move(req));
      }
  }

  std::uint64_t seed_ = 0;  ///< the current job's seed
  double untrained_acc_ = 0.0;
  std::vector<ss::RunRequest> requests_;
  std::vector<ss::SweepOutcome> outcomes_;
};

ThreadedSpec switch_straggler_spec() {
  ThreadedSpec s;
  s.data = ss::SyntheticSpec::cifar10_like();
  s.data.train_size = 8192;
  s.data.test_size = 2048;
  s.arch = ss::ModelArch::kResNet32Lite;
  s.steps = 800;
  s.batch = 32;
  s.bsp_to_asp = true;
  s.straggler = 3;
  s.floor = 0.78;
  return s;
}

ThreadedSpec topk_wide_spec() {
  ThreadedSpec s;
  s.data = ss::SyntheticSpec::cifar100_like();
  s.data.feature_dim = 1024;
  s.data.class_separation = 0.25;
  s.data.train_size = 4096;
  s.data.test_size = 2048;
  s.arch = ss::ModelArch::kLinear;
  s.steps = 500;
  s.batch = 2;
  s.shards = 4;
  s.compression = ss::CompressionSpec::topk(0.01);
  s.floor = 0.61;
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"switch-straggler", "topk-wide", "socket-wide",
                                                 "policy-sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "switch-straggler")
    return std::make_unique<ThreadedWorkload>(switch_straggler_spec(), seed);
  if (name == "topk-wide") return std::make_unique<ThreadedWorkload>(topk_wide_spec(), seed);
  if (name == "socket-wide") return std::make_unique<SocketWorkload>(seed);
  if (name == "policy-sweep") return std::make_unique<SweepWorkload>(seed);
  return nullptr;
}

}  // namespace e2e
