// The runtime layer of the simulator: real math driven by the DES core.
//
// `run_phase` is a thin driver — it maps the protocol onto one of two
// generic schedulers from `sim/des_engine.h` and supplies the math:
//
//  * synchronous family (BSP, K-sync, K-batch-sync): `plan_round` plans each
//    round's admitted contributions; `run_rounds` computes the winning
//    gradients against the shared snapshot and applies their average.  BSP
//    is exactly K-sync with K = n.
//  * event-driven family (ASP, SSP, DSSP, K-async, K-batch-async): a
//    `DesEngine` runs each worker's pull→compute→push lifecycle under the
//    protocol's admission rules; `EventDrivenProcess` does the
//    pull/compute/apply work when the engine's events fire.
//
// Every update of either family — one ASP push, one K-async buffer, one BSP
// round — ends in the same tail, `Phase::commit`: set lr and momentum, push,
// report, check divergence, evaluate, poll the stop predicate and the
// budget.  The drivers differ only in how they form the update and report
// its tasks (always before the update).
#include "ps/sim_runtime.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "common/error.h"
#include "tensor/ops.h"

namespace ss {

namespace {

/// Wire bytes of one gradient push.  Compression shrinks the push in
/// proportion to the codec's wire ratio, applied to the *calibrated* payload
/// model rather than the raw parameter count, so setups whose payload_bytes
/// stands in for a larger real model keep a faithful relative speedup.
double push_wire_bytes(const ClusterModel& cluster, const PhaseConfig& cfg, std::size_t p) {
  return cfg.compressor ? cluster.spec().payload_bytes *
                              static_cast<double>(cfg.compressor->wire_bytes(p)) /
                              (static_cast<double>(p) * sizeof(float))
                        : cluster.spec().payload_bytes;
}

/// Effective K for the K-variant protocols: defaults to the active cluster
/// size, clamped to [1, n].
std::size_t effective_k(const PhaseConfig& cfg, std::size_t n) {
  const std::size_t k = cfg.k_param > 0 ? static_cast<std::size_t>(cfg.k_param) : n;
  return std::clamp<std::size_t>(k, 1, n);
}

}  // namespace

struct SimRuntime::Phase {
  Phase(SimRuntime& runtime, TrainingState& st, const PhaseConfig& config,
        const StragglerSchedule& slow, const StopPredicate& stop_predicate)
      : rt(runtime),
        state(st),
        cfg(config),
        stragglers(slow),
        stop(stop_predicate),
        b(config.per_worker_batch),
        push_bytes(push_wire_bytes(runtime.cluster_, config, st.ps.num_params())),
        start(st.clock),
        eval_bucket(st.global_step / std::max<std::int64_t>(config.eval_interval, 1)),
        batch_x({config.per_worker_batch, runtime.train_.feature_dim()}),
        grad(st.ps.num_params()),
        grad_sum(st.ps.num_params()) {}

  /// Compute the gradient of the minibatch `indices` at `params` into
  /// `grad` and charge its push; returns the minibatch loss.
  double gradient(const std::vector<float>& params, const std::vector<std::uint32_t>& indices) {
    rt.train_.gather(indices, batch_x, batch_y);
    result.push_bytes += std::llround(push_bytes);
    return rt.grad_model_.gradient_at(params, batch_x, batch_y, grad);
  }

  /// The tail of every update of `steps` minibatch gradients: set lr and
  /// momentum for the current step, `push(lr)` (which returns the summed
  /// staleness of the update's gradients), advance the clock to `at`, report
  /// the update, then check divergence, evaluate on a new eval bucket, and
  /// poll the stop predicate and the budget.  Returns true when the phase
  /// ends.
  template <class Push>
  bool commit(VTime at, std::int64_t steps, double loss, Push&& push) {
    const double mult = cfg.lr_multiplier_schedule ? cfg.lr_multiplier_schedule(state.global_step)
                                                   : cfg.lr_multiplier;
    const double lr = cfg.lr_schedule->at(state.global_step) * mult;
    state.ps.set_momentum(cfg.momentum_schedule ? cfg.momentum_schedule(result.steps_done)
                                                : cfg.momentum);
    const std::int64_t staleness = push(lr);
    state.clock = at;
    state.global_step += steps;
    result.steps_done += steps;
    total_staleness += staleness;
    contributions += steps;
    rt.sink_.on_update({state.global_step, at, loss, staleness / steps, cfg.protocol});

    if (!std::isfinite(loss) || loss > cfg.divergence_loss_threshold || !state.ps.healthy()) {
      result.end = PhaseEnd::kDiverged;
      return true;
    }
    if (cfg.eval_interval > 0 && state.global_step / cfg.eval_interval != eval_bucket) {
      eval_bucket = state.global_step / cfg.eval_interval;
      state.ps.pull(rt.eval_model_.params());
      rt.sink_.on_eval(state.global_step, at, rt.eval_model_.evaluate_accuracy(rt.eval_set_));
    }
    if (stop && stop(at, state.global_step)) {
      result.end = PhaseEnd::kStopRequested;
      result.trigger_step = state.global_step;
      return true;
    }
    return result.steps_done >= cfg.step_budget;
  }

  /// The phase's result, completed with its mean staleness and elapsed time.
  PhaseResult finish() {
    if (contributions > 0)
      result.mean_staleness =
          static_cast<double>(total_staleness) / static_cast<double>(contributions);
    result.elapsed = state.clock - start;
    return result;
  }

  SimRuntime& rt;
  TrainingState& state;
  const PhaseConfig& cfg;
  const StragglerSchedule& stragglers;
  const StopPredicate& stop;
  const std::size_t b;
  const double push_bytes;  ///< modelled wire bytes of one push
  const VTime start;
  std::int64_t eval_bucket;  ///< global_step / eval_interval at the last eval
  PhaseResult result;
  std::int64_t total_staleness = 0;
  std::int64_t contributions = 0;  ///< minibatch gradients applied
  Tensor batch_x;
  std::vector<int> batch_y;
  std::vector<float> grad;
  std::vector<float> grad_sum;
};

/// The WorkerProcess behind every event-driven protocol.  The engine decides
/// *when* a pull or push fires; this class performs the work:
///
///  * apply-each mode (ASP/SSP/DSSP): each arriving push is applied
///    immediately; staleness is measured against the per-shard versions
///    captured at pull time.  Admission (parking, DSSP credit) lives in the
///    engine.
///  * buffered mode (K-async/K-batch-async, Dutta et al. [11]): pushes are
///    buffered and their average applied once K have arrived (K-async: from
///    K distinct workers; K-batch-async: any K).  Buffered gradients carry
///    the staleness of their own pull.
class SimRuntime::EventDrivenProcess final : public WorkerProcess {
 public:
  EventDrivenProcess(Phase& phase, std::size_t k, bool buffered, bool distinct_workers)
      : ph_(phase),
        k_(k),
        buffered_(buffered),
        distinct_(distinct_workers),
        inflight_(phase.state.samplers.size()) {
    buffer_.reserve(k_ + inflight_.size());
  }

  /// Pre-size a worker's pull buffer before its kickoff pull is scheduled.
  void prepare_worker(int worker) {
    inflight_[static_cast<std::size_t>(worker)].snapshot.resize(ph_.state.ps.num_params());
  }

  VTime pull_latency(int worker, VTime now) override {
    return ph_.rt.cluster_.transfer_time(ph_.stragglers.slow_factor(worker, now));
  }

  VTime on_pull_done(int worker, VTime time) override {
    // Snapshot the *current* parameters: any pushes applied while this pull
    // was in flight are visible, later ones are not.  The per-shard version
    // vector is what staleness is measured against at push time.
    auto& fl = inflight_[static_cast<std::size_t>(worker)];
    ph_.state.ps.pull_with_versions(fl.snapshot, fl.pull_versions);
    fl.pull_started = time;
    auto& sampler = ph_.state.samplers[static_cast<std::size_t>(worker)];
    sampler.set_batch_size(ph_.b);
    sampler.next_batch(fl.indices);
    const double slow = ph_.stragglers.slow_factor(worker, time);
    const ClusterModel& cluster = ph_.rt.cluster_;
    return cluster.compute_time(rng(worker), slow, ph_.b) +
           cluster.transfer_time(slow, ph_.push_bytes);
  }

  PushOutcome on_push_arrive(int worker, VTime time) override {
    return buffered_ ? push_buffered(worker, time) : push_apply_each(worker, time);
  }

 private:
  struct InFlight {
    std::vector<float> snapshot;              // params pulled
    std::vector<std::uint32_t> indices;       // minibatch drawn at pull time
    std::vector<std::int64_t> pull_versions;  // per-shard versions at pull
    VTime pull_started;
  };

  struct Buffered {
    std::vector<float> grad;
    std::int64_t staleness = 0;
    double loss = 0.0;
    int worker = 0;
  };

  Rng& rng(int worker) { return ph_.state.worker_rngs[static_cast<std::size_t>(worker)]; }

  /// Apply-each: the gradient (computed against the pulled snapshot) is
  /// pushed immediately.  Compressed pushes travel as a CompressedPush:
  /// sparse (top-k) pushes touch and version only the shards owning kept
  /// coordinates, exactly as on threads, while dense quantized pushes apply
  /// like an uncompressed gradient.
  PushOutcome push_apply_each(int worker, VTime time) {
    auto& fl = inflight_[static_cast<std::size_t>(worker)];
    const double loss = ph_.gradient(fl.snapshot, fl.indices);
    std::optional<CompressedPush> push;
    if (ph_.cfg.compressor) push = ph_.cfg.compressor->encode(worker, ph_.grad, rng(worker));
    const VTime at = time + ph_.rt.cluster_.spec().async_apply;
    ph_.rt.sink_.on_task({worker, at, at - fl.pull_started, ph_.b});
    SharedParameterServer& ps = ph_.state.ps;
    const bool stop = ph_.commit(at, 1, loss, [&](double lr) {
      return push ? ps.push_compressed(*push, lr, fl.pull_versions)
                  : ps.push(ph_.grad, lr, fl.pull_versions);
    });
    return {stop, at};
  }

  /// Buffered: stash this gradient; once the trigger holds, apply the
  /// buffer's average as one update.
  PushOutcome push_buffered(int worker, VTime time) {
    auto& fl = inflight_[static_cast<std::size_t>(worker)];
    // Slots past `used_` keep their gradient buffers from earlier rounds.
    if (used_ == buffer_.size()) buffer_.emplace_back();
    Buffered& item = buffer_[used_++];
    item.loss = ph_.gradient(fl.snapshot, fl.indices);
    if (ph_.cfg.compressor) ph_.cfg.compressor->transform(worker, ph_.grad, rng(worker));
    item.grad.assign(ph_.grad.begin(), ph_.grad.end());
    item.staleness = ph_.state.ps.staleness_since(fl.pull_versions);
    item.worker = worker;
    ph_.rt.sink_.on_task({worker, time, time - fl.pull_started, ph_.b});

    // The worker's next cycle starts immediately.
    if (!triggered()) return {false, time};

    // Aggregate the buffered gradients into one update.
    std::fill(ph_.grad_sum.begin(), ph_.grad_sum.end(), 0.0f);
    double loss_sum = 0.0;
    std::int64_t stale_sum = 0;
    for (const Buffered& it : waiting()) {
      ops::add_inplace(std::span<float>(ph_.grad_sum), std::span<const float>(it.grad));
      loss_sum += it.loss;
      stale_sum += it.staleness;
    }
    const auto m = static_cast<std::int64_t>(used_);
    used_ = 0;
    ops::scale_inplace(std::span<float>(ph_.grad_sum),
                       static_cast<float>(1.0 / static_cast<double>(m)));
    // Each buffered contribution carries the staleness of its own pull.
    const bool stop = ph_.commit(time + ph_.rt.cluster_.spec().async_apply, m,
                                 loss_sum / static_cast<double>(m), [&](double lr) {
                                   (void)ph_.state.ps.push(ph_.grad_sum, lr, fl.pull_versions);
                                   return stale_sum;
                                 });
    return {stop, time};
  }

  /// K-async: K distinct workers have pushed; K-batch-async: any K pushes.
  [[nodiscard]] bool triggered() const {
    if (!distinct_) return used_ >= k_;
    std::set<int> distinct;
    for (const Buffered& it : waiting()) distinct.insert(it.worker);
    return distinct.size() >= k_;
  }

  /// The pushes waiting in the buffer.
  [[nodiscard]] std::span<const Buffered> waiting() const {
    return std::span<const Buffered>(buffer_).first(used_);
  }

  Phase& ph_;
  const std::size_t k_;
  const bool buffered_;
  const bool distinct_;
  std::vector<InFlight> inflight_;
  std::vector<Buffered> buffer_;
  std::size_t used_ = 0;  ///< buffer_[0, used_) are waiting to apply
};

SimRuntime::SimRuntime(ClusterModel cluster, Model& grad_model, Model& eval_model,
                       const Dataset& train, const Dataset& eval_set, MetricsSink& sink)
    : cluster_(std::move(cluster)),
      grad_model_(grad_model),
      eval_model_(eval_model),
      train_(train),
      eval_set_(eval_set),
      sink_(sink) {}

PhaseResult SimRuntime::run_phase(TrainingState& state, const PhaseConfig& cfg,
                                  const std::vector<int>& active_workers,
                                  const StragglerSchedule& stragglers,
                                  const StopPredicate& stop) {
  if (cfg.lr_schedule == nullptr) throw ConfigError("PhaseConfig: lr_schedule is required");
  if (active_workers.empty()) throw ConfigError("run_phase: no active workers");
  for (int w : active_workers)
    if (w < 0 || static_cast<std::size_t>(w) >= state.samplers.size())
      throw ConfigError("run_phase: active worker index out of range");
  if (reads_staleness_bound(cfg.protocol) && cfg.ssp_staleness_bound < 0)
    throw ConfigError("run_phase: negative staleness bound");

  Phase phase(*this, state, cfg, stragglers, stop);
  switch (cfg.protocol) {
    case Protocol::kBsp:
    case Protocol::kKSync:
      return run_rounds(phase, active_workers, /*pipelined=*/false);
    case Protocol::kKBatchSync:
      return run_rounds(phase, active_workers, /*pipelined=*/true);
    case Protocol::kAsp:
      return run_event_driven(phase, active_workers, AdmissionRules::track_only(),
                              /*buffered=*/false, /*distinct_workers=*/false);
    case Protocol::kSsp:
      return run_event_driven(phase, active_workers,
                              AdmissionRules::bounded_by(cfg.ssp_staleness_bound),
                              /*buffered=*/false, /*distinct_workers=*/false);
    case Protocol::kDssp:
      // DSSP (Zhao et al.): the effective bound floats in [s, s + r].
      return run_event_driven(
          phase, active_workers,
          AdmissionRules::dynamic_bound(cfg.ssp_staleness_bound, cfg.dssp_staleness_upper),
          /*buffered=*/false, /*distinct_workers=*/false);
    case Protocol::kKAsync:
      return run_event_driven(phase, active_workers, AdmissionRules::free_running(),
                              /*buffered=*/true, /*distinct_workers=*/true);
    case Protocol::kKBatchAsync:
      return run_event_driven(phase, active_workers, AdmissionRules::free_running(),
                              /*buffered=*/true, /*distinct_workers=*/false);
  }
  throw ConfigError("run_phase: unknown protocol");
}

PhaseResult SimRuntime::run_rounds(Phase& phase, const std::vector<int>& active,
                                   bool pipelined) {
  // Dutta et al. [11]: each round, every worker computes on the same
  // parameter snapshot; the PS aggregates the first K contributions and
  // cancels the rest.  K-sync takes one gradient per worker (the K fastest
  // *workers*); K-batch-sync lets fast workers contribute several minibatches
  // (the first K *batches*).  BSP is K = n: the barrier waits for the
  // slowest, the aggregated update is a true batch-(n*b) gradient step (TF
  // SyncReplicasOptimizer semantics).
  TrainingState& state = phase.state;
  const PhaseConfig& cfg = phase.cfg;
  const std::size_t n = active.size();
  const std::size_t k = cfg.protocol == Protocol::kBsp ? n : effective_k(cfg, n);
  const std::size_t b = phase.b;

  std::vector<float> snapshot(state.ps.num_params());
  std::vector<std::int64_t> versions;
  std::vector<std::uint32_t> indices;

  const TaskDraw draw = [&](int w, VTime offset) {
    const double slow = phase.stragglers.slow_factor(w, state.clock + offset);
    auto& wrng = state.worker_rngs[static_cast<std::size_t>(w)];
    // pull (full parameters) + compute + push (possibly compressed).
    return cluster_.transfer_time(slow) + cluster_.compute_time(wrng, slow, b) +
           cluster_.transfer_time(slow, phase.push_bytes);
  };

  while (phase.result.steps_done < cfg.step_budget) {
    state.ps.pull_with_versions(snapshot, versions);
    std::fill(phase.grad_sum.begin(), phase.grad_sum.end(), 0.0f);
    double loss_sum = 0.0;

    const RoundPlan plan = plan_round(active, k, pipelined, draw);
    phase.result.cancelled_tasks += plan.cancelled;

    // Compute the K winning gradients against the shared snapshot, in the
    // plan's deterministic order (worker index, then arrival).
    for (const RoundArrival& a : plan.winners) {
      auto& sampler = state.samplers[static_cast<std::size_t>(a.worker)];
      sampler.set_batch_size(b);
      sampler.next_batch(indices);
      loss_sum += phase.gradient(snapshot, indices);
      if (cfg.compressor)
        cfg.compressor->transform(a.worker, phase.grad,
                                  state.worker_rngs[static_cast<std::size_t>(a.worker)]);
      ops::add_inplace(std::span<float>(phase.grad_sum), std::span<const float>(phase.grad));
      sink_.on_task({a.worker, state.clock + a.at, a.duration, b});
    }
    // Average the gradients: the aggregated update is a true batch-(k*b)
    // gradient step, stale by 0 (the round's own pull).
    ops::scale_inplace(std::span<float>(phase.grad_sum), 1.0f / static_cast<float>(k));
    if (phase.commit(state.clock + (plan.round_end + cluster_.sync_overhead(k)),
                     static_cast<std::int64_t>(k), loss_sum / static_cast<double>(k),
                     [&](double lr) { return state.ps.push(phase.grad_sum, lr, versions); }))
      break;
  }
  return phase.finish();
}

PhaseResult SimRuntime::run_event_driven(Phase& phase, const std::vector<int>& active,
                                         AdmissionRules rules, bool buffered,
                                         bool distinct_workers) {
  EventDrivenProcess process(phase, effective_k(phase.cfg, active.size()), buffered,
                             distinct_workers);
  DesEngine engine(process, active, rules);

  // Kick off: every active worker starts pulling at phase start, staggered
  // over up to one cycle.  Async task launches are never synchronized in a
  // real PS deployment (session setup times vary per node); starting all
  // workers in lockstep would push n near-identical gradients as a wave,
  // an artifact that destabilizes training right after a protocol switch.
  TrainingState& state = phase.state;
  const VTime cycle = cluster_.mean_cycle(phase.b);
  for (int w : active) {
    process.prepare_worker(w);
    const double offset = state.worker_rngs[static_cast<std::size_t>(w)].uniform();
    engine.schedule_pull(w, state.clock + cycle.scaled(offset));
  }
  engine.run();
  phase.result.max_clock_gap = engine.max_clock_gap();
  return phase.finish();
}

}  // namespace ss
