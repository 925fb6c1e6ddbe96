// The runtime layer of the simulator: real math driven by the DES core.
//
// `run_phase` is a thin driver — it maps the protocol onto one of two
// generic schedulers from `sim/des_engine.h` and supplies the math:
//
//  * synchronous family (BSP, K-sync, K-batch-sync): `plan_round` plans each
//    round's admitted contributions; this layer computes the winning
//    gradients against the shared snapshot and applies their average.  BSP
//    is exactly K-sync with K = n.
//  * event-driven family (ASP, SSP, DSSP, K-async, K-batch-async): a
//    `DesEngine` runs each worker's pull→compute→push lifecycle under the
//    protocol's admission rules; an `EventDrivenProcess` here does the
//    pull/compute/apply work when the engine's events fire.
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
class EventDrivenProcess final : public WorkerProcess {
 public:
  EventDrivenProcess(const ClusterModel& cluster, Model& grad_model, const Dataset& train,
                     MetricsSink& sink, TrainingState& state, const PhaseConfig& cfg,
                     const StragglerSchedule& stragglers, const StopPredicate& stop,
                     PhaseResult& result, bool buffered, bool distinct_workers, std::size_t k,
                     std::function<void()> eval_hook,
                     std::function<double(std::int64_t)> momentum_hook)
      : cluster_(cluster),
        grad_model_(grad_model),
        train_(train),
        sink_(sink),
        state_(state),
        cfg_(cfg),
        stragglers_(stragglers),
        stop_(stop),
        result_(result),
        buffered_(buffered),
        distinct_(distinct_workers),
        k_(k),
        p_(state.ps.num_params()),
        b_(cfg.per_worker_batch),
        push_bytes_(push_wire_bytes(cluster, cfg, state.ps.num_params())),
        eval_(std::move(eval_hook)),
        momentum_(std::move(momentum_hook)),
        inflight_(state.samplers.size()),
        batch_x_({cfg.per_worker_batch, train.feature_dim()}),
        grad_(state.ps.num_params()),
        grad_sum_(state.ps.num_params()) {
    buffer_.reserve(k_ + state.samplers.size());
  }

  /// Pre-size a worker's pull buffer before its kickoff pull is scheduled.
  void prepare_worker(int worker) {
    inflight_[static_cast<std::size_t>(worker)].snapshot.resize(p_);
  }

  [[nodiscard]] std::int64_t total_staleness() const noexcept { return total_staleness_; }
  /// Staleness samples accumulated (applied updates in apply-each mode,
  /// buffered contributions in buffered mode).
  [[nodiscard]] std::int64_t contributions() const noexcept { return contributions_; }

  VTime pull_latency(int worker, VTime now) override {
    return cluster_.transfer_time(stragglers_.slow_factor(worker, now));
  }

  VTime on_pull_done(int worker, VTime time) override {
    // Snapshot the *current* parameters: any pushes applied while this pull
    // was in flight are visible, later ones are not.  The per-shard version
    // vector is what staleness is measured against at push time.
    auto& fl = inflight_[static_cast<std::size_t>(worker)];
    state_.ps.pull_with_versions(fl.snapshot, fl.pull_versions);
    fl.pull_started = time;
    auto& sampler = state_.samplers[static_cast<std::size_t>(worker)];
    sampler.set_batch_size(b_);
    sampler.next_batch(fl.indices);
    const double slow = stragglers_.slow_factor(worker, time);
    return cluster_.compute_time(state_.worker_rngs[static_cast<std::size_t>(worker)], slow,
                                 b_) +
           cluster_.transfer_time(slow, push_bytes_);
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

  /// Apply-each: the gradient (computed against the pulled snapshot) is
  /// pushed immediately.  Compressed pushes travel as a CompressedPush:
  /// sparse (top-k) pushes touch and version only the shards owning kept
  /// coordinates, exactly as on threads, while dense quantized pushes apply
  /// like an uncompressed gradient.
  PushOutcome push_apply_each(int worker, VTime time) {
    auto& fl = inflight_[static_cast<std::size_t>(worker)];
    train_.gather(fl.indices, batch_x_, batch_y_);
    const double loss = grad_model_.gradient_at(fl.snapshot, batch_x_, batch_y_, grad_);
    std::optional<CompressedPush> push;
    if (cfg_.compressor) {
      push = cfg_.compressor->encode(worker, grad_,
                                     state_.worker_rngs[static_cast<std::size_t>(worker)]);
      result_.push_bytes += static_cast<std::int64_t>(std::llround(push_bytes_));
    } else {
      result_.push_bytes += static_cast<std::int64_t>(cluster_.spec().payload_bytes);
    }
    const double mult = cfg_.lr_multiplier_schedule
                            ? cfg_.lr_multiplier_schedule(state_.global_step)
                            : cfg_.lr_multiplier;
    const double lr = cfg_.lr_schedule->at(state_.global_step) * mult;
    state_.ps.set_momentum(momentum_(result_.steps_done));
    const std::int64_t staleness = push ? state_.ps.push_compressed(*push, lr, fl.pull_versions)
                                        : state_.ps.push(grad_, lr, fl.pull_versions);
    state_.clock = time + cluster_.spec().async_apply;
    state_.global_step += 1;
    result_.steps_done += 1;
    total_staleness_ += staleness;
    ++contributions_;

    TaskObservation tobs;
    tobs.worker = worker;
    tobs.completed_at = state_.clock;
    tobs.task_duration = state_.clock - fl.pull_started;
    tobs.images = b_;
    sink_.on_task(tobs);

    UpdateObservation uobs;
    uobs.global_step = state_.global_step;
    uobs.time = state_.clock;
    uobs.train_loss = loss;
    uobs.staleness = staleness;
    uobs.protocol = cfg_.protocol;
    sink_.on_update(uobs);

    PushOutcome out;
    out.resume_at = state_.clock;
    if (!std::isfinite(loss) || loss > cfg_.divergence_loss_threshold || !state_.ps.healthy()) {
      result_.end = PhaseEnd::kDiverged;
      out.stop = true;
      return out;
    }
    eval_();
    if (stop_ && stop_(state_.clock, state_.global_step)) {
      result_.end = PhaseEnd::kStopRequested;
      result_.trigger_step = state_.global_step;
      out.stop = true;
      return out;
    }
    if (result_.steps_done >= cfg_.step_budget) out.stop = true;  // drain
    return out;
  }

  /// Buffered: stash this gradient; once the trigger holds, apply the
  /// buffer's average as one update.
  PushOutcome push_buffered(int worker, VTime time) {
    auto& fl = inflight_[static_cast<std::size_t>(worker)];
    train_.gather(fl.indices, batch_x_, batch_y_);
    Buffered item;
    item.loss = grad_model_.gradient_at(fl.snapshot, batch_x_, batch_y_, grad_);
    if (cfg_.compressor)
      cfg_.compressor->transform(worker, grad_,
                                 state_.worker_rngs[static_cast<std::size_t>(worker)]);
    item.grad.assign(grad_.begin(), grad_.end());
    item.staleness = state_.ps.staleness_since(fl.pull_versions);
    item.worker = worker;
    buffer_.push_back(std::move(item));
    result_.push_bytes += static_cast<std::int64_t>(std::llround(push_bytes_));

    TaskObservation tobs;
    tobs.worker = worker;
    tobs.completed_at = time;
    tobs.task_duration = time - fl.pull_started;
    tobs.images = b_;
    sink_.on_task(tobs);

    PushOutcome out;
    out.resume_at = time;  // the worker's next cycle starts immediately
    bool trigger = false;
    if (distinct_) {
      std::set<int> distinct;
      for (const auto& it : buffer_) distinct.insert(it.worker);
      trigger = distinct.size() >= k_;
    } else {
      trigger = buffer_.size() >= k_;
    }
    if (!trigger) return out;

    // Aggregate the buffered gradients into one update.
    std::fill(grad_sum_.begin(), grad_sum_.end(), 0.0f);
    double loss_sum = 0.0;
    std::int64_t stale_sum = 0;
    for (const auto& it : buffer_) {
      ops::add_inplace(std::span<float>(grad_sum_), std::span<const float>(it.grad));
      loss_sum += it.loss;
      stale_sum += it.staleness;
    }
    const auto m = static_cast<double>(buffer_.size());
    ops::scale_inplace(std::span<float>(grad_sum_), static_cast<float>(1.0 / m));

    const double mult = cfg_.lr_multiplier_schedule
                            ? cfg_.lr_multiplier_schedule(state_.global_step)
                            : cfg_.lr_multiplier;
    const double lr = cfg_.lr_schedule->at(state_.global_step) * mult;
    state_.ps.set_momentum(momentum_(result_.steps_done));
    // Each buffered contribution carries the staleness of its own pull.
    (void)state_.ps.push(grad_sum_, lr, fl.pull_versions);
    state_.clock = time + cluster_.spec().async_apply;
    state_.global_step += static_cast<std::int64_t>(buffer_.size());
    result_.steps_done += static_cast<std::int64_t>(buffer_.size());
    total_staleness_ += stale_sum;
    contributions_ += static_cast<std::int64_t>(buffer_.size());

    UpdateObservation uobs;
    uobs.global_step = state_.global_step;
    uobs.time = state_.clock;
    uobs.train_loss = loss_sum / m;
    uobs.staleness =
        static_cast<std::int64_t>(stale_sum / static_cast<std::int64_t>(buffer_.size()));
    uobs.protocol = cfg_.protocol;
    sink_.on_update(uobs);
    buffer_.clear();

    if (!std::isfinite(uobs.train_loss) || uobs.train_loss > cfg_.divergence_loss_threshold ||
        !state_.ps.healthy()) {
      result_.end = PhaseEnd::kDiverged;
      out.stop = true;
      return out;
    }
    eval_();
    if (stop_ && stop_(state_.clock, state_.global_step)) {
      result_.end = PhaseEnd::kStopRequested;
      result_.trigger_step = state_.global_step;
      out.stop = true;
      return out;
    }
    if (result_.steps_done >= cfg_.step_budget) out.stop = true;  // drain
    return out;
  }

  const ClusterModel& cluster_;
  Model& grad_model_;
  const Dataset& train_;
  MetricsSink& sink_;
  TrainingState& state_;
  const PhaseConfig& cfg_;
  const StragglerSchedule& stragglers_;
  const StopPredicate& stop_;
  PhaseResult& result_;
  const bool buffered_;
  const bool distinct_;
  const std::size_t k_;
  const std::size_t p_;
  const std::size_t b_;
  const double push_bytes_;
  std::function<void()> eval_;
  std::function<double(std::int64_t)> momentum_;

  std::vector<InFlight> inflight_;
  std::vector<Buffered> buffer_;
  Tensor batch_x_;
  std::vector<int> batch_y_;
  std::vector<float> grad_;
  std::vector<float> grad_sum_;
  std::int64_t total_staleness_ = 0;
  std::int64_t contributions_ = 0;
};

}  // namespace

SimRuntime::SimRuntime(ClusterModel cluster, Model& grad_model, Model& eval_model,
                       const Dataset& train, const Dataset& eval_set, MetricsSink& sink)
    : cluster_(std::move(cluster)),
      grad_model_(grad_model),
      eval_model_(eval_model),
      train_(train),
      eval_set_(eval_set),
      sink_(sink) {}

double SimRuntime::momentum_at(const PhaseConfig& cfg, std::int64_t steps_into_phase) const {
  if (cfg.momentum_schedule) return cfg.momentum_schedule(steps_into_phase);
  return cfg.momentum;
}

void SimRuntime::maybe_eval(TrainingState& state, const PhaseConfig& cfg) {
  if (cfg.eval_interval <= 0) return;
  const std::int64_t bucket = state.global_step / cfg.eval_interval;
  if (bucket == last_eval_bucket_) return;
  last_eval_bucket_ = bucket;
  if (!state.ps.healthy()) return;  // divergence handled by the caller
  eval_model_.set_params(state.ps.snapshot());
  const double acc = eval_model_.evaluate_accuracy(eval_set_);
  sink_.on_eval(state.global_step, state.clock, acc);
}

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
  // Reset the eval bucket so a fresh phase re-evaluates on its first boundary.
  last_eval_bucket_ = state.global_step / std::max<std::int64_t>(cfg.eval_interval, 1);

  switch (cfg.protocol) {
    case Protocol::kBsp:
      return run_rounds(state, cfg, active_workers, stragglers, stop, /*pipelined=*/false);
    case Protocol::kKSync:
      return run_rounds(state, cfg, active_workers, stragglers, stop, /*pipelined=*/false);
    case Protocol::kKBatchSync:
      return run_rounds(state, cfg, active_workers, stragglers, stop, /*pipelined=*/true);
    case Protocol::kAsp:
      return run_event_driven(state, cfg, active_workers, stragglers, stop,
                              AdmissionRules::track_only(), /*buffered=*/false,
                              /*distinct_workers=*/false);
    case Protocol::kSsp:
      return run_event_driven(state, cfg, active_workers, stragglers, stop,
                              AdmissionRules::bounded_by(cfg.ssp_staleness_bound),
                              /*buffered=*/false, /*distinct_workers=*/false);
    case Protocol::kDssp:
      // DSSP (Zhao et al.): the effective bound floats in [s, s + r].
      return run_event_driven(
          state, cfg, active_workers, stragglers, stop,
          AdmissionRules::dynamic_bound(cfg.ssp_staleness_bound, cfg.dssp_staleness_upper),
          /*buffered=*/false, /*distinct_workers=*/false);
    case Protocol::kKAsync:
      return run_event_driven(state, cfg, active_workers, stragglers, stop,
                              AdmissionRules::free_running(), /*buffered=*/true,
                              /*distinct_workers=*/true);
    case Protocol::kKBatchAsync:
      return run_event_driven(state, cfg, active_workers, stragglers, stop,
                              AdmissionRules::free_running(), /*buffered=*/true,
                              /*distinct_workers=*/false);
  }
  throw ConfigError("run_phase: unknown protocol");
}

PhaseResult SimRuntime::run_rounds(TrainingState& state, const PhaseConfig& cfg,
                                   const std::vector<int>& active,
                                   const StragglerSchedule& stragglers, const StopPredicate& stop,
                                   bool pipelined) {
  // Dutta et al. [11]: each round, every worker computes on the same
  // parameter snapshot; the PS aggregates the first K contributions and
  // cancels the rest.  K-sync takes one gradient per worker (the K fastest
  // *workers*); K-batch-sync lets fast workers contribute several minibatches
  // (the first K *batches*).  BSP is K = n: the barrier waits for the
  // slowest, the aggregated update is a true batch-(n*b) gradient step (TF
  // SyncReplicasOptimizer semantics).
  PhaseResult result;
  const std::size_t n = active.size();
  const std::size_t k = cfg.protocol == Protocol::kBsp ? n : effective_k(cfg, n);
  const std::size_t p = state.ps.num_params();
  const std::size_t b = cfg.per_worker_batch;
  const std::size_t d = train_.feature_dim();

  std::vector<float> snapshot(p);
  std::vector<std::int64_t> versions;
  std::vector<float> grad(p);
  std::vector<float> grad_sum(p);
  Tensor batch_x({b, d});
  std::vector<int> batch_y;
  std::vector<std::uint32_t> indices;

  const double push_bytes = push_wire_bytes(cluster_, cfg, p);
  const TaskDraw draw = [&](int w, VTime offset) {
    const double slow = stragglers.slow_factor(w, state.clock + offset);
    auto& wrng = state.worker_rngs[static_cast<std::size_t>(w)];
    // pull (full parameters) + compute + push (possibly compressed).
    return cluster_.transfer_time(slow) + cluster_.compute_time(wrng, slow, b) +
           cluster_.transfer_time(slow, push_bytes);
  };

  const VTime phase_start = state.clock;
  while (result.steps_done < cfg.step_budget) {
    state.ps.pull_with_versions(snapshot, versions);
    std::fill(grad_sum.begin(), grad_sum.end(), 0.0f);
    double loss_sum = 0.0;

    const RoundPlan plan = plan_round(active, k, pipelined, draw);
    result.cancelled_tasks += plan.cancelled;

    // Compute the K winning gradients against the shared snapshot, in the
    // plan's deterministic order (worker index, then arrival).
    for (const RoundArrival& a : plan.winners) {
      auto& sampler = state.samplers[static_cast<std::size_t>(a.worker)];
      sampler.set_batch_size(b);
      sampler.next_batch(indices);
      train_.gather(indices, batch_x, batch_y);
      loss_sum += grad_model_.gradient_at(snapshot, batch_x, batch_y, grad);
      if (cfg.compressor)
        cfg.compressor->transform(a.worker, grad,
                                  state.worker_rngs[static_cast<std::size_t>(a.worker)]);
      result.push_bytes += static_cast<std::int64_t>(std::llround(push_bytes));
      ops::add_inplace(std::span<float>(grad_sum), std::span<const float>(grad));

      TaskObservation tobs;
      tobs.worker = a.worker;
      tobs.completed_at = state.clock + a.at;
      tobs.task_duration = a.duration;
      tobs.images = b;
      sink_.on_task(tobs);
    }
    // Average the gradients: the aggregated update is a true batch-(k*b)
    // gradient step.
    ops::scale_inplace(std::span<float>(grad_sum), 1.0f / static_cast<float>(k));

    const double mult = cfg.lr_multiplier_schedule ? cfg.lr_multiplier_schedule(state.global_step)
                                                   : cfg.lr_multiplier;
    const double lr = cfg.lr_schedule->at(state.global_step) * mult;
    state.ps.set_momentum(momentum_at(cfg, result.steps_done));
    (void)state.ps.push(grad_sum, lr, versions);  // stale by 0: the round's own pull

    state.clock += plan.round_end + cluster_.sync_overhead(k);
    state.global_step += static_cast<std::int64_t>(k);
    result.steps_done += static_cast<std::int64_t>(k);

    const double mean_loss = loss_sum / static_cast<double>(k);
    UpdateObservation uobs;
    uobs.global_step = state.global_step;
    uobs.time = state.clock;
    uobs.train_loss = mean_loss;
    uobs.staleness = 0;
    uobs.protocol = cfg.protocol;
    sink_.on_update(uobs);

    if (!std::isfinite(mean_loss) || mean_loss > cfg.divergence_loss_threshold ||
        !state.ps.healthy()) {
      result.end = PhaseEnd::kDiverged;
      result.elapsed = state.clock - phase_start;
      return result;
    }

    maybe_eval(state, cfg);

    if (stop && stop(state.clock, state.global_step)) {
      result.end = PhaseEnd::kStopRequested;
      result.trigger_step = state.global_step;
      result.elapsed = state.clock - phase_start;
      return result;
    }
  }
  result.end = PhaseEnd::kBudgetExhausted;
  result.elapsed = state.clock - phase_start;
  return result;
}

PhaseResult SimRuntime::run_event_driven(TrainingState& state, const PhaseConfig& cfg,
                                         const std::vector<int>& active,
                                         const StragglerSchedule& stragglers,
                                         const StopPredicate& stop, AdmissionRules rules,
                                         bool buffered, bool distinct_workers) {
  PhaseResult result;
  const std::size_t b = cfg.per_worker_batch;
  const std::size_t k = effective_k(cfg, active.size());
  const VTime phase_start = state.clock;

  EventDrivenProcess process(
      cluster_, grad_model_, train_, sink_, state, cfg, stragglers, stop, result, buffered,
      distinct_workers, k, [this, &state, &cfg] { maybe_eval(state, cfg); },
      [this, &cfg](std::int64_t steps) { return momentum_at(cfg, steps); });
  DesEngine engine(process, active, rules);

  // Kick off: every active worker starts pulling at phase start, staggered
  // over up to one cycle.  Async task launches are never synchronized in a
  // real PS deployment (session setup times vary per node); starting all
  // workers in lockstep would push n near-identical gradients as a wave,
  // an artifact that destabilizes training right after a protocol switch.
  const VTime cycle = cluster_.mean_cycle(b);
  for (int w : active) {
    process.prepare_worker(w);
    const double offset = state.worker_rngs[static_cast<std::size_t>(w)].uniform();
    engine.schedule_pull(w, state.clock + cycle.scaled(offset));
  }
  engine.run();

  result.max_clock_gap = engine.max_clock_gap();
  if (process.contributions() > 0)
    result.mean_staleness = static_cast<double>(process.total_staleness()) /
                            static_cast<double>(process.contributions());
  result.elapsed = state.clock - phase_start;
  return result;
}

}  // namespace ss
