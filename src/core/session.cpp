#include "core/session.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "data/batcher.h"
#include "elastic/async_snapshotter.h"
#include "elastic/recovery_coordinator.h"
#include "ps/trace.h"
#include "ps/sim_runtime.h"

namespace ss {

std::string RunRequest::cache_key() const {
  std::ostringstream os;
  os.precision(10);
  // Schema tag first: bumping kCacheKeySchemaVersion moves every key to a
  // fresh hash slot, so stale .ss_runcache entries written under an older
  // grammar (or older result-affecting semantics) self-invalidate.
  os << "sv=" << kCacheKeySchemaVersion << ";"
     << "arch=" << arch_name(workload.arch) << ";classes=" << workload.data.num_classes
     << ";dim=" << workload.data.feature_dim << ";train=" << workload.data.train_size
     << ";test=" << workload.data.test_size << ";modes=" << workload.data.modes_per_class
     << ";sep=" << workload.data.class_separation << ";wstd=" << workload.data.within_stddev
     << ";noise=" << workload.data.label_noise << ";dseed=" << workload.data.seed
     << ";steps=" << workload.total_steps << ";B=" << workload.hyper.batch_size
     << ";lr=" << workload.hyper.learning_rate << ";mu=" << workload.hyper.momentum
     << ";eval=" << workload.eval_interval << ";divthr=" << workload.divergence_loss_threshold
     << ";n=" << cluster.num_workers << ";shards=" << cluster.num_ps_shards
     << ";shiss=" << cluster.shard_issue_overhead.us()
     << ";comp=" << cluster.compute_per_batch.us()
     << ";refb=" << cluster.reference_batch << ";jit=" << cluster.compute_jitter_sigma
     << ";lat=" << cluster.net_latency.us() << ";bytes=" << cluster.payload_bytes
     << ";bw=" << cluster.bandwidth_bps << ";sb=" << cluster.sync_base.us()
     << ";sq=" << cluster.sync_quad.us() << ";aa=" << cluster.async_apply.us()
     << ";act=" << actuator_exec_name(actuator) << ";p1=" << protocol_name(policy.first)
     << ";p2=" << protocol_name(policy.second) << ";frac=" << policy.switch_fraction
     << ";mom=" << momentum_policy_name(policy.momentum_policy)
     << ";online=" << online_policy_name(policy.online)
     << ";dw=" << policy.detector.window_size
     << ";dc=" << policy.detector.consecutive_required
     << ";drg=" << policy.detector.min_relative_gap
     << ";sspb=" << policy.ssp_staleness_bound << ";k=" << policy.k_param
     << ";sched=" << policy.schedule.label()
     << ";strg=" << stragglers.num_stragglers << "x"
     << stragglers.occurrences << "x" << stragglers.extra_latency_ms << "x"
     << stragglers.max_duration.us() << "x" << stragglers.horizon.us()
     << ";xstrg=" << straggler_schedule.label()
     << ";codec=" << compression.label() << ";elastic=" << elastic.label()
     << ";joinprov=" << cluster.join_provision.us()
     << ";ascale=" << actuator_time_scale
     << ";seed=" << seed;
  return os.str();
}

std::optional<double> RunResult::time_to_accuracy(double threshold) const {
  for (const auto& p : accuracy_curve)
    if (p.accuracy >= threshold) return p.seconds;
  return std::nullopt;
}

TrainingSession::TrainingSession(RunRequest request, const DataSplit& data)
    : TrainingSession(std::move(request)) {
  const SyntheticSpec& spec = req_.workload.data;
  if (data.train.size() != spec.train_size || data.test.size() != spec.test_size ||
      data.train.feature_dim() != spec.feature_dim)
    throw ConfigError("TrainingSession: the shared split does not match the workload's data");
  data_ = &data;
}

TrainingSession::TrainingSession(RunRequest request) : req_(std::move(request)) {
  if (!(req_.policy.switch_fraction >= 0.0 && req_.policy.switch_fraction <= 1.0))
    throw ConfigError("TrainingSession: switch_fraction must be in [0, 1]");
  if (req_.workload.total_steps <= 0)
    throw ConfigError("TrainingSession: total_steps must be > 0");
  if (req_.cluster.num_workers < 1)
    throw ConfigError("TrainingSession: need at least one worker");
  check_plan(req_.policy, req_.elastic.plan);
}

namespace {

/// Detector adapter: a MetricsSink that feeds task observations into the
/// straggler detector (fanned out beside the profiler).
class DetectorSink final : public MetricsSink {
 public:
  explicit DetectorSink(StragglerDetector& detector) : detector_(detector) {}
  void on_task(const TaskObservation& obs) override {
    detector_.observe(obs.worker, obs.images, obs.task_duration);
  }
  void on_update(const UpdateObservation&) override {}
  void on_eval(std::int64_t, VTime, double) override {}

 private:
  StragglerDetector& detector_;
};

}  // namespace

RunResult TrainingSession::run() {
  const Workload& wl = req_.workload;
  const std::size_t n = req_.cluster.num_workers;

  // --- Substrate: data, model, PS state, cluster model.
  std::optional<DataSplit> own_data;
  const DataSplit& data = data_ != nullptr ? *data_ : own_data.emplace(make_synthetic(wl.data));
  const Dataset eval_subset = data.test.head(std::min<std::size_t>(data.test.size(), 2048));

  Rng root(req_.seed * 0x9E3779B97f4A7C15ULL + 17);
  Rng init_rng = root.fork(1);
  Model grad_model = make_model(wl.arch, wl.data.feature_dim, wl.data.num_classes, init_rng);
  Model eval_model = grad_model.clone();

  const auto shards = make_shards(data.train.size(), n);
  std::vector<MinibatchSampler> samplers;
  std::vector<Rng> worker_rngs;
  samplers.reserve(n);
  worker_rngs.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    samplers.emplace_back(shards[w], wl.hyper.batch_size, root.fork(100 + w));
    worker_rngs.push_back(root.fork(200 + w));
  }

  TrainingState state(SharedParameterServer(grad_model.get_params(), wl.hyper.momentum,
                                            req_.cluster.num_ps_shards),
                      std::move(samplers), std::move(worker_rngs));

  const ClusterModel cluster(req_.cluster);
  const ActuatorModel actuator = ActuatorModel::paper_calibrated(req_.actuator);

  Rng straggler_rng = root.fork(300);
  StragglerSchedule straggler_schedule;
  if (!req_.straggler_schedule.events().empty())
    straggler_schedule = req_.straggler_schedule;
  else if (req_.stragglers.num_stragglers > 0)
    straggler_schedule = StragglerSchedule::generate(req_.stragglers, n, straggler_rng);

  PlanCursor cursor(lower_plan(req_.policy, wl.total_steps, req_.elastic.plan,
                               !straggler_schedule.events().empty()),
                    wl.total_steps);

  const PiecewiseDecay schedule =
      PiecewiseDecay::resnet_style(wl.hyper.learning_rate, wl.total_steps);

  // Crash recovery restores the latest snapshot at or before the crash
  // step, through the snapshotter the real runtimes use.  It runs no
  // cadence thread here: only the last cadence boundary before each crash
  // matters, so the budget is split exactly there instead of at every
  // interval, and each capture is taken at its boundary.  Only a crash
  // under kRestoreSnapshot reads a snapshot back, so only it takes them
  // (ElasticConfig::takes_snapshots); the budget splits at the same steps
  // either way.
  const bool restores = req_.elastic.takes_snapshots();
  AsyncSnapshotter snapshotter([&] { return state.ps.snapshot_checkpoint(state.global_step); },
                               [&] { return state.global_step; }, /*interval=*/0);
  if (restores) snapshotter.snapshot_now();  // run-start floor

  Profiler profiler;
  // The run's worker set and straggler detector.  Elastic joins extend the
  // worker-slot space past n.
  RecoveryCoordinator coord(req_.elastic, n, req_.policy.detector, &snapshotter, &state.ps);
  DetectorSink detector_sink(coord.detector());
  std::vector<MetricsSink*> sinks{&profiler};
  if (reads_detector(cursor.legs())) sinks.push_back(&detector_sink);
  if (req_.observer != nullptr) sinks.push_back(req_.observer);
  FanoutSink fanout(sinks);
  MetricsSink& sink = sinks.size() == 1 ? static_cast<MetricsSink&>(profiler) : fanout;

  SimRuntime runtime(cluster, grad_model, eval_model, data.train, eval_subset, sink);

  // Optional gradient compression: one bank for the whole session (the
  // per-worker error-feedback residuals are transport state, reset across
  // protocol switches because the checkpoint-restart abandons in-flight
  // work).  Elastic joins create worker slots past n, so the bank is sized
  // for every slot the run can ever see.
  std::optional<CompressorBank> compressor_bank =
      req_.compression.make_bank(n + req_.elastic.plan.join_count());

  RunResult result;
  const double ascale = req_.actuator_time_scale;
  result.init_time_seconds = actuator.init_time(n).scaled(ascale).seconds();

  const std::int64_t steps_per_epoch = static_cast<std::int64_t>(
      std::max<std::size_t>(1, data.train.size() / wl.hyper.batch_size));

  auto make_phase = [&](const PlanLeg& leg, std::int64_t budget,
                        std::size_t active_count) -> PhaseConfig {
    const Protocol proto = leg.phase.protocol;
    const DerivedHyper h = derive_hyper(proto, active_count, wl.hyper, leg.momentum,
                                        steps_per_epoch, req_.policy.k_param);
    PhaseConfig cfg;
    cfg.protocol = proto;
    cfg.ssp_staleness_bound = leg.phase.ssp_staleness_bound;
    cfg.k_param = req_.policy.k_param;
    cfg.step_budget = budget;
    cfg.lr_schedule = &schedule;
    cfg.lr_multiplier = h.lr_multiplier;
    if (is_synchronous(proto) && active_count > 1) {
      // Gradual warmup of the linear-scaled synchronous learning rate over
      // the first 5% of the workload (Goyal et al., the recipe the
      // configuration policy's scaling rule comes from): multiplier ramps
      // 1 -> n (1 -> K for the K-sync family).
      const double full_mult = h.lr_multiplier;
      const std::int64_t warmup_steps = std::max<std::int64_t>(1, wl.total_steps / 20);
      cfg.lr_multiplier_schedule = [full_mult, warmup_steps](std::int64_t step) {
        if (step >= warmup_steps) return full_mult;
        const double frac = static_cast<double>(step) / static_cast<double>(warmup_steps);
        return 1.0 + (full_mult - 1.0) * frac;
      };
    }
    cfg.per_worker_batch = h.per_worker_batch;
    cfg.momentum = h.momentum;
    cfg.momentum_schedule = h.momentum_schedule;
    cfg.eval_interval = wl.eval_interval;
    cfg.divergence_loss_threshold = wl.divergence_loss_threshold;
    if (compressor_bank) cfg.compressor = &*compressor_bank;
    return cfg;
  };

  auto pay_switch = [&]() {
    // The prototype checkpoints, restarts and restores: the PS comes back
    // unchanged, so only the actuation time is paid.
    const VTime cost = actuator.switch_time(n).scaled(ascale);
    state.clock += cost;
    if (compressor_bank) compressor_bank->reset();  // residuals die with the restart
    result.switch_overhead_seconds += cost.seconds();
    ++result.num_switches;
  };

  // ---------- The sim's actuation of the plan: the cursor (ps/plan.h) says
  // which leg runs, where its visit ends, what a reaction changes and which
  // leg follows; the session prices each move in virtual time.  Each visit
  // is segmented at snapshot-capture steps and membership-event steps; each
  // segment runs through run_phase on the coordinator's worker set, and
  // every transition re-derives the phase configuration (lr, batch) for the
  // new cluster size via make_phase.  The coordinator applies each
  // membership change (and a crash's restore); the session prices it
  // through the cluster/actuator models.  All state evolution is
  // deterministic in (plan, seed), so every run is bit-for-bit reproducible
  // and cacheable.
  std::set<std::int64_t> capture_steps;  // each one leaves the set once passed
  for (const MembershipEvent& e : req_.elastic.plan.events())
    if (const std::int64_t every = req_.elastic.snapshot_interval;
        e.kind == MembershipEventKind::kCrash && every > 0 && e.at_step >= every)
      capture_steps.insert(e.at_step / every * every);

  auto pay_membership = [&](VTime cost) {
    state.clock += cost;
    result.recovery_overhead_seconds += cost.seconds();
  };

  // Price and record a membership pass (the scripted events due at the
  // current step, or a kLeave reaction's evictions): one resize per event
  // (a join's hand-off instead), the restore on the crash it is charged to,
  // and each joined slot's sampler and RNG.
  auto price_pass = [&](const std::vector<AppliedMembershipEvent>& applied) {
    for (const AppliedMembershipEvent& a : applied) {
      ++result.num_membership_events;
      const int slot = a.event.worker;
      if (a.event.kind == MembershipEventKind::kJoin) {
        state.samplers.emplace_back(shards[static_cast<std::size_t>(slot) % shards.size()],
                                    wl.hyper.batch_size, root.fork(1000 + slot));
        state.worker_rngs.push_back(root.fork(2000 + slot));
        pay_membership(cluster.join_time());
      } else {
        pay_membership(actuator.resize_time().scaled(ascale));
      }
      if (a.restored) pay_membership(cluster.recovery_restore_time());
      result.updates_lost += a.updates_lost;
      log_info("elastic: worker ", slot, " ", membership_event_name(a.event.kind), " at step ",
               state.global_step, ", ", coord.alive_count(), " workers alive");
    }
  };

  // Reaction::kEvict / kReplace: re-admit provisioned replacements, then set
  // aside the slots the cursor names (kReplace's until a fresh node is
  // provisioned).  Any change is priced as one resize.  The flags are read
  // before the re-admission rescopes the detector.
  auto evict_stragglers = [&](bool replace) {
    const std::vector<int> flagged = coord.detector().stragglers();
    const std::vector<int> readmitted = coord.readmit(state.clock);
    for (int w : readmitted) {
      log_info("replace: fresh node took over slot ", w, " at step ", state.global_step);
      straggler_schedule.mask_after(w, state.clock);
    }
    const std::vector<int> evicted = cursor.react(coord.active(), flagged);
    for (int w : evicted)
      log_info(replace ? "replace" : "elastic", ": evicting straggler slot ", w, " at step ",
               state.global_step);
    const VTime provisioned = state.clock + actuator.provision_time().scaled(ascale);
    coord.set_aside(evicted, replace ? std::optional(provisioned) : std::nullopt);
    if (!readmitted.empty() || !evicted.empty())
      state.clock += actuator.resize_time().scaled(ascale);
  };

  bool diverged = false;
  while (!diverged && !cursor.done()) {
    const PlanLeg& leg = cursor.leg();
    bool triggered = false;
    while (!diverged && !triggered && state.global_step < cursor.visit_end()) {
      // Segment the budget at the next snapshot capture or membership step.
      std::int64_t boundary = cursor.visit_end();
      if (const auto cap = capture_steps.upper_bound(state.global_step); cap != capture_steps.end())
        boundary = std::min(boundary, *cap);
      if (const std::int64_t ev = coord.next_event_step(state.global_step); ev > 0)
        boundary = std::min(boundary, ev);

      const PhaseConfig cfg = make_phase(leg, boundary - state.global_step, coord.alive_count());
      // Watching legs stop when the detector fires them or a replacement
      // is provisioned.
      StopPredicate stop;
      if (reads_detector(leg.phase.trigger, leg.reaction))
        stop = [&](VTime now, std::int64_t) {
          return detector_fires(leg.phase.trigger, leg.reaction, coord.detector()) ||
                 coord.replacement_due(now);
        };

      const PhaseResult pr =
          runtime.run_phase(state, cfg, coord.active(), straggler_schedule, stop);
      cursor.advance_to(state.global_step);
      diverged = pr.end == PhaseEnd::kDiverged;
      if (pr.end == PhaseEnd::kStopRequested) {
        triggered = leg.phase.trigger != SwitchTrigger::kStepCount;
        if (triggered)
          log_info("plan: ", switch_trigger_name(leg.phase.trigger), " fired at step ",
                   pr.trigger_step, ", leaving ", protocol_name(leg.phase.protocol));
        else if (leg.reaction == Reaction::kLeave)  // the coordinator clamps the leavers
          price_pass(coord.apply(cursor.react(coord.active(), coord.detector().stragglers()),
                                 state.global_step));
        else
          evict_stragglers(leg.reaction == Reaction::kReplace);
      } else if (!diverged) {
        // Budget ran to the segment boundary: snapshot first (a capture due
        // at the same step as a crash happens before the crash, matching a
        // cadence snapshotter that completed just in time), then resolve
        // membership.  A BSP round can overshoot the boundary by up to n-1
        // steps, so every capture at or before the step is consumed, not
        // only an exact match.
        if (const auto passed = capture_steps.upper_bound(state.global_step);
            passed != capture_steps.begin()) {
          if (restores) snapshotter.snapshot_now();
          capture_steps.erase(capture_steps.begin(), passed);
        }
        if (coord.events_due(state.global_step)) price_pass(coord.apply({}, state.global_step));
      }
    }
    if (diverged) break;
    const std::vector<int> returned = cursor.finish(triggered);
    if (cursor.done()) break;
    if (!returned.empty()) {
      state.clock += actuator.resize_time().scaled(ascale);  // the evicted nodes return
      coord.readmit(returned);
    }
    pay_switch();
  }

  // ---------- Collect results.
  result.diverged = diverged;
  result.steps_completed = state.global_step;
  result.train_time_seconds = state.clock.seconds();
  const auto converged = profiler.converged_accuracy();
  result.converged = !diverged && converged.has_value();
  result.final_accuracy = profiler.final_accuracy();
  result.best_accuracy = profiler.best_accuracy();
  result.converged_accuracy =
      diverged ? 0.0 : (converged ? *converged : profiler.final_accuracy());
  result.mean_staleness = profiler.mean_staleness();
  result.final_train_loss = profiler.tail_loss();
  if (state.clock.seconds() > 0.0)
    result.throughput_images_per_sec =
        static_cast<double>(profiler.total_images()) / state.clock.seconds();
  result.loss_curve = profiler.loss_curve();
  result.accuracy_curve = profiler.accuracy_curve();
  return result;
}

}  // namespace ss
