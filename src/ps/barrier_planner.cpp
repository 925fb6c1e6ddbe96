#include "ps/barrier_planner.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "common/error.h"
#include "core/config_policy.h"

namespace ss {

namespace {

/// The controller's evictions go through the coordinator with an empty
/// plan, so its floor comes from the controller config.
ElasticConfig membership_config(const ThreadedTrainConfig& cfg) {
  ElasticConfig out = cfg.elastic;
  if (cfg.controller.enabled)
    out.min_workers = std::max<std::size_t>(1, cfg.controller.min_workers);
  return out;
}

}  // namespace

BarrierPlanner::BarrierPlanner(ThreadedTrainConfig cfg, SharedParameterServer& ps,
                               AsyncSnapshotter& snapshots, Clock clock)
    : cfg_(std::move(cfg)),
      ps_(ps),
      snapshots_(snapshots),
      clock_(clock),
      cursor_(lower(cfg_), cfg_.steps_per_worker),
      coord_(membership_config(cfg_), cfg_.num_workers, cfg_.detector, &snapshots, &ps),
      watched_(reads_detector(cursor_.legs())),
      slots_(coord_.max_slots()),
      clocks_(coord_.max_slots(), 0),
      compress_(cfg_.compression.enabled()),
      eval_params_(cfg_.eval_hook ? ps.num_params() : 0) {
  if (cfg_.controller.enabled) controller_.emplace(cfg_.controller, cfg_.compression);
}

void BarrierPlanner::start() {
  run_start_ = clock_();
  arm();
}

std::vector<PlanLeg> BarrierPlanner::lower(const ThreadedTrainConfig& cfg) {
  if (cfg.num_workers == 0) throw ConfigError("threaded_train: num_workers must be > 0");
  if (cfg.steps_per_worker <= 0) throw ConfigError("threaded_train: steps must be > 0");
  if (cfg.controller.enabled) {
    if (!cfg.schedule.empty())
      throw ConfigError("threaded_train: the controller picks phases itself; an explicit "
                        "switch schedule cannot compose with controller mode");
    if (!cfg.elastic.empty())
      throw ConfigError("threaded_train: the controller owns the worker set; elastic "
                        "membership plans cannot compose with controller mode");
    if (cfg.controller.decision_interval <= 0)
      throw ConfigError("threaded_train: controller decision_interval must be > 0");
  }
  SyncSwitchPolicy policy = SyncSwitchPolicy::pure(cfg.protocol);
  policy.schedule = cfg.schedule;
  policy.ssp_staleness_bound = cfg.ssp_staleness_bound;
  std::vector<PlanLeg> legs = lower_plan(policy, cfg.steps_per_worker, cfg.elastic.plan, false);
  for (const PlanLeg& leg : legs)
    if (!threaded_supported(leg.phase.protocol))
      throw ConfigError("threaded_train: protocol " + protocol_name(leg.phase.protocol) +
                        " is simulator-only (supported here: BSP, ASP, SSP)");
  // The controller's first interval is a leg like the ones it appends.
  if (cfg.controller.enabled) legs[0].phase.steps = cfg.controller.decision_interval;
  return legs;
}

double BarrierPlanner::lr(Protocol protocol, std::size_t n) const {
  if (!cfg_.derive_phase_lr) return cfg_.lr;
  const BaseHyper base{cfg_.batch_size, cfg_.lr, cfg_.momentum};
  auto multiplier = [&](std::size_t workers) {
    return derive_hyper(protocol, workers, base, MomentumPolicy::kBaseline, 1).lr_multiplier;
  };
  // A fixed protocol rescales relative to the initial cluster.
  const bool relative = cfg_.schedule.empty() && !controller_;
  return cfg_.lr * (multiplier(n) / (relative ? multiplier(cfg_.num_workers) : 1.0));
}

void BarrierPlanner::arm() {
  const PlanLeg& leg = cursor_.leg();
  const std::int64_t event = coord_.next_event_step(cursor_.progress());
  const std::int64_t end = event > 0 ? std::min(cursor_.visit_end(), event) : cursor_.visit_end();
  const std::size_t n = coord_.alive_count();
  seg_.leg = cursor_.index();
  seg_.plan = leg;
  seg_.lr = lr(leg.phase.protocol, n);
  seg_.compress = compress_;
  seg_.start = cursor_.progress() - done();
  seg_.quota = end - done();
  seg_.ticket_budget = static_cast<std::int64_t>(n) * (seg_.quota - seg_.start);
  seg_.tickets = 0;
  seg_.fired = false;
  std::fill(clocks_.begin(), clocks_.end(), seg_.start);
  if (seg_.start == 0) phase_start_ = clock_();
}

bool BarrierPlanner::admit(std::size_t w) {
  std::unique_lock<std::mutex> lock(clock_mu_);
  const std::int64_t& clock = clocks_[w];
  const bool bounded = seg_.plan.phase.protocol == Protocol::kSsp;
  const auto gap = [&] {  // to the alive slots' slowest clock
    std::int64_t slowest = clock;
    for (int s : coord_.active()) slowest = std::min(slowest, clocks_[s]);
    return clock - slowest;
  };
  // A dead peer's clock stops advancing, so without the abort check an SSP
  // waiter whose bound the dead peer anchors would park forever; abort()
  // raises the flag under this lock and notifies, so the wake cannot be lost.
  const auto spent = [&] {
    return aborted_.load() ||
           (bounded ? clock >= seg_.quota : seg_.tickets >= seg_.ticket_budget);
  };
  if (bounded)
    clock_cv_.wait(lock, [&] { return spent() || gap() <= seg_.plan.phase.ssp_staleness_bound; });
  if (spent()) return false;
  if (!bounded) ++seg_.tickets;
  slots_[w].max_gap = std::max(slots_[w].max_gap, gap());
  return true;
}

void BarrierPlanner::stepped(std::size_t w) {
  {
    const std::lock_guard<std::mutex> lock(clock_mu_);
    ++clocks_[w];
  }
  clock_cv_.notify_all();
}

bool BarrierPlanner::observe(std::size_t w, double seconds) {
  SlotCounters& c = slots_[w];
  c.step_seconds += seconds;
  ++c.step_count;
  if (!watched_) return false;
  const std::lock_guard<std::mutex> lock(det_mu_);
  StragglerDetector& detector = coord_.detector();
  return detector.observe(static_cast<int>(w), cfg_.batch_size, VTime::from_seconds(seconds)) &&
         detector_fires(seg_.plan.phase.trigger, seg_.plan.reaction, detector);
}

bool BarrierPlanner::fires() {
  if (!watched_) return false;
  const std::lock_guard<std::mutex> lock(det_mu_);
  return detector_fires(seg_.plan.phase.trigger, seg_.plan.reaction, coord_.detector());
}

std::optional<Segment> BarrierPlanner::latch() {
  std::unique_lock<std::mutex> lock(clock_mu_);
  if (seg_.fired) return std::nullopt;
  seg_.fired = true;
  const auto n = static_cast<std::int64_t>(coord_.alive_count());
  if (seg_.plan.phase.protocol == Protocol::kSsp) {
    std::int64_t fastest = 0;
    for (int s : coord_.active()) fastest = std::max(fastest, clocks_[s]);
    seg_.quota = std::min(seg_.quota, fastest + 1);
  } else if (seg_.plan.phase.trigger != SwitchTrigger::kStepCount) {
    seg_.ticket_budget = std::min(seg_.ticket_budget, (seg_.tickets + n - 1) / n * n);
  }
  const Segment latched = seg_;
  lock.unlock();
  clock_cv_.notify_all();
  return latched;
}

void BarrierPlanner::abort() {
  const std::lock_guard<std::mutex> lock(clock_mu_);
  aborted_.store(true);
  clock_cv_.notify_all();
}

BarrierPlanner::Drained BarrierPlanner::drain(std::int64_t updates) {
  if (aborted_.load()) return Drained::kOver;
  const TimePoint now = clock_();
  // BSP and SSP clocks are equal across alive workers.  An ASP segment
  // always ends on a multiple of n_alive tickets (its budget, or the one
  // latch() rounded), so its per-worker step count is exact.
  const std::int64_t reached =
      seg_.plan.phase.protocol == Protocol::kAsp
          ? seg_.start + seg_.tickets / static_cast<std::int64_t>(coord_.alive_count())
          : clocks_[leader()];
  const bool triggered = seg_.fired && seg_.plan.phase.trigger != SwitchTrigger::kStepCount;
  if (seg_.fired && !triggered)  // the kLeave reaction
    evict_ = cursor_.react(coord_.active(), coord_.detector().stragglers());
  cursor_.advance_to(cursor_.visit_start() + reached);
  if (triggered || cursor_.progress() >= cursor_.visit_end())
    finish_phase(reached, triggered, updates, now);
  if (finished()) return Drained::kOver;
  if (evict_ || coord_.events_due(cursor_.progress())) return Drained::kMembership;
  arm();
  return Drained::kArmed;
}

void BarrierPlanner::finish_phase(std::int64_t steps, bool triggered, std::int64_t updates,
                                  TimePoint now) {
  ThreadedPhaseStats s{.protocol = seg_.plan.phase.protocol, .ended_by_trigger = triggered,
                       .start_step = cursor_.visit_start(), .steps = steps,
                       .updates = updates - phase_start_updates_};
  std::int64_t staleness_sum = 0;
  for (SlotCounters& c : slots_) {
    staleness_sum += c.staleness_sum;
    s.push_bytes += c.push_bytes;
    s.max_clock_gap = std::max(s.max_clock_gap, c.max_gap);
    c.staleness_sum = c.push_bytes = c.max_gap = 0;
  }
  if (s.protocol != Protocol::kBsp && s.updates > 0) {
    s.mean_staleness = static_cast<double>(staleness_sum) / static_cast<double>(s.updates);
    async_staleness_ += staleness_sum;
    async_updates_ += s.updates;
  }
  s.wall_seconds = std::chrono::duration<double>(now - phase_start_).count();
  if (s.wall_seconds > 0.0) s.updates_per_sec = static_cast<double>(s.updates) / s.wall_seconds;
  phase_start_updates_ = updates;
  cursor_.finish(triggered);
  result_.phases.push_back(s);
  result_.max_clock_gap = std::max(result_.max_clock_gap, s.max_clock_gap);
  result_.push_bytes += s.push_bytes;
  if (cfg_.eval_hook) {
    // Every worker is parked and every push applied, so the pull is
    // consistent.  Hook time is charged to the run clock, as the
    // controller's decision time is, not to any phase or worker step.
    ps_.pull(eval_params_);
    cfg_.eval_hook(done(), std::chrono::duration<double>(now - run_start_).count(), eval_params_);
  }
  decide(s);
}

MeasuredPhaseCosts BarrierPlanner::measure() {
  MeasuredPhaseCosts measured;
  measured.num_workers = coord_.alive_count();
  measured.batch_size = cfg_.batch_size;
  measured.push_bytes = static_cast<double>(ps_.num_params() * sizeof(float));
  std::vector<double> means;
  int slowest = -1;  ///< first alive slot with the largest mean
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    SlotCounters& c = slots_[w];
    // Under the shared ASP budget a slot can finish no step in a short
    // interval: its peers spend every ticket before it draws one.  That
    // says nothing about its speed, so it keeps its last measured mean —
    // dropping it would hide a straggler from the controller.
    if (c.step_count > 0)
      c.last_step_mean = c.step_seconds / static_cast<double>(c.step_count);
    c.step_seconds = 0.0;
    c.step_count = 0;
    if (!coord_.is_alive(static_cast<int>(w)) || c.last_step_mean <= 0.0) continue;
    means.push_back(c.last_step_mean);
    if (slowest < 0 || c.last_step_mean > slots_[slowest].last_step_mean)
      slowest = static_cast<int>(w);
  }
  if (!means.empty()) {
    std::sort(means.begin(), means.end());
    // Lower median: robust to the straggler itself for any cluster >= 2.
    const double median = means[(means.size() - 1) / 2];
    measured.step_seconds = median;
    measured.straggler_factor = median > 0.0 ? slots_[slowest].last_step_mean / median : 1.0;
    measured.straggler_worker = slowest;
  }
  return measured;
}

void BarrierPlanner::decide(const ThreadedPhaseStats& phase) {
  if (!controller_) return;
  const double sec_per_step = phase.steps > 0 && phase.wall_seconds > 0.0
                                  ? phase.wall_seconds / static_cast<double>(phase.steps)
                                  : 0.0;
  if (!result_.decisions.empty() && prev_sec_per_step_ > 0.0 && sec_per_step > 0.0)
    result_.decisions.back().realized_gain = 1.0 - sec_per_step / prev_sec_per_step_;
  prev_sec_per_step_ = sec_per_step;
  const MeasuredPhaseCosts measured = measure();
  if (finished()) return;  // realized gain settled; nothing left to decide

  // The phase just run is the last leg: the controller appends each one.
  // Should the controller throw, this hold stands: the runtime drains from
  // a noexcept barrier completion, so the run keeps its configuration
  // rather than go down.
  const PlanLeg& leg = cursor_.legs().back();
  ControllerDecision d;
  d.at_step = done();
  d.protocol_before = leg.phase.protocol;
  try {
    d = controller_->decide(done(), leg.phase.protocol, leg.phase.ssp_staleness_bound, compress_,
                            measured, done() - last_move_step_, cfg_.steps_per_worker - done());
  } catch (const std::exception& e) {
    d.reason = std::string("hold:error ") + e.what();
  } catch (...) {
    d.reason = "hold:error unknown";
  }
  enact(std::move(d));
}

void BarrierPlanner::enact(ControllerDecision d) {
  PlanLeg next = cursor_.legs().back();  // lower() gave it decision_interval steps
  if (d.enacted) {
    last_move_step_ = done();
    if (d.chosen.evict_straggler) {
      evict_ = std::vector<int>{d.measured.straggler_worker};
    } else {
      next.phase.protocol = d.chosen.protocol;
      next.phase.ssp_staleness_bound = d.chosen.ssp_staleness_bound >= 0
                                           ? d.chosen.ssp_staleness_bound
                                           : cfg_.ssp_staleness_bound;
      compress_ = d.chosen.compress && cfg_.compression.enabled();
    }
  }
  result_.decisions.push_back(std::move(d));
  cursor_.append(next);
}

std::span<const ThreadedMembershipStats> BarrierPlanner::recover() {
  const TimePoint start = clock_();
  const std::vector<AppliedMembershipEvent> applied =
      coord_.apply(std::exchange(evict_, std::nullopt).value_or(std::vector<int>{}),
                   cursor_.progress());
  // Resume the interrupted phase, or enter the next one if the previous
  // epoch finished its phase exactly at the membership boundary.
  arm();
  const double seconds = std::chrono::duration<double>(clock_() - start).count();
  const std::size_t first = result_.membership.size();
  for (const AppliedMembershipEvent& a : applied)
    result_.membership.push_back({.kind = a.event.kind,
                                  .worker = a.event.worker,
                                  .at_step = a.event.at_step,
                                  .workers_after = a.workers_after,
                                  .lr_after = seg_.lr,
                                  .updates_lost = a.updates_lost,
                                  .recovery_wall_seconds = seconds});
  return std::span<const ThreadedMembershipStats>(result_.membership).subspan(first);
}

ThreadedTrainResult BarrierPlanner::finish(std::int64_t updates) {
  result_.total_updates = updates;
  result_.snapshots_taken = snapshots_.count();
  if (async_updates_ > 0)
    result_.mean_staleness =
        static_cast<double>(async_staleness_) / static_cast<double>(async_updates_);
  result_.final_params.resize(ps_.num_params());
  ps_.pull(result_.final_params);
  return std::move(result_);
}

}  // namespace ss
