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

BarrierPlanner::BarrierPlanner(const ThreadedTrainConfig& cfg)
    : cfg_(cfg),
      cursor_(lower(cfg), cfg.steps_per_worker),
      coord_(membership_config(cfg), cfg.num_workers),
      uses_detector_(reads_detector(cursor_.legs())),
      compress_(cfg.compression.enabled()) {
  if (cfg.controller.enabled) controller_.emplace(cfg.controller, cfg.compression);
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

Segment BarrierPlanner::next() {
  const PlanLeg& leg = cursor_.leg();
  const std::int64_t event = coord_.next_event_step(cursor_.progress());
  const std::int64_t end = event > 0 ? std::min(cursor_.visit_end(), event) : cursor_.visit_end();
  return {.leg = cursor_.index(), .plan = leg, .lr = lr(leg.phase.protocol, coord_.alive_count()),
          .compress = compress_, .start = cursor_.progress() - done(), .quota = end - done()};
}

std::optional<ThreadedPhaseStats> BarrierPlanner::drain(std::int64_t reached, bool fired,
                                                        const StragglerDetector& detector) {
  const PlanLeg& leg = cursor_.leg();
  const bool triggered = fired && leg.phase.trigger != SwitchTrigger::kStepCount;
  if (fired && !triggered) {  // the kLeave reaction
    delta_due_ = true;
    evict_ = cursor_.react(coord_.active(), detector.stragglers());
  }
  cursor_.advance_to(cursor_.visit_start() + reached);
  if (!triggered && cursor_.progress() < cursor_.visit_end()) return std::nullopt;
  const ThreadedPhaseStats phase{.protocol = leg.phase.protocol, .ended_by_trigger = triggered,
                                 .start_step = cursor_.visit_start(), .steps = reached};
  cursor_.finish(triggered);
  return phase;
}

void BarrierPlanner::decide(const ThreadedPhaseStats& phase,
                            const std::function<MeasuredPhaseCosts()>& measure) {
  if (!controller_) return;
  const double sec_per_step = phase.steps > 0 && phase.wall_seconds > 0.0
                                  ? phase.wall_seconds / static_cast<double>(phase.steps)
                                  : 0.0;
  if (!decisions_.empty() && prev_sec_per_step_ > 0.0 && sec_per_step > 0.0)
    decisions_.back().realized_gain = 1.0 - sec_per_step / prev_sec_per_step_;
  prev_sec_per_step_ = sec_per_step;
  const MeasuredPhaseCosts measured = measure();
  if (finished()) return;  // realized gain settled; nothing left to decide

  // The phase just run is the last leg: the controller appends each one.
  // Should the controller throw, this hold stands: the runtime calls this
  // from a noexcept barrier completion, so the run keeps its configuration
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
      delta_due_ = true;
      evict_.assign(1, d.measured.straggler_worker);
    } else {
      next.phase.protocol = d.chosen.protocol;
      next.phase.ssp_staleness_bound = d.chosen.ssp_staleness_bound >= 0
                                           ? d.chosen.ssp_staleness_bound
                                           : cfg_.ssp_staleness_bound;
      compress_ = d.chosen.compress && cfg_.compression.enabled();
    }
  }
  decisions_.push_back(std::move(d));
  cursor_.append(next);
}

bool BarrierPlanner::membership_due() const noexcept {
  return delta_due_ || coord_.events_due(cursor_.progress());
}

std::vector<AppliedMembershipEvent> BarrierPlanner::apply_membership() {
  std::vector<AppliedMembershipEvent> applied = coord_.evict(evict_, cursor_.progress());
  const std::vector<AppliedMembershipEvent> scheduled = coord_.advance_to(cursor_.progress());
  applied.insert(applied.end(), scheduled.begin(), scheduled.end());
  delta_due_ = false;
  evict_.clear();
  return applied;
}

}  // namespace ss
