#include "ps/switch_schedule.h"

#include <sstream>

#include "common/error.h"

namespace ss {

std::string switch_trigger_name(SwitchTrigger t) {
  switch (t) {
    case SwitchTrigger::kStepCount:
      return "steps";
    case SwitchTrigger::kStragglerDetected:
      return "straggler-detected";
    case SwitchTrigger::kStragglerCleared:
      return "straggler-cleared";
  }
  return "?";
}

SwitchSchedule::SwitchSchedule(std::vector<SwitchPhase> phases) : phases_(std::move(phases)) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const SwitchPhase& p = phases_[i];
    const bool last = i + 1 == phases_.size();
    if (p.steps < 0) throw ConfigError("SwitchSchedule: phase steps must be >= 0");
    if (p.trigger != SwitchTrigger::kStepCount && p.steps != 0)
      throw ConfigError("SwitchSchedule: reactive phases run until the trigger fires; steps must be 0");
    if (last) {
      // The last phase runs out the remaining budget: a step quota would be
      // ignored and a reactive trigger would have nothing to switch to.
      if (p.trigger != SwitchTrigger::kStepCount || p.steps != 0)
        throw ConfigError("SwitchSchedule: last phase must be kStepCount with steps == 0");
    } else if (p.trigger == SwitchTrigger::kStepCount && p.steps == 0) {
      throw ConfigError("SwitchSchedule: non-last step-triggered phase needs steps > 0");
    }
  }
}

bool SwitchSchedule::has_reactive_trigger() const noexcept {
  for (const SwitchPhase& p : phases_)
    if (p.trigger != SwitchTrigger::kStepCount) return true;
  return false;
}

std::string SwitchSchedule::label() const {
  if (phases_.empty()) return "-";
  std::ostringstream os;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (i > 0) os << '+';
    const SwitchPhase& p = phases_[i];
    os << protocol_name(p.protocol);
    switch (p.trigger) {
      case SwitchTrigger::kStepCount:
        os << ':' << p.steps;
        break;
      case SwitchTrigger::kStragglerDetected:
        os << ":det";
        break;
      case SwitchTrigger::kStragglerCleared:
        os << ":clr";
        break;
    }
    if (p.ssp_staleness_bound >= 0) os << 'b' << p.ssp_staleness_bound;
  }
  return os.str();
}

SwitchSchedule SwitchSchedule::single(Protocol p) {
  return SwitchSchedule({SwitchPhase{p, SwitchTrigger::kStepCount, 0, -1}});
}

SwitchSchedule SwitchSchedule::step_switched(
    std::vector<std::pair<Protocol, std::int64_t>> legs) {
  std::vector<SwitchPhase> phases;
  phases.reserve(legs.size());
  for (const auto& [proto, steps] : legs)
    phases.push_back(SwitchPhase{proto, SwitchTrigger::kStepCount, steps, -1});
  return SwitchSchedule(std::move(phases));
}

SwitchSchedule SwitchSchedule::bsp_to_asp(std::int64_t bsp_steps) {
  return step_switched({{Protocol::kBsp, bsp_steps}, {Protocol::kAsp, 0}});
}

SwitchSchedule SwitchSchedule::reactive(Protocol first, Protocol second) {
  return SwitchSchedule({SwitchPhase{first, SwitchTrigger::kStragglerDetected, 0, -1},
                         SwitchPhase{second, SwitchTrigger::kStepCount, 0, -1}});
}

SwitchSchedule SwitchSchedule::reactive_round_trip(Protocol first, Protocol second) {
  return SwitchSchedule({SwitchPhase{first, SwitchTrigger::kStragglerDetected, 0, -1},
                         SwitchPhase{second, SwitchTrigger::kStragglerCleared, 0, -1},
                         SwitchPhase{first, SwitchTrigger::kStepCount, 0, -1}});
}

}  // namespace ss
