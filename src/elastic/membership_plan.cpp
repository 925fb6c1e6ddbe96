#include "elastic/membership_plan.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace ss {

std::string membership_event_name(MembershipEventKind k) {
  switch (k) {
    case MembershipEventKind::kCrash:
      return "crash";
    case MembershipEventKind::kJoin:
      return "join";
    case MembershipEventKind::kLeave:
      return "leave";
  }
  return "?";
}

std::string recovery_mode_name(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::kRestoreSnapshot:
      return "restore";
    case RecoveryMode::kKeepLive:
      return "keeplive";
  }
  return "?";
}

MembershipPlan::MembershipPlan(std::vector<MembershipEvent> events)
    : events_(std::move(events)) {
  for (const MembershipEvent& e : events_) {
    if (e.at_step <= 0)
      throw ConfigError("MembershipPlan: event steps must be > 0 (events before the run "
                        "starts have no state to act on)");
    if (e.kind == MembershipEventKind::kJoin) {
      if (e.worker != -1)
        throw ConfigError("MembershipPlan: join events must leave worker = -1 (the "
                          "coordinator assigns the next free slot)");
    } else if (e.worker < 0) {
      throw ConfigError("MembershipPlan: " + membership_event_name(e.kind) +
                        " events must name a worker slot");
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.at_step < b.at_step;
                   });
}

MembershipPlan MembershipPlan::reactive_evict() {
  MembershipPlan plan;
  plan.reactive_ = true;
  return plan;
}

MembershipPlan MembershipPlan::crash(int worker, std::int64_t at_step) {
  return MembershipPlan({{MembershipEventKind::kCrash, worker, at_step}});
}

MembershipPlan MembershipPlan::join(std::int64_t at_step) {
  return MembershipPlan({{MembershipEventKind::kJoin, -1, at_step}});
}

MembershipPlan MembershipPlan::leave(int worker, std::int64_t at_step) {
  return MembershipPlan({{MembershipEventKind::kLeave, worker, at_step}});
}

std::size_t MembershipPlan::join_count() const noexcept {
  std::size_t n = 0;
  for (const MembershipEvent& e : events_)
    if (e.kind == MembershipEventKind::kJoin) ++n;
  return n;
}

std::string MembershipPlan::label() const {
  if (empty()) return "-";
  std::ostringstream os;
  if (reactive_) os << "evict!";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) os << "+";
    const MembershipEvent& e = events_[i];
    os << membership_event_name(e.kind);
    if (e.kind != MembershipEventKind::kJoin) os << e.worker;
    os << "@" << e.at_step;
  }
  return os.str();
}

bool ElasticConfig::takes_snapshots() const noexcept {
  return recovery == RecoveryMode::kRestoreSnapshot &&
         std::any_of(plan.events().begin(), plan.events().end(),
                     [](const MembershipEvent& e) { return e.kind == MembershipEventKind::kCrash; });
}

std::string ElasticConfig::label() const {
  if (empty()) return "-";
  std::ostringstream os;
  os << plan.label() << "|si=" << snapshot_interval << "|rm=" << recovery_mode_name(recovery)
     << "|min=" << min_workers;
  return os.str();
}

}  // namespace ss
