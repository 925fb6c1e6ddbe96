#include "elastic/recovery_coordinator.h"

#include <algorithm>

#include "common/error.h"
#include "elastic/async_snapshotter.h"
#include "ps/param_server.h"

namespace ss {

namespace {

std::size_t floor_of(const ElasticConfig& cfg) { return std::max<std::size_t>(cfg.min_workers, 1); }

bool contains(const std::vector<int>& slots, int slot) {
  return std::find(slots.begin(), slots.end(), slot) != slots.end();
}

/// Resolves scripted event `e` against the ascending `alive` set: a join
/// claims `next_slot`; a crash or leave retires its target, which must be
/// alive, and may not shrink the set below `floor`.
void resolve(MembershipEvent& e, std::vector<int>& alive, std::size_t& next_slot,
             std::size_t floor) {
  if (e.kind == MembershipEventKind::kJoin) {
    e.worker = static_cast<int>(next_slot++);
    alive.push_back(e.worker);
    std::sort(alive.begin(), alive.end());
    return;
  }
  if (!contains(alive, e.worker))
    throw ConfigError("MembershipPlan: " + membership_event_name(e.kind) + " of worker " +
                      std::to_string(e.worker) + " at step " + std::to_string(e.at_step) +
                      " targets a slot that is not alive at that point");
  if (alive.size() <= floor)
    throw ConfigError("MembershipPlan: " + membership_event_name(e.kind) + " at step " +
                      std::to_string(e.at_step) + " would shrink the cluster below " +
                      std::to_string(floor) + " worker(s)");
  std::erase(alive, e.worker);
}

}  // namespace

RecoveryCoordinator::RecoveryCoordinator(const ElasticConfig& cfg, std::size_t initial_workers,
                                         const DetectorConfig& detector,
                                         AsyncSnapshotter* snapshots, SharedParameterServer* ps)
    : cfg_(cfg),
      snapshots_(snapshots),
      ps_(ps),
      next_slot_(initial_workers),
      max_slots_(initial_workers + cfg.plan.join_count()),
      detector_(max_slots_, detector) {
  if (initial_workers == 0)
    throw ConfigError("RecoveryCoordinator: initial cluster must have at least one worker");
  active_.reserve(max_slots_);
  for (std::size_t w = 0; w < initial_workers; ++w) active_.push_back(static_cast<int>(w));
  // Retired or not-yet-joined slots must not block the detector's warm-up.
  detector_.set_active(active_);
  // Dry-run the scripted plan so infeasible plans fail at configuration
  // time, through the rule apply() resolves them with.
  std::vector<int> alive = active_;
  std::size_t slot = next_slot_;
  for (MembershipEvent e : cfg_.plan.events()) resolve(e, alive, slot, floor_of(cfg_));
  if (cfg_.takes_snapshots() && (snapshots_ == nullptr || ps_ == nullptr))
    throw ConfigError("RecoveryCoordinator: a crash under kRestoreSnapshot needs the "
                      "snapshotter and the parameter server it restores");
}

bool RecoveryCoordinator::is_alive(int slot) const noexcept { return contains(active_, slot); }

std::int64_t RecoveryCoordinator::next_event_step(std::int64_t progress) const noexcept {
  const auto& events = cfg_.plan.events();
  for (std::size_t i = next_event_; i < events.size(); ++i)
    if (events[i].at_step > progress) return events[i].at_step;
  return -1;
}

bool RecoveryCoordinator::events_due(std::int64_t progress) const noexcept {
  const auto& events = cfg_.plan.events();
  return next_event_ < events.size() && events[next_event_].at_step <= progress;
}

std::vector<AppliedMembershipEvent> RecoveryCoordinator::apply(const std::vector<int>& leavers,
                                                               std::int64_t progress) {
  std::vector<AppliedMembershipEvent> applied;
  for (int slot : leavers) {
    if (!is_alive(slot)) continue;
    if (active_.size() <= floor_of(cfg_)) break;  // keep the floor, drop the rest
    std::erase(active_, slot);
    applied.push_back({{MembershipEventKind::kLeave, slot, progress}, active_.size()});
  }
  // The dry run holds unless reactive leavers interleaved; resolve()
  // re-checks, so that combination fails loudly instead of corrupting the set.
  while (events_due(progress)) {
    MembershipEvent e = cfg_.plan.events()[next_event_++];
    resolve(e, active_, next_slot_, floor_of(cfg_));
    applied.push_back({e, active_.size()});
  }
  // Parameters + velocity roll back to the latest snapshot; the step
  // counters and versions do not (batches are not replayed), and surviving
  // workers keep their error-feedback residuals.  One rollback serves every
  // crash of the pass, so its loss is charged once, to the first.
  const auto crash = std::find_if(applied.begin(), applied.end(), [](const auto& a) {
    return a.event.kind == MembershipEventKind::kCrash;
  });
  if (crash != applied.end() && cfg_.takes_snapshots())
    if (const std::optional<std::int64_t> lost = snapshots_->restore_latest(
            [this](const Checkpoint& snap) { ps_->restore(snap); })) {
      crash->restored = true;
      crash->updates_lost = *lost;
    }
  // Throughput history is not comparable across a cluster change.
  detector_.set_active(active_);
  return applied;
}

void RecoveryCoordinator::set_aside(const std::vector<int>& slots, std::optional<VTime> ready) {
  for (int slot : slots) {
    std::erase(active_, slot);
    aside_.push_back({slot, ready});
  }
  detector_.set_active(active_);
}

template <class Due>
std::vector<int> RecoveryCoordinator::readmit_where(Due due) {
  const auto back = std::stable_partition(aside_.begin(), aside_.end(),
                                          [&](const SetAside& s) { return !due(s); });
  std::vector<int> slots;
  for (auto it = back; it != aside_.end(); ++it) slots.push_back(it->slot);
  aside_.erase(back, aside_.end());
  if (slots.empty()) return slots;
  active_.insert(active_.end(), slots.begin(), slots.end());
  std::sort(active_.begin(), active_.end());
  detector_.set_active(active_);
  return slots;
}

std::vector<int> RecoveryCoordinator::readmit(VTime now) {
  return readmit_where([now](const SetAside& s) { return s.ready && *s.ready <= now; });
}

void RecoveryCoordinator::readmit(const std::vector<int>& slots) {
  readmit_where([&](const SetAside& s) { return contains(slots, s.slot); });
}

bool RecoveryCoordinator::replacement_due(VTime now) const noexcept {
  return std::any_of(aside_.begin(), aside_.end(),
                     [now](const SetAside& s) { return s.ready && *s.ready <= now; });
}

}  // namespace ss
