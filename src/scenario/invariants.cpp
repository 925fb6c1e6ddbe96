#include "scenario/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>

#include "core/run_cache.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/sim_runtime.h"
#include "ps/threaded_runtime.h"

namespace ss {

namespace {

// --- Bitwise RunResult comparison ------------------------------------------

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// --- Simulator-side observer -----------------------------------------------

/// Counts what the structural RunResult cannot show: per-update staleness by
/// protocol family, and the final global step the PS actually reached.
class RecordingSink final : public MetricsSink {
 public:
  void on_task(const TaskObservation&) override {}
  void on_update(const UpdateObservation& obs) override {
    ++updates;
    if (obs.global_step < last_global_step) ++non_monotone_steps;
    last_global_step = obs.global_step;
    if (is_synchronous(obs.protocol)) {
      if (obs.staleness != 0) ++sync_staleness_violations;
    } else {
      async_updates += 1;
      max_async_staleness = std::max(max_async_staleness, obs.staleness);
      if (obs.protocol == Protocol::kSsp || obs.protocol == Protocol::kDssp)
        max_bounded_staleness = std::max(max_bounded_staleness, obs.staleness);
    }
  }
  void on_eval(std::int64_t, VTime, double) override {}

  std::int64_t updates = 0;
  std::int64_t async_updates = 0;
  std::int64_t last_global_step = 0;
  std::int64_t non_monotone_steps = 0;
  std::int64_t sync_staleness_violations = 0;
  std::int64_t max_async_staleness = 0;
  std::int64_t max_bounded_staleness = 0;
};

// --- Scenario shape helpers ------------------------------------------------

struct ScenarioShape {
  std::int64_t max_slots = 0;       ///< initial workers + joins
  std::size_t num_crashes = 0;
  std::size_t planned_switches = 0;
  bool switch_margin_holds = false; ///< tail big enough to pay every switch
  bool all_synchronous = true;
  int max_bound = 0;                ///< largest effective SSP/DSSP bound
  bool has_bounded_phase = false;   ///< any SSP/DSSP leg
};

ScenarioShape shape_of(const Scenario& s) {
  ScenarioShape sh;
  sh.max_slots =
      static_cast<std::int64_t>(s.num_workers + s.elastic.plan.join_count());
  for (const MembershipEvent& e : s.elastic.plan.events())
    if (e.kind == MembershipEventKind::kCrash) ++sh.num_crashes;

  const auto& phases = s.schedule.phases();
  sh.planned_switches = phases.empty() ? 0 : phases.size() - 1;
  std::int64_t nonlast = 0;
  for (std::size_t i = 0; i + 1 < phases.size(); ++i) nonlast += phases[i].steps;
  // Each phase transition can overshoot by at most max_slots - 1 steps (one
  // BSP round with every slot alive); a tail bigger than the accumulated
  // worst case means every planned switch is paid.
  sh.switch_margin_holds =
      s.total_steps - nonlast >
      static_cast<std::int64_t>(phases.size() + 1) * sh.max_slots;

  sh.max_bound = s.ssp_staleness_bound;
  if (phases.empty()) {
    sh.all_synchronous = true;  // to_run_request installs a single BSP phase
  } else {
    for (const SwitchPhase& p : phases) {
      if (!is_synchronous(p.protocol)) sh.all_synchronous = false;
      if (p.protocol == Protocol::kSsp || p.protocol == Protocol::kDssp) {
        sh.has_bounded_phase = true;
        int b = p.ssp_staleness_bound >= 0 ? p.ssp_staleness_bound : s.ssp_staleness_bound;
        if (p.protocol == Protocol::kDssp) b += kDsspStalenessUpper;
        sh.max_bound = std::max(sh.max_bound, b);
      }
    }
  }
  return sh;
}

// --- Threaded expected accounting ------------------------------------------

struct SlotInterval {
  std::int64_t birth = 0;
  std::int64_t death = 0;  ///< exclusive, in local steps
};

std::vector<SlotInterval> slot_intervals(const ThreadedTrainConfig& cfg) {
  const auto total = cfg.steps_per_worker;
  std::vector<SlotInterval> slots(cfg.num_workers, SlotInterval{0, total});
  for (const MembershipEvent& e : cfg.elastic.plan.events()) {
    if (e.kind == MembershipEventKind::kJoin)
      slots.push_back(SlotInterval{e.at_step, total});
    else if (e.worker >= 0 && static_cast<std::size_t>(e.worker) < slots.size())
      slots[static_cast<std::size_t>(e.worker)].death = e.at_step;
  }
  return slots;
}

std::int64_t overlap(std::int64_t a_lo, std::int64_t a_hi, std::int64_t b_lo,
                     std::int64_t b_hi) {
  return std::max<std::int64_t>(0, std::min(a_hi, b_hi) - std::max(a_lo, b_lo));
}

/// PS updates the threaded run applies in local steps [0, horizon): one
/// aggregated update per BSP round, one per worker step under ASP/SSP,
/// clipped against each slot's lifetime.  Exact because scripted membership
/// and phase boundaries both resolve at common drain steps.
std::int64_t expected_updates_until(const ThreadedTrainConfig& cfg,
                                    const std::vector<SlotInterval>& slots,
                                    std::int64_t horizon) {
  std::vector<SwitchPhase> phases;
  if (cfg.schedule.empty()) {
    SwitchPhase p;
    p.protocol = cfg.protocol;
    phases.push_back(p);
  } else {
    phases = cfg.schedule.phases();
  }
  std::int64_t updates = 0;
  std::int64_t start = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const std::int64_t end =
        i + 1 == phases.size() ? cfg.steps_per_worker : start + phases[i].steps;
    const std::int64_t lo = std::min(start, horizon);
    const std::int64_t hi = std::min(end, horizon);
    if (phases[i].protocol == Protocol::kBsp) {
      updates += hi - lo;
    } else {
      for (const SlotInterval& sl : slots) updates += overlap(lo, hi, sl.birth, sl.death);
    }
    start = end;
  }
  return updates;
}

void check_threaded(const Scenario& s, std::vector<std::string>& violations) {
  auto viol = [&](const std::string& msg) { violations.push_back("threaded: " + msg); };

  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 128;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.class_separation = 1.5;
  const DataSplit split = make_synthetic(spec);
  Rng model_rng(11);
  const Model proto = make_model(ModelArch::kLinear, split.train.feature_dim(), 4, model_rng);

  ThreadedTrainConfig cfg = s.to_threaded_config();
  ThreadedTrainResult tr;
  try {
    tr = threaded_train(proto, split.train, cfg);
  } catch (const std::exception& e) {
    viol(std::string("threaded_train threw: ") + e.what());
    return;
  }

  const std::vector<SlotInterval> slots = slot_intervals(cfg);
  const std::int64_t expected_updates =
      expected_updates_until(cfg, slots, cfg.steps_per_worker);
  if (tr.total_updates != expected_updates)
    viol("total_updates = " + std::to_string(tr.total_updates) + ", expected exactly " +
         std::to_string(expected_updates));

  std::int64_t worker_steps = 0;
  for (const SlotInterval& sl : slots) worker_steps += sl.death - sl.birth;
  const std::int64_t expected_bytes =
      worker_steps * static_cast<std::int64_t>(tr.final_params.size() * sizeof(float));
  if (tr.push_bytes != expected_bytes)
    viol("push_bytes = " + std::to_string(tr.push_bytes) + ", expected exactly " +
         std::to_string(expected_bytes));

  const std::size_t expected_phases = std::max<std::size_t>(cfg.schedule.size(), 1);
  if (tr.phases.size() != expected_phases) {
    viol("executed " + std::to_string(tr.phases.size()) + " phases, expected " +
         std::to_string(expected_phases));
  } else {
    for (std::size_t i = 0; i < tr.phases.size(); ++i) {
      const ThreadedPhaseStats& ph = tr.phases[i];
      const SwitchPhase& plan =
          cfg.schedule.empty() ? SwitchPhase{} : cfg.schedule.phase(i);
      const Protocol proto_i = cfg.schedule.empty() ? cfg.protocol : plan.protocol;
      const std::string tag = "phase " + std::to_string(i) + " (" + protocol_name(proto_i) + ")";
      if (ph.protocol != proto_i) viol(tag + ": ran protocol " + protocol_name(ph.protocol));
      if (proto_i == Protocol::kBsp) {
        if (ph.mean_staleness != 0.0)
          viol(tag + ": BSP mean_staleness = " + std::to_string(ph.mean_staleness));
        if (ph.max_clock_gap != 0)
          viol(tag + ": BSP max_clock_gap = " + std::to_string(ph.max_clock_gap));
      }
      if (proto_i == Protocol::kSsp) {
        const int bound = plan.ssp_staleness_bound >= 0 ? plan.ssp_staleness_bound
                                                        : cfg.ssp_staleness_bound;
        if (ph.max_clock_gap > bound)
          viol(tag + ": SSP max_clock_gap = " + std::to_string(ph.max_clock_gap) +
               " exceeds the bound " + std::to_string(bound));
      }
      if (ph.ended_by_trigger) viol(tag + ": ended by a trigger in a scripted scenario");
    }
  }

  const auto& plan_events = cfg.elastic.plan.events();
  if (tr.membership.size() != plan_events.size()) {
    viol("resolved " + std::to_string(tr.membership.size()) + " membership events, planned " +
         std::to_string(plan_events.size()));
  } else {
    std::int64_t charged_at = -1;  // step of the last pass that charged a restore
    for (std::size_t i = 0; i < tr.membership.size(); ++i) {
      const ThreadedMembershipStats& m = tr.membership[i];
      const std::string tag = "membership event " + std::to_string(i) + " (" +
                              membership_event_name(plan_events[i].kind) + "@" +
                              std::to_string(plan_events[i].at_step) + ")";
      if (m.kind != plan_events[i].kind || m.at_step != plan_events[i].at_step)
        viol(tag + ": resolved as " + membership_event_name(m.kind) + "@" +
             std::to_string(m.at_step));
      const bool restoring_crash = m.kind == MembershipEventKind::kCrash &&
                                   cfg.elastic.recovery == RecoveryMode::kRestoreSnapshot;
      if (!restoring_crash) {
        if (m.updates_lost != 0)
          viol(tag + ": updates_lost = " + std::to_string(m.updates_lost) +
               " on a non-restoring event");
      } else {
        // The events at one step resolve in one pass, whose one restore
        // charges its loss to the pass's first crash and 0 to the others.
        const std::int64_t before =
            m.at_step == charged_at ? 0 : expected_updates_until(cfg, slots, m.at_step);
        charged_at = m.at_step;
        if (cfg.elastic.snapshot_interval == 0) {
          // Only the run-start snapshot exists, so the rollback distance is
          // exactly the progress before the crash.
          if (m.updates_lost != before)
            viol(tag + ": updates_lost = " + std::to_string(m.updates_lost) +
                 ", expected exactly " + std::to_string(before) +
                 " (run-start snapshot only)");
        } else if (m.updates_lost < 0 || m.updates_lost > before) {
          // The async snapshotter may lag its cadence, but it can never lose
          // more than everything applied before the crash.
          viol(tag + ": updates_lost = " + std::to_string(m.updates_lost) +
               " outside [0, " + std::to_string(before) + "]");
        }
      }
    }
  }

  for (float v : tr.final_params) {
    if (!std::isfinite(v)) {
      viol("final parameters are not finite");
      break;
    }
  }
}

}  // namespace

std::vector<std::string> diff_run_results(const RunResult& a, const RunResult& b) {
  std::vector<std::string> diff;
  auto cmp = [&](const char* field, bool equal) {
    if (!equal) diff.emplace_back(field);
  };
  cmp("diverged", a.diverged == b.diverged);
  cmp("converged", a.converged == b.converged);
  cmp("converged_accuracy", bits_equal(a.converged_accuracy, b.converged_accuracy));
  cmp("final_accuracy", bits_equal(a.final_accuracy, b.final_accuracy));
  cmp("best_accuracy", bits_equal(a.best_accuracy, b.best_accuracy));
  cmp("train_time_seconds", bits_equal(a.train_time_seconds, b.train_time_seconds));
  cmp("init_time_seconds", bits_equal(a.init_time_seconds, b.init_time_seconds));
  cmp("switch_overhead_seconds",
      bits_equal(a.switch_overhead_seconds, b.switch_overhead_seconds));
  cmp("num_switches", a.num_switches == b.num_switches);
  cmp("num_membership_events", a.num_membership_events == b.num_membership_events);
  cmp("recovery_overhead_seconds",
      bits_equal(a.recovery_overhead_seconds, b.recovery_overhead_seconds));
  cmp("updates_lost", a.updates_lost == b.updates_lost);
  cmp("mean_staleness", bits_equal(a.mean_staleness, b.mean_staleness));
  cmp("throughput_images_per_sec",
      bits_equal(a.throughput_images_per_sec, b.throughput_images_per_sec));
  cmp("final_train_loss", bits_equal(a.final_train_loss, b.final_train_loss));
  cmp("steps_completed", a.steps_completed == b.steps_completed);

  bool loss_equal = a.loss_curve.size() == b.loss_curve.size();
  for (std::size_t i = 0; loss_equal && i < a.loss_curve.size(); ++i)
    loss_equal = a.loss_curve[i].step == b.loss_curve[i].step &&
                 bits_equal(a.loss_curve[i].seconds, b.loss_curve[i].seconds) &&
                 bits_equal(a.loss_curve[i].loss, b.loss_curve[i].loss);
  cmp("loss_curve", loss_equal);

  bool acc_equal = a.accuracy_curve.size() == b.accuracy_curve.size();
  for (std::size_t i = 0; acc_equal && i < a.accuracy_curve.size(); ++i)
    acc_equal = a.accuracy_curve[i].step == b.accuracy_curve[i].step &&
                bits_equal(a.accuracy_curve[i].seconds, b.accuracy_curve[i].seconds) &&
                bits_equal(a.accuracy_curve[i].accuracy, b.accuracy_curve[i].accuracy);
  cmp("accuracy_curve", acc_equal);
  return diff;
}

std::string ScenarioReport::summary() const {
  std::ostringstream os;
  os << (passed() ? "PASS " : "FAIL ") << label;
  for (const std::string& v : violations) os << "\n  - " << v;
  return os.str();
}

ScenarioReport check_scenario(const Scenario& s, const CheckOptions& opts) {
  ScenarioReport rep;
  rep.label = s.label();
  auto viol = [&](const std::string& msg) { rep.violations.push_back(msg); };
  const ScenarioShape sh = shape_of(s);

  RunRequest req = s.to_run_request();
  RecordingSink sink;
  req.observer = &sink;
  try {
    TrainingSession session(req);
    rep.result = session.run();
  } catch (const std::exception& e) {
    viol(std::string("sim run threw: ") + e.what());
    return rep;
  }
  const RunResult& r = rep.result;

  if (r.diverged) viol("run diverged on the easy fuzz workload");
  if (!std::isfinite(r.final_train_loss))
    viol("final_train_loss is not finite: " + std::to_string(r.final_train_loss));

  if (r.steps_completed < s.total_steps ||
      r.steps_completed > s.total_steps + sh.max_slots)
    viol("steps_completed = " + std::to_string(r.steps_completed) + " outside [" +
         std::to_string(s.total_steps) + ", " +
         std::to_string(s.total_steps + sh.max_slots) + "] (budget + round overshoot)");
  if (sink.updates > 0 && sink.last_global_step != r.steps_completed)
    viol("observer saw the PS stop at step " + std::to_string(sink.last_global_step) +
         " but steps_completed = " + std::to_string(r.steps_completed));
  if (sink.non_monotone_steps > 0)
    viol(std::to_string(sink.non_monotone_steps) + " updates with a decreasing global step");

  const auto planned = static_cast<int>(sh.planned_switches);
  if (sh.switch_margin_holds) {
    if (r.num_switches != planned)
      viol("num_switches = " + std::to_string(r.num_switches) + ", planned exactly " +
           std::to_string(planned));
  } else if (r.num_switches > planned) {
    viol("num_switches = " + std::to_string(r.num_switches) + " exceeds the " +
         std::to_string(planned) + " planned boundaries");
  }

  const auto planned_events = static_cast<int>(s.elastic.plan.size());
  if (r.num_membership_events != planned_events)
    viol("num_membership_events = " + std::to_string(r.num_membership_events) +
         ", planned " + std::to_string(planned_events));
  if (planned_events == 0 && r.recovery_overhead_seconds != 0.0)
    viol("recovery_overhead_seconds = " + std::to_string(r.recovery_overhead_seconds) +
         " without membership events");
  if (r.recovery_overhead_seconds < 0.0) viol("recovery_overhead_seconds is negative");

  // Crash-loss window.  Per restore: nothing under kKeepLive; everything
  // since the last cadence snapshot otherwise, which the interval bounds up
  // to the round overshoot at the capture boundary.  With snapshot_interval
  // == 0 only the run-start snapshot exists, so each restore loses all
  // progress — at least its event step, at most that plus the overshoot.
  // One restore serves every crash of a membership pass, and a pass takes
  // the crashes within one round's overshoot (max_slots - 1) of its first
  // step: such a group adds only its first step to the floor.  The ceiling
  // still counts every crash, which covers the groups that split.
  const auto crashes = static_cast<std::int64_t>(sh.num_crashes);
  if (crashes == 0 || s.elastic.recovery == RecoveryMode::kKeepLive) {
    if (r.updates_lost != 0)
      viol("updates_lost = " + std::to_string(r.updates_lost) +
           " with no restoring crash");
  } else if (s.elastic.snapshot_interval > 0) {
    const std::int64_t per_crash = s.elastic.snapshot_interval + sh.max_slots;
    if (r.updates_lost < 0 || r.updates_lost > crashes * per_crash)
      viol("updates_lost = " + std::to_string(r.updates_lost) + " outside [0, " +
           std::to_string(crashes * per_crash) + "] (crashes x (interval + overshoot))");
  } else {
    std::int64_t lo = 0, hi = 0, group = -1;
    for (const MembershipEvent& e : s.elastic.plan.events())
      if (e.kind == MembershipEventKind::kCrash) {
        if (group < 0 || e.at_step > group + sh.max_slots - 1) {
          group = e.at_step;  // a new pass's first crash
          lo += group;
        }
        hi += e.at_step + sh.max_slots;
      }
    if (r.updates_lost < lo || r.updates_lost > hi)
      viol("updates_lost = " + std::to_string(r.updates_lost) + " outside [" +
           std::to_string(lo) + ", " + std::to_string(hi) +
           "] (run-start snapshot only)");
  }

  if (sink.sync_staleness_violations > 0)
    viol(std::to_string(sink.sync_staleness_violations) +
         " synchronous updates with nonzero staleness");
  if (sh.all_synchronous) {
    if (r.mean_staleness != 0.0)
      viol("all-synchronous schedule reported mean_staleness = " +
           std::to_string(r.mean_staleness));
    if (sink.async_updates > 0)
      viol("all-synchronous schedule produced async updates");
  }
  if (sh.has_bounded_phase) {
    // The SSP gate bounds the local-clock gap at step start, which caps how
    // many pushes any peer can land between one worker's pull and push:
    // peers sit within [c - b, c + b] of the puller and may each advance one
    // extra step before the push, so per-push version staleness is at most
    // (alive - 1) * (2b + 2).  DSSP's floating credit is already folded into
    // max_bound by shape_of().
    const std::int64_t cap =
        (sh.max_slots - 1) * (2 * static_cast<std::int64_t>(sh.max_bound) + 2);
    if (sink.max_bounded_staleness > cap)
      viol("SSP/DSSP per-push staleness " + std::to_string(sink.max_bounded_staleness) +
           " exceeds the gap-implied cap " + std::to_string(cap));
  }

  if (opts.check_determinism && rep.violations.empty()) {
    try {
      TrainingSession replay(s.to_run_request());  // no observer attached
      const RunResult again = replay.run();
      const std::vector<std::string> diff = diff_run_results(r, again);
      if (!diff.empty()) {
        std::ostringstream os;
        os << "replay is not bit-identical; differing fields:";
        for (const std::string& f : diff) os << " " << f;
        viol(os.str());
      }
    } catch (const std::exception& e) {
      viol(std::string("replay threw: ") + e.what());
    }
  }

  if (opts.check_cache_roundtrip) {
    const auto parsed = parse_run_result(serialize_run_result(r));
    if (!parsed) {
      viol("run-cache codec failed to parse its own serialization");
    } else {
      const std::vector<std::string> diff = diff_run_results(r, *parsed);
      if (!diff.empty()) {
        std::ostringstream os;
        os << "run-cache codec round-trip differs in:";
        for (const std::string& f : diff) os << " " << f;
        viol(os.str());
      }
    }
  }

  if (opts.run_threaded && s.threaded_compatible()) {
    rep.threaded_ran = true;
    check_threaded(s, rep.violations);
  }
  return rep;
}

}  // namespace ss
