#include "ps/threaded_runtime.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <optional>
#include <thread>

#include "compress/bank.h"
#include "elastic/async_snapshotter.h"
#include "net/inproc_transport.h"
#include "obs/obs.h"
#include "ps/barrier_planner.h"
#include "ps/worker_slot.h"
#include "sim/calibration.h"
#include "tensor/ops.h"

namespace ss {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A worker slot plus the runtime's phase accounting for it.
struct SlotState {
  WorkerSlot slot;
  // Per-phase accumulators, reset by the drain-barrier transition.
  std::int64_t phase_staleness_sum = 0;
  std::int64_t phase_push_bytes = 0;
  // Compute-side step spans (excluding barrier/SSP waits): the controller's
  // measurement source — a straggler's injected delay lands in its own slot
  // instead of being smeared over everyone by barrier waits.  Harvested and
  // reset by measure_phase, which only runs when a controller asks.
  double phase_step_seconds = 0.0;
  std::int64_t phase_step_count = 0;
  /// Mean step time over the slot's last interval with a finished step.
  double last_step_mean = 0.0;
};

}  // namespace

ThreadedTrainResult threaded_train(const Model& prototype, const Dataset& train,
                                   const ThreadedTrainConfig& cfg) {
  // Every decision about what runs next, and on which workers — the
  // schedule's legs, the membership plan, the controller — comes from the
  // planner as a Segment; this function only runs segments.
  BarrierPlanner planner(cfg);
  const RecoveryCoordinator& coord = planner.membership();
  const std::size_t max_slots = coord.max_slots();
  const std::size_t n0 = cfg.num_workers;

  const std::size_t p = prototype.num_params();
  SharedParameterServer ps_impl(prototype.get_params(), cfg.momentum, cfg.num_ps_shards);
  // Every worker step below goes through the Transport seam — the same
  // interface the socket backend (net/socket_transport.h) serves over a
  // wire, and the same WorkerSlot step the socket worker process runs.  The
  // in-process shim adds only a virtual dispatch, so the threaded runtime
  // stays the bit-for-bit reference implementation.
  InProcTransport ps(ps_impl);
  // One bank for the run, one slot per worker slot; calls are thread-safe
  // because each worker thread only ever touches its own slot (and RNG).
  std::optional<CompressorBank> bank = cfg.compression.make_bank(max_slots);
  CompressorBank* const codec = bank ? &*bank : nullptr;
  const std::int64_t dense_bytes = static_cast<std::int64_t>(p * sizeof(float));
  const bool inject_stragglers = !cfg.stragglers.events().empty();

  std::vector<SlotState> ctx;
  ctx.reserve(max_slots);
  for (std::size_t w = 0; w < max_slots; ++w)
    ctx.push_back(SlotState{WorkerSlot(prototype.clone(), train, cfg.batch_size, cfg.seed, w, n0)});

  // ------------------------------------------------------------------
  // Shared switch-controller state.  Three synchronization domains:
  //  * clock_mu/clock_cv guard the per-worker local clocks, the segment's
  //    step quota, the ASP step tickets, and the watch latch during async
  //    phases;
  //  * det_mu guards the straggler detector;
  //  * everything else (the segment, the planner, BSP round state, phase
  //    stats, the alive set) is only mutated inside the drain-barrier
  //    completion, by worker 0 between BSP round barriers, or by the main
  //    thread while every worker thread is joined — all points where a
  //    barrier or thread join/spawn provides the happens-before edge.
  // ------------------------------------------------------------------
  std::mutex clock_mu;
  std::condition_variable clock_cv;
  std::vector<std::int64_t> clock(max_slots, 0);  ///< local steps in current phase
  // ASP phases are work-conserving: the segment holds
  // n_alive x (quota - start) step tickets, drawn by whichever worker asks
  // next, so a straggler simply takes fewer of them.  An SSP latch lowers
  // the segment's quota itself.
  std::int64_t tickets = 0;        ///< ASP tickets drawn in this segment
  std::int64_t ticket_budget = 0;  ///< ASP tickets this segment runs to
  bool fired = false;              ///< the segment's watch latched

  std::mutex det_mu;
  StragglerDetector detector(max_slots, cfg.detector);

  std::vector<char> alive(max_slots, 0);
  std::size_t n_alive = 0;
  std::size_t leader = 0;  ///< first alive slot (BSP aggregator role)
  /// Adopt the planner's worker set: the alive slots, the BSP leader, and
  /// the detector's scope (after a cluster change historical throughput is
  /// not comparable, and retired or not-yet-joined slots must not block
  /// warm-up).
  auto adopt_members = [&] {
    std::fill(alive.begin(), alive.end(), char{0});
    for (int s : coord.active()) alive[static_cast<std::size_t>(s)] = 1;
    n_alive = coord.alive_count();
    leader = 0;
    while (leader < max_slots && !alive[leader]) ++leader;
    const std::lock_guard<std::mutex> lock(det_mu);
    detector.set_active(coord.active());
  };
  adopt_members();

  Segment seg = planner.next();  ///< the segment the workers run
  bool run_over = false;
  bool epoch_over = false;  ///< quiesce threads for a membership transition

  std::vector<float> agg(p);              // BSP aggregation buffer (leader)
  std::vector<float> shared_snapshot(p);  // BSP round snapshot
  std::vector<std::int64_t> round_versions;  // shard versions of shared_snapshot
  std::vector<float> eval_params(cfg.eval_hook ? p : 0);  // eval_hook scratch
  std::int64_t rounds_done = 0;           // BSP rounds completed in current phase
  bool bsp_phase_over = false;

  // Worker-thread failure containment: an exception escaping a worker body
  // must surface as a catchable error on the calling thread, not a
  // std::terminate.  The first thrower records itself, raises `aborted`
  // (under clock_mu so parked SSP waiters cannot miss the wake), and drops
  // out of both barriers; every other worker observes the flag at its next
  // coherent point and drains out, the drain completion turns the run off,
  // and the main thread rethrows after joining.
  std::mutex error_mu;
  std::exception_ptr worker_error;
  std::atomic<bool> aborted{false};

  std::atomic<std::int64_t> total_updates{0};
  std::atomic<std::int64_t> phase_max_gap{0};
  std::int64_t phase_start_updates = 0;
  SteadyClock::time_point run_start = SteadyClock::now();
  SteadyClock::time_point phase_start = run_start;

  ThreadedTrainResult result;
  std::int64_t run_async_staleness = 0;  // run totals over async-phase pushes
  std::int64_t run_async_updates = 0;

  // ------------------------------------------------------------------
  // Observability (off by default).  `obs_on` is sampled once per run so a
  // mid-run toggle cannot split a run across regimes; when false, every
  // instrumentation site below reduces to one branch on a stack bool and
  // the run is bit-identical to an uninstrumented build.  Recording never
  // feeds back into the computation.
  // ------------------------------------------------------------------
  const bool obs_on = obs::enabled();
  obs::Counter* m_steps = nullptr;
  obs::Counter* m_switches = nullptr;
  obs::Counter* m_snapshots = nullptr;
  obs::Counter* m_recoveries = nullptr;
  obs::Counter* m_straggler_delays = nullptr;
  obs::Histogram* h_step_seconds = nullptr;
  obs::Histogram* h_drain_wait = nullptr;
  if (obs_on) {
    auto& reg = obs::metrics();
    const std::vector<double> time_buckets{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                                           0.01, 0.03, 0.1,  0.3,  1.0,  3.0};
    m_steps = &reg.counter("ss_threaded_steps_total", "Worker minibatch steps completed");
    m_switches =
        &reg.counter("ss_threaded_switches_total", "Protocol switches enacted at drain barriers");
    m_snapshots = &reg.counter("ss_threaded_snapshots_total", "Parameter snapshots captured");
    m_recoveries =
        &reg.counter("ss_threaded_recoveries_total", "Membership recovery passes applied");
    m_straggler_delays =
        &reg.counter("ss_threaded_straggler_delays_total", "Injected straggler delays");
    h_step_seconds = &reg.histogram("ss_threaded_step_seconds", time_buckets,
                                    "Compute-side step time per worker (seconds)");
    h_drain_wait = &reg.histogram("ss_threaded_drain_wait_seconds", time_buckets,
                                  "Time parked at the drain barrier (seconds)");
    if (obs::tracing()) {
      obs::tracer().set_track_name(0, "ps/control");
      for (std::size_t w = 0; w < max_slots; ++w)
        obs::tracer().set_track_name(static_cast<int>(w) + 1,
                                     "worker " + std::to_string(w));
    }
  }
  /// Span helper: records the [t0, t1) interval on `track` plus any metrics
  /// the caller already updated.  Only called under `obs_on`.
  auto obs_span = [](int track, const char* name, SteadyClock::time_point t0,
                     SteadyClock::time_point t1, std::vector<obs::TraceArg> args = {}) {
    if (!obs::tracing()) return;
    auto& tr = obs::tracer();
    tr.complete(track, name, tr.to_us(t0), tr.to_us(t1) - tr.to_us(t0), std::move(args));
  };

  // Asynchronous snapshots for crash recovery: a run-start snapshot gives
  // recovery a floor, the background cadence bounds the loss window.
  auto capture_snapshot = [&] {
    const SteadyClock::time_point t0 = obs_on ? SteadyClock::now() : SteadyClock::time_point{};
    auto snap = ps_impl.snapshot_checkpoint(total_updates.load(std::memory_order_relaxed));
    if (obs_on) {
      m_snapshots->add();
      obs_span(0, "snapshot", t0, SteadyClock::now(),
               {obs::arg("global_step", snap.global_step)});
    }
    return snap;
  };
  auto snapshot_progress = [&total_updates] {
    return total_updates.load(std::memory_order_relaxed);
  };
  // Snapshots only pay off when something can restore them: a scripted
  // crash under kRestoreSnapshot.  Join/leave-only, reactive, and
  // kKeepLive runs skip the background thread and its periodic full-PS
  // copies entirely (the sim engine applies the same gate).
  bool plan_has_crash = false;
  for (const MembershipEvent& e : cfg.elastic.plan.events())
    plan_has_crash |= e.kind == MembershipEventKind::kCrash;
  const bool snapshots_needed =
      plan_has_crash && cfg.elastic.recovery == RecoveryMode::kRestoreSnapshot;
  AsyncSnapshotter snapshotter(capture_snapshot, snapshot_progress,
                               snapshots_needed ? cfg.elastic.snapshot_interval : 0);
  if (snapshots_needed) snapshotter.snapshot_now();  // run-start floor; also arms the cadence

  auto min_clock = [&] {  // callers hold clock_mu; alive slots only
    std::int64_t m = std::numeric_limits<std::int64_t>::max();
    for (std::size_t s = 0; s < max_slots; ++s)
      if (alive[s]) m = std::min(m, clock[s]);
    return m;
  };
  auto max_clock = [&] {  // callers hold clock_mu; alive slots only
    std::int64_t m = 0;
    for (std::size_t s = 0; s < max_slots; ++s)
      if (alive[s]) m = std::max(m, clock[s]);
    return m;
  };

  /// Arm `next`: a fresh phase when next.start == 0, otherwise the rest of
  /// a phase a membership change interrupted, with the clocks fast-forwarded
  /// to the steps it already ran.  BSP/SSP run every worker's clock to the
  /// quota; ASP spends the same per-worker steps as n_alive x that many
  /// tickets.  Runs before the threads start, inside the drain barrier's
  /// completion, or between epochs — never concurrently with a worker step.
  auto arm = [&](const Segment& next) {
    const Protocol prev_proto = seg.plan.phase.protocol;
    seg = next;
    tickets = 0;
    ticket_budget = static_cast<std::int64_t>(n_alive) * (seg.quota - seg.start);
    fired = false;
    std::fill(clock.begin(), clock.end(), seg.start);
    rounds_done = seg.start;
    bsp_phase_over = false;
    const bool phase_entry = seg.start == 0;
    if (phase_entry) {
      phase_max_gap.store(0, std::memory_order_relaxed);
      phase_start_updates = total_updates.load(std::memory_order_relaxed);
      phase_start = SteadyClock::now();
    }
    // Fresh snapshot for the segment: in-flight pushes of the previous one
    // are all applied (pushes are synchronous and every worker is parked at
    // the drain barrier or joined), so this is the reconciled parameter
    // state the segment starts from.
    ps.pull_with_versions(shared_snapshot, round_versions);
    if (obs_on && phase_entry) {
      if (seg.plan.phase.protocol != prev_proto) m_switches->add();
      if (obs::tracing()) {
        auto& tr = obs::tracer();
        if (seg.plan.phase.protocol != prev_proto)
          tr.instant(0, "protocol_switch", tr.now_us(),
                     {obs::arg("from", protocol_name(prev_proto)),
                      obs::arg("to", protocol_name(seg.plan.phase.protocol))});
        tr.instant(0, "phase_start", tr.now_us(),
                   {obs::arg("phase", static_cast<std::int64_t>(seg.leg)),
                    obs::arg("protocol", protocol_name(seg.plan.phase.protocol)),
                    obs::arg("quota", seg.quota)});
      }
    }
  };
  arm(seg);

  /// Harvest the finished phase's per-worker compute spans into the
  /// controller's measurement: the lower median step time, and the slowest
  /// slot's factor over it.
  auto measure_phase = [&] {
    MeasuredPhaseCosts measured;
    measured.num_workers = n_alive;
    measured.batch_size = cfg.batch_size;
    measured.push_bytes = static_cast<double>(dense_bytes);
    std::vector<double> means;
    int slowest = -1;  ///< first alive slot with the largest mean
    for (std::size_t w = 0; w < max_slots; ++w) {
      SlotState& c = ctx[w];
      // Under the shared ASP budget a slot can finish no step in a short
      // interval: its peers spend every ticket before it draws one.  That
      // says nothing about its speed, so it keeps its last measured mean —
      // dropping it would hide a straggler from the controller.
      if (c.phase_step_count > 0)
        c.last_step_mean = c.phase_step_seconds / static_cast<double>(c.phase_step_count);
      c.phase_step_seconds = 0.0;
      c.phase_step_count = 0;
      if (!alive[w] || c.last_step_mean <= 0.0) continue;
      means.push_back(c.last_step_mean);
      if (slowest < 0 || c.last_step_mean > ctx[slowest].last_step_mean)
        slowest = static_cast<int>(w);
    }
    if (!means.empty()) {
      std::sort(means.begin(), means.end());
      // Lower median: robust to the straggler itself for any cluster >= 2.
      const double median = means[(means.size() - 1) / 2];
      measured.step_seconds = median;
      measured.straggler_factor = median > 0.0 ? ctx[slowest].last_step_mean / median : 1.0;
      measured.straggler_worker = slowest;
    }
    return measured;
  };

  /// The drain-barrier transition.  Runs on exactly one thread while every
  /// worker is parked at the barrier.  The planner settles the segment: a
  /// completed phase is recorded (and, on controller runs, measured and
  /// decided on).  Then the run ends, or a due membership delta quiesces
  /// the epoch so the main thread can apply it, or the next segment is
  /// armed live.
  auto on_drain = [&]() {
    if (aborted.load()) {
      // A worker failed: no transition — stop the run so every surviving
      // worker exits after the barrier and the main thread can rethrow.
      run_over = true;
      return;
    }
    // BSP/SSP clocks are equal across alive workers.  An ASP segment always
    // ends on a multiple of n_alive tickets, so its per-worker step count is
    // exact.
    const std::int64_t reached = seg.plan.phase.protocol == Protocol::kAsp
                                     ? seg.start + tickets / static_cast<std::int64_t>(n_alive)
                                     : clock[leader];
    // Every worker is parked, so the detector needs no lock here.
    if (std::optional<ThreadedPhaseStats> phase = planner.drain(reached, fired, detector)) {
      ThreadedPhaseStats& s = *phase;
      s.updates = total_updates.load(std::memory_order_relaxed) - phase_start_updates;
      s.max_clock_gap = phase_max_gap.load(std::memory_order_relaxed);
      std::int64_t staleness_sum = 0;
      for (auto& c : ctx) {
        staleness_sum += c.phase_staleness_sum;
        s.push_bytes += c.phase_push_bytes;
        c.phase_staleness_sum = 0;
        c.phase_push_bytes = 0;
      }
      if (seg.plan.phase.protocol != Protocol::kBsp && s.updates > 0) {
        s.mean_staleness = static_cast<double>(staleness_sum) / static_cast<double>(s.updates);
        run_async_staleness += staleness_sum;
        run_async_updates += s.updates;
      }
      const SteadyClock::time_point now = SteadyClock::now();
      s.wall_seconds = seconds_between(phase_start, now);
      if (s.wall_seconds > 0.0)
        s.updates_per_sec = static_cast<double>(s.updates) / s.wall_seconds;
      result.phases.push_back(s);
      if (cfg.eval_hook) {
        // Consistent parameter snapshot: every worker is parked, all pushes
        // are applied.  Hook time is charged to the run clock (honest: the
        // controller's decision time is charged the same way), not to any
        // worker's step measurements.
        ps_impl.pull(eval_params);
        cfg.eval_hook(planner.done(), seconds_between(run_start, now), eval_params);
      }
      planner.decide(s, [&] { return measure_phase(); });
    }
    run_over = planner.finished();
    if (run_over) return;
    if (planner.membership_due()) {
      // The epoch loop applies the delta, then arms the next segment.
      epoch_over = true;
      return;
    }
    arm(planner.next());
  };

  /// Wall-clock straggler injection: a worker slowed at the current elapsed
  /// time sleeps (factor - 1) x its measured step time, emulating the
  /// paper's injected per-message latency without consuming CPU.
  auto inject_delay = [&](std::size_t w, SteadyClock::time_point step_start) {
    if (!inject_stragglers) return;
    const double elapsed = seconds_between(run_start, SteadyClock::now());
    const double factor =
        cfg.stragglers.slow_factor(static_cast<int>(w), VTime::from_seconds(elapsed));
    if (factor <= 1.0) return;
    const double step_seconds = seconds_between(step_start, SteadyClock::now());
    const SteadyClock::time_point t0 = obs_on ? SteadyClock::now() : SteadyClock::time_point{};
    std::this_thread::sleep_for(
        std::chrono::duration<double>(step_seconds * (factor - 1.0)));
    if (obs_on) {
      m_straggler_delays->add();
      obs_span(static_cast<int>(w) + 1, "straggler_delay", t0, SteadyClock::now(),
               {obs::arg("factor", factor)});
    }
  };

  /// Close worker `w`'s step: record its compute-side span (barrier and SSP
  /// waits excluded) — the controller's per-worker cost sample, so injected
  /// delays land in the slow worker's own mean — and feed the step to the
  /// shared detector.  Returns true when a detection pass ran *and* the
  /// segment's watch fired afterwards.  Only async workers act on the return
  /// value; during BSP phases the leader evaluates the watch once per round
  /// instead, so every worker of a round sees the same decision.
  auto end_step = [&](std::size_t w, SteadyClock::time_point step_start) -> bool {
    SlotState& c = ctx[w];
    const SteadyClock::time_point step_end = SteadyClock::now();
    c.phase_step_seconds += seconds_between(step_start, step_end);
    ++c.phase_step_count;
    if (obs_on) {
      m_steps->add();
      h_step_seconds->observe(seconds_between(step_start, step_end));
      obs_span(static_cast<int>(w) + 1, "step", step_start, step_end);
    }
    if (!planner.uses_detector()) return false;
    const double secs = seconds_between(step_start, SteadyClock::now());
    const std::lock_guard<std::mutex> lock(det_mu);
    return detector.observe(static_cast<int>(w), cfg.batch_size, VTime::from_seconds(secs)) &&
           detector_fires(seg.plan.phase.trigger, seg.plan.reaction, detector);
  };

  /// Latch a fired watch (async phases) and end the segment as soon as it
  /// can end exactly.  SSP lowers the quota to a common clock every worker
  /// can still reach — the fastest worker's clock plus one — and wakes its
  /// waiters so they re-check it.  An ASP schedule trigger rounds the
  /// tickets drawn so far up to the next multiple of n_alive, so the
  /// segment closes within n_alive tickets on a whole per-worker step
  /// count.  An ASP kLeave reaction does not cut the segment short: a
  /// straggler costs a work-conserving segment no more than its in-flight
  /// step, so the flagged worker leaves at the segment's own drain (the
  /// next phase boundary or scripted event; a run-ending drain evicts no
  /// one).  Evicting mid-segment would let one noisy detector window (a
  /// healthy worker descheduled for a step) retire a second worker within a
  /// few steps of the first.
  auto latch = [&] {
    std::vector<obs::TraceArg> args;
    {
      const std::lock_guard<std::mutex> lock(clock_mu);
      if (fired) return;
      fired = true;
      if (seg.plan.phase.protocol == Protocol::kSsp) {
        seg.quota = std::min(seg.quota, max_clock() + 1);
        if (obs_on) args = {obs::arg("quota", seg.quota)};
      } else if (seg.plan.phase.trigger != SwitchTrigger::kStepCount) {
        const auto n = static_cast<std::int64_t>(n_alive);
        ticket_budget = std::min(ticket_budget, (tickets + n - 1) / n * n);
        if (obs_on)
          args = {obs::arg("tickets", tickets), obs::arg("ticket_budget", ticket_budget)};
      }
    }
    clock_cv.notify_all();
    if (obs_on && obs::tracing())
      obs::tracer().instant(0, "latch", obs::tracer().now_us(), std::move(args));
  };

  // ------------------------------------------------------------------
  // Membership recovery: runs on the main thread with every worker thread
  // joined (full quiesce), so no lock is needed for phase/membership state.
  // ------------------------------------------------------------------
  auto apply_recovery = [&] {
    const SteadyClock::time_point rec_start = SteadyClock::now();
    const std::vector<AppliedMembershipEvent> applied = planner.apply_membership();
    bool crashed = false;
    for (const auto& a : applied) crashed |= a.event.kind == MembershipEventKind::kCrash;
    std::int64_t updates_lost = 0;
    if (crashed && cfg.elastic.recovery == RecoveryMode::kRestoreSnapshot) {
      // Roll parameters + velocity back to the last asynchronous snapshot:
      // every update since it is lost, bounding the damage to one snapshot
      // interval.  Surviving workers keep their error-feedback residuals —
      // the mass a codec dropped is still untransmitted after the rollback.
      updates_lost = snapshotter
                         .restore_latest([&](const Checkpoint& snap) {
                           ps_impl.restore(snap);
                         })
                         .value_or(0);
    }
    adopt_members();
    // Resume the interrupted phase, or enter the next one if the previous
    // epoch finished its phase exactly at the membership boundary; either
    // way the planner re-derives the lr for the new cluster size.
    arm(planner.next());
    const double rec_seconds = seconds_between(rec_start, SteadyClock::now());
    if (obs_on) {
      m_recoveries->add();
      obs_span(0, "recovery", rec_start, SteadyClock::now(),
               {obs::arg("events", static_cast<std::int64_t>(applied.size())),
                obs::arg("updates_lost", updates_lost)});
    }
    bool loss_attributed = false;  // one restore per pass -> charge it once
    for (const auto& a : applied) {
      const bool charged = a.event.kind == MembershipEventKind::kCrash && !loss_attributed;
      loss_attributed |= charged;
      result.membership.push_back({.kind = a.event.kind,
                                   .worker = a.event.worker,
                                   .at_step = a.event.at_step,
                                   .workers_after = a.workers_after,
                                   .lr_after = seg.lr,
                                   .updates_lost = charged ? updates_lost : 0,
                                   .recovery_wall_seconds = rec_seconds});
    }
  };

  // ------------------------------------------------------------------
  // Epoch loop: one iteration per contiguous stretch of a fixed worker set.
  // Non-elastic runs execute exactly one epoch (every phase transition is
  // the live in-barrier kind); membership events end the epoch at the drain
  // barrier, the recovery runs with all threads joined, and the next epoch
  // respawns threads (and right-sized barriers) for the new cluster.
  // ------------------------------------------------------------------
  while (!run_over) {
    std::barrier round_barrier(static_cast<std::ptrdiff_t>(n_alive));
    std::barrier drain_barrier(static_cast<std::ptrdiff_t>(n_alive),
                               [&]() noexcept { on_drain(); });

    // Round-based BSP: all workers compute on the same snapshot, the leader
    // aggregates after the barrier and applies one averaged update.  The
    // end-of-segment decision (quota reached, or the segment's watch fired)
    // is made once per round by the leader between the two barriers, so
    // every worker leaves the segment at the same round.
    auto run_bsp_phase = [&](std::size_t w) {
      auto& c = ctx[w];
      while (!bsp_phase_over) {
        if (aborted.load()) {
          // A peer failed.  Leave its barrier slot behind so workers still
          // parked in this round are released, then head for the drain
          // barrier (worker_fn arrives there after we return).  Arriving at
          // the drain while others still wait at the round barrier would
          // deadlock both groups — hence the drop, not a plain break.
          round_barrier.arrive_and_drop();
          return;
        }
        if (cfg.pre_step_hook) cfg.pre_step_hook(w, planner.done() + clock[w]);
        const SteadyClock::time_point step_start = SteadyClock::now();
        c.slot.gradient_at(shared_snapshot);
        // Each worker compresses its own push through its bank slot; the
        // aggregator decodes, so the PS math sees the lossy values exactly as
        // the simulator's BSP path does.
        c.phase_push_bytes += c.slot.encode(seg.compress ? codec : nullptr);
        inject_delay(w, step_start);
        end_step(w, step_start);  // the leader evaluates the watch below
        round_barrier.arrive_and_wait();  // all gradients ready
        if (w == leader) {
          std::fill(agg.begin(), agg.end(), 0.0f);
          for (std::size_t s = 0; s < max_slots; ++s)
            if (alive[s]) ctx[s].slot.add_into(agg, seg.compress);
          ops::scale_inplace(std::span<float>(agg), 1.0f / static_cast<float>(n_alive));
          // The leader is the round's only writer, so the push is never stale.
          (void)ps.push(agg, seg.lr, round_versions);
          total_updates.fetch_add(1, std::memory_order_relaxed);
          ps.pull_with_versions(shared_snapshot, round_versions);
          ++rounds_done;
          bsp_phase_over = rounds_done >= seg.quota;
          if (!bsp_phase_over && reads_detector(seg.plan.phase.trigger, seg.plan.reaction)) {
            const std::lock_guard<std::mutex> lock(det_mu);
            bsp_phase_over = fired =
                detector_fires(seg.plan.phase.trigger, seg.plan.reaction, detector);
          }
        }
        round_barrier.arrive_and_wait();  // updated snapshot + decision visible
        ++clock[w];  // own slot; read again only after the next barrier
      }
    };

    // ASP: free-running workers draw step tickets from the segment's shared
    // budget until it runs out, so fast workers keep working while a
    // straggler finishes its step.  SSP: free-running within the staleness
    // bound — a worker whose local clock would run more than `bound` steps
    // ahead of the slowest parks on the condition variable until the
    // laggard catches up (or a latch lowers the quota below its clock).
    auto run_async_phase = [&](std::size_t w) {
      auto& c = ctx[w];
      const bool bounded = seg.plan.phase.protocol == Protocol::kSsp;
      const int bound = seg.plan.phase.ssp_staleness_bound;
      while (true) {
        std::int64_t my = 0;
        {
          std::unique_lock<std::mutex> lock(clock_mu);
          // A dead peer's clock stops advancing, so without the aborted
          // check an SSP waiter whose bound the dead peer anchors would
          // park forever; the thrower raises the flag under clock_mu and
          // notifies, so the wake cannot be lost.
          const auto spent = [&] {
            return aborted.load() || (bounded ? clock[w] >= seg.quota : tickets >= ticket_budget);
          };
          if (spent()) break;
          if (bounded) {
            clock_cv.wait(lock, [&] { return spent() || clock[w] - min_clock() <= bound; });
            if (spent()) break;
          } else {
            ++tickets;
          }
          const std::int64_t gap = clock[w] - min_clock();
          std::int64_t seen = phase_max_gap.load(std::memory_order_relaxed);
          while (gap > seen &&
                 !phase_max_gap.compare_exchange_weak(seen, gap, std::memory_order_relaxed)) {
          }
          my = clock[w];
        }
        if (cfg.pre_step_hook) cfg.pre_step_hook(w, planner.done() + my);
        const SteadyClock::time_point step_start = SteadyClock::now();
        c.slot.pull_gradient(ps);
        inject_delay(w, step_start);
        const WorkerSlot::Push push = c.slot.push(ps, seg.compress ? codec : nullptr, seg.lr);
        c.phase_push_bytes += push.bytes;
        c.phase_staleness_sum += push.staleness;
        total_updates.fetch_add(1, std::memory_order_relaxed);
        if (end_step(w, step_start)) latch();
        {
          const std::lock_guard<std::mutex> lock(clock_mu);
          ++clock[w];
        }
        clock_cv.notify_all();
      }
    };

    // Every worker of this epoch executes the phase sequence, quiescing at
    // the drain barrier between phases.  The barrier's completion runs the
    // transition while all workers are parked, so phase state needs no lock;
    // an epoch-ending transition makes every worker exit so the main thread
    // can reshape the cluster.
    auto worker_fn = [&](std::size_t w) {
      try {
        while (true) {
          if (seg.plan.phase.protocol == Protocol::kBsp)
            run_bsp_phase(w);
          else
            run_async_phase(w);
          const SteadyClock::time_point drain_start =
              obs_on ? SteadyClock::now() : SteadyClock::time_point{};
          drain_barrier.arrive_and_wait();
          if (obs_on) {
            const SteadyClock::time_point drain_end = SteadyClock::now();
            h_drain_wait->observe(seconds_between(drain_start, drain_end));
            obs_span(static_cast<int>(w) + 1, "drain_wait", drain_start, drain_end);
          }
          if (run_over || epoch_over) break;
        }
      } catch (...) {
        // First failure wins; later ones (usually peers tripping over the
        // same cause) are dropped.
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!worker_error) worker_error = std::current_exception();
        }
        {
          // Under clock_mu so a concurrently-parking SSP waiter either sees
          // the flag in its predicate or is woken by the notify below.
          const std::lock_guard<std::mutex> lock(clock_mu);
          aborted.store(true);
        }
        clock_cv.notify_all();
        // Leave both barriers for good: peers parked at either are released
        // now, and the phases no longer expect this thread.
        round_barrier.arrive_and_drop();
        drain_barrier.arrive_and_drop();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(n_alive);
    for (std::size_t w = 0; w < max_slots; ++w)
      if (alive[w]) threads.emplace_back(worker_fn, w);
    for (auto& t : threads) t.join();

    // Every thread is joined (throwers via barrier drops, survivors via the
    // aborted run_over), so a failure surfaces as a plain exception on the
    // calling thread instead of a std::terminate.
    if (worker_error) std::rethrow_exception(worker_error);
    if (run_over) break;
    // epoch_over: resolve the due membership events and re-arm.  The
    // snapshotter's lock keeps a cadence capture from walking the shards
    // while a crash restore rewrites them.
    epoch_over = false;
    apply_recovery();
  }

  snapshotter.stop();

  result.total_updates = total_updates.load();
  result.snapshots_taken = snapshotter.count();
  result.decisions = planner.take_decisions();
  for (const auto& s : result.phases) {
    result.max_clock_gap = std::max(result.max_clock_gap, s.max_clock_gap);
    result.push_bytes += s.push_bytes;
  }
  if (run_async_updates > 0)
    result.mean_staleness =
        static_cast<double>(run_async_staleness) / static_cast<double>(run_async_updates);
  result.final_params.resize(p);
  ps_impl.pull(result.final_params);
  return result;
}

}  // namespace ss
