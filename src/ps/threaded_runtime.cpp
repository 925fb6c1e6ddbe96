#include "ps/threaded_runtime.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "compress/bank.h"
#include "net/inproc_transport.h"
#include "obs/obs.h"
#include "ps/barrier_planner.h"
#include "ps/worker_slot.h"
#include "tensor/ops.h"

namespace ss {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ThreadedTrainResult threaded_train(const Model& prototype, const Dataset& train,
                                   const ThreadedTrainConfig& cfg) {
  SharedParameterServer ps_impl(prototype.get_params(), cfg.momentum, cfg.num_ps_shards);
  // Every worker step below goes through the Transport seam — the same
  // interface the socket backend (net/socket_transport.h) serves over a
  // wire, and the same WorkerSlot step the socket worker process runs.  The
  // in-process shim adds only a virtual dispatch, so the threaded runtime
  // stays the bit-for-bit reference implementation.
  InProcTransport ps(ps_impl);
  std::atomic<std::int64_t> total_updates{0};

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
  // recovery a floor, the background cadence bounds the loss window.  Runs
  // that never restore one take none (ElasticConfig::takes_snapshots).
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
  const bool snapshots_needed = cfg.elastic.takes_snapshots();
  AsyncSnapshotter snapshotter(capture_snapshot, snapshot_progress,
                               snapshots_needed ? cfg.elastic.snapshot_interval : 0);

  // Every decision about what runs next, and on which workers, and every
  // record of what a phase or a membership change cost, is the planner's;
  // this function only runs its segments on threads.
  BarrierPlanner planner(cfg, ps_impl, snapshotter);
  Segment& seg = planner.segment();  ///< the armed segment, re-armed in place
  const std::size_t max_slots = planner.max_slots();
  if (snapshots_needed) snapshotter.snapshot_now();  // run-start floor; also arms the cadence
  if (obs_on && obs::tracing()) {
    obs::tracer().set_track_name(0, "ps/control");
    for (std::size_t w = 0; w < max_slots; ++w)
      obs::tracer().set_track_name(static_cast<int>(w) + 1, "worker " + std::to_string(w));
  }

  // One bank for the run, one slot per worker slot; calls are thread-safe
  // because each worker thread only ever touches its own slot (and RNG).
  std::optional<CompressorBank> bank = cfg.compression.make_bank(max_slots);
  CompressorBank* const codec = bank ? &*bank : nullptr;
  std::vector<WorkerSlot> slots;
  slots.reserve(max_slots);
  for (std::size_t w = 0; w < max_slots; ++w)
    slots.emplace_back(prototype.clone(), train, cfg.batch_size, cfg.seed, w, cfg.num_workers);

  // ------------------------------------------------------------------
  // Two synchronization domains:
  //  * the planner's step-rule calls (admit, stepped, observe, fires,
  //    latch, abort) take its own locks: the clocks, the ASP tickets, the
  //    latch and the abort flag under its clock lock, the detector under
  //    the detector's;
  //  * everything else the planner holds (the segment, the worker set, the
  //    records) is only mutated inside the drain-barrier completion, by the
  //    BSP leader between round barriers, or on the main thread while every
  //    worker thread is joined — all points where a barrier or thread
  //    join/spawn provides the happens-before edge.
  // ------------------------------------------------------------------
  std::vector<float> agg(ps_impl.num_params());  // BSP aggregation buffer (leader)

  // Worker-thread failure containment: an exception escaping a worker body
  // must surface as a catchable error on the calling thread, not a
  // std::terminate.  The first thrower records itself, aborts the planner
  // (which wakes parked SSP waiters), and drops out of both barriers; every
  // other worker sees the abort at its next coherent point and drains out,
  // the drain completion ends the run, and the main thread rethrows after
  // joining.
  std::mutex error_mu;
  std::exception_ptr worker_error;
  planner.start();  // setup is done: the run's clock starts here
  const SteadyClock::time_point run_start = SteadyClock::now();

  /// Traces a freshly armed segment that opens a phase: a protocol switch
  /// (counted) and the phase start.
  auto trace_armed = [&](Protocol before) {
    if (!obs_on || seg.start != 0) return;
    const Protocol now = seg.plan.phase.protocol;
    if (now != before) m_switches->add();
    if (!obs::tracing()) return;
    auto& tr = obs::tracer();
    if (now != before)
      tr.instant(0, "protocol_switch", tr.now_us(),
                 {obs::arg("from", protocol_name(before)), obs::arg("to", protocol_name(now))});
    tr.instant(0, "phase_start", tr.now_us(),
               {obs::arg("phase", static_cast<std::int64_t>(seg.leg)),
                obs::arg("protocol", protocol_name(now)), obs::arg("quota", seg.quota)});
  };
  trace_armed(seg.plan.phase.protocol);

  /// Wall-clock straggler injection: a worker slowed at the current elapsed
  /// time sleeps (factor - 1) x its measured step time, emulating the
  /// paper's injected per-message latency without consuming CPU.
  auto inject_delay = [&](std::size_t w, SteadyClock::time_point step_start) {
    if (cfg.stragglers.events().empty()) return;
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
    const SteadyClock::time_point step_end = SteadyClock::now();
    if (obs_on) {
      m_steps->add();
      h_step_seconds->observe(seconds_between(step_start, step_end));
      obs_span(static_cast<int>(w) + 1, "step", step_start, step_end);
    }
    return planner.observe(w, seconds_between(step_start, step_end));
  };

  /// Latch a fired watch (async phases) so the segment ends as soon as it
  /// can end exactly (BarrierPlanner::latch), and trace it.  An ASP kLeave
  /// reaction does not cut the segment short: a straggler costs a
  /// work-conserving segment no more than its in-flight step, so the
  /// flagged worker leaves at the segment's own drain (the next phase
  /// boundary or scripted event; a run-ending drain evicts no one).
  /// Evicting mid-segment would let one noisy detector window (a healthy
  /// worker descheduled for a step) retire a second worker within a few
  /// steps of the first.
  auto latch = [&] {
    const std::optional<Segment> latched = planner.latch();
    if (!latched || !obs_on || !obs::tracing()) return;
    std::vector<obs::TraceArg> args;
    if (latched->plan.phase.protocol == Protocol::kSsp)
      args = {obs::arg("quota", latched->quota)};
    else if (latched->plan.phase.trigger != SwitchTrigger::kStepCount)
      args = {obs::arg("tickets", latched->tickets),
              obs::arg("ticket_budget", latched->ticket_budget)};
    obs::tracer().instant(0, "latch", obs::tracer().now_us(), std::move(args));
  };

  // ------------------------------------------------------------------
  // Epoch loop: one iteration per contiguous stretch of a fixed worker set.
  // Non-elastic runs execute exactly one epoch (every phase transition is
  // the live in-barrier kind); a due membership delta ends the epoch at the
  // drain barrier, the planner recovers with all threads joined, and the
  // next epoch respawns threads (and right-sized barriers) for the new
  // cluster.
  // ------------------------------------------------------------------
  BarrierPlanner::Drained drained = BarrierPlanner::Drained::kArmed;
  while (true) {
    const std::size_t n_alive = planner.active().size();
    std::barrier round_barrier(static_cast<std::ptrdiff_t>(n_alive));
    // The drain transition runs on exactly one thread while every worker is
    // parked at the barrier.  A worker failure ends the run there, so every
    // surviving worker exits after the barrier and the main thread can
    // rethrow.
    std::barrier drain_barrier(static_cast<std::ptrdiff_t>(n_alive), [&]() noexcept {
      const Protocol before = seg.plan.phase.protocol;
      drained = planner.drain(total_updates.load(std::memory_order_relaxed));
      if (drained == BarrierPlanner::Drained::kArmed) trace_armed(before);
    });

    // Round-based BSP: every worker pulls the same parameters (only the
    // leader writes the PS, between the round's two barriers), and the
    // leader aggregates after the first barrier and applies one averaged
    // update.  The end-of-segment decision (quota reached, or the segment's
    // watch fired) is made once per round by the leader between the two
    // barriers, so every worker leaves the segment at the same round.
    auto run_bsp_phase = [&](std::size_t w) {
      std::int64_t& clock = planner.clock(w);
      while (clock < seg.quota && !seg.fired) {
        if (planner.failed()) {
          // A peer failed.  Leave its barrier slot behind so workers still
          // parked in this round are released, then head for the drain
          // barrier (worker_fn arrives there after we return).  Arriving at
          // the drain while others still wait at the round barrier would
          // deadlock both groups — hence the drop, not a plain break.
          round_barrier.arrive_and_drop();
          return;
        }
        if (cfg.pre_step_hook) cfg.pre_step_hook(w, planner.done() + clock);
        const SteadyClock::time_point step_start = SteadyClock::now();
        slots[w].pull_gradient(ps);
        // Each worker compresses its own push through its bank slot; the
        // aggregator decodes, so the PS math sees the lossy values exactly as
        // the simulator's BSP path does.
        planner.slot(w).push_bytes += slots[w].encode(seg.compress ? codec : nullptr);
        inject_delay(w, step_start);
        end_step(w, step_start);  // the leader evaluates the watch below
        round_barrier.arrive_and_wait();  // all gradients ready
        if (w == planner.leader()) {
          std::fill(agg.begin(), agg.end(), 0.0f);
          for (int s : planner.active()) slots[s].add_into(agg, seg.compress);
          ops::scale_inplace(std::span<float>(agg), 1.0f / static_cast<float>(n_alive));
          // The leader is the round's only writer, so the push is never stale.
          (void)ps.push(agg, seg.lr, slots[w].pull_versions());
          total_updates.fetch_add(1, std::memory_order_relaxed);
          if (clock + 1 < seg.quota && planner.fires()) seg.fired = true;
        }
        round_barrier.arrive_and_wait();  // update applied + decision visible
        ++clock;  // own slot; read again only after the next barrier
      }
    };

    // ASP: free-running workers draw step tickets from the segment's shared
    // budget until it runs out, so fast workers keep working while a
    // straggler finishes its step.  SSP: free-running within the staleness
    // bound — a worker whose local clock would run more than `bound` steps
    // ahead of the slowest waits in admit() until the laggard catches up
    // (or a latch lowers the quota below its clock).
    auto run_async_phase = [&](std::size_t w) {
      SlotCounters& c = planner.slot(w);
      const std::int64_t& clock = planner.clock(w);  // only this worker writes it
      while (planner.admit(w)) {
        if (cfg.pre_step_hook) cfg.pre_step_hook(w, planner.done() + clock);
        const SteadyClock::time_point step_start = SteadyClock::now();
        slots[w].pull_gradient(ps);
        inject_delay(w, step_start);
        const WorkerSlot::Push push = slots[w].push(ps, seg.compress ? codec : nullptr, seg.lr);
        c.push_bytes += push.bytes;
        c.staleness_sum += push.staleness;
        total_updates.fetch_add(1, std::memory_order_relaxed);
        if (end_step(w, step_start)) latch();
        planner.stepped(w);
      }
    };

    // Every worker of this epoch executes the phase sequence, quiescing at
    // the drain barrier between segments.  A drain that does not arm the
    // next segment makes every worker exit, so the main thread can end the
    // run or reshape the cluster.
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
          if (drained != BarrierPlanner::Drained::kArmed) break;
        }
      } catch (...) {
        // First failure wins; later ones (usually peers tripping over the
        // same cause) are dropped.
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!worker_error) worker_error = std::current_exception();
        }
        planner.abort();
        // Leave both barriers for good: peers parked at either are released
        // now, and the phases no longer expect this thread.
        round_barrier.arrive_and_drop();
        drain_barrier.arrive_and_drop();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(n_alive);
    for (int w : planner.active()) threads.emplace_back(worker_fn, static_cast<std::size_t>(w));
    for (auto& t : threads) t.join();

    // Every thread is joined (throwers via barrier drops, survivors via the
    // run-ending drain after an abort), so a failure surfaces as a plain
    // exception on the calling thread instead of a std::terminate.
    if (worker_error) std::rethrow_exception(worker_error);
    if (drained == BarrierPlanner::Drained::kOver) break;
    // A membership delta is due.  The snapshotter's lock keeps a cadence
    // capture from walking the shards while a crash restore rewrites them.
    const SteadyClock::time_point rec_start = SteadyClock::now();
    const Protocol before = seg.plan.phase.protocol;
    const std::span<const ThreadedMembershipStats> applied = planner.recover();
    trace_armed(before);
    if (obs_on) {
      std::int64_t updates_lost = 0;
      for (const ThreadedMembershipStats& m : applied) updates_lost += m.updates_lost;
      m_recoveries->add();
      obs_span(0, "recovery", rec_start, SteadyClock::now(),
               {obs::arg("events", static_cast<std::int64_t>(applied.size())),
                obs::arg("updates_lost", updates_lost)});
    }
  }

  snapshotter.stop();
  return planner.finish(total_updates.load());
}

}  // namespace ss
