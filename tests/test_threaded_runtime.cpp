#include "ps/threaded_runtime.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/error.h"
#include "data/synthetic.h"
#include "determinism_corpus.h"
#include "nn/zoo.h"
#include "obs/obs.h"

namespace ss {
namespace {

DataSplit easy_data() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 256;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.class_separation = 1.5;
  return make_synthetic(spec);
}

Model proto_model(const DataSplit& split) {
  Rng rng(11);
  return make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
}

TEST(ThreadedRuntime, BspUpdateCountMatchesRounds) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 20;
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 20);  // one aggregated update per round
  EXPECT_DOUBLE_EQ(result.mean_staleness, 0.0);
  for (float p : result.final_params) EXPECT_TRUE(std::isfinite(p));
}

TEST(ThreadedRuntime, AspUpdateCountIsWorkerSteps) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 25;
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 100);  // every push is an update
  EXPECT_GE(result.mean_staleness, 0.0);
  for (float p : result.final_params) EXPECT_TRUE(std::isfinite(p));
}

TEST(ThreadedRuntime, TrainingImprovesAccuracy) {
  const DataSplit split = easy_data();
  Model proto = proto_model(split);
  const double before = proto.evaluate_accuracy(split.test);
  for (Protocol proto_kind : {Protocol::kBsp, Protocol::kAsp}) {
    ThreadedTrainConfig cfg;
    cfg.protocol = proto_kind;
    cfg.num_workers = 4;
    cfg.steps_per_worker = 60;
    cfg.lr = 0.1;
    const auto result = threaded_train(proto, split.train, cfg);
    Model trained = proto.clone();
    trained.set_params(result.final_params);
    const double after = trained.evaluate_accuracy(split.test);
    EXPECT_GT(after, before + 0.2) << protocol_name(proto_kind);
  }
}

TEST(ThreadedRuntime, RejectsBadConfig) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.num_workers = 0;
  EXPECT_THROW(threaded_train(proto, split.train, cfg), ConfigError);
}

TEST(ThreadedRuntime, SimulatorOnlyProtocolsAreRejected) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  for (Protocol p : {Protocol::kKSync, Protocol::kKAsync, Protocol::kDssp}) {
    ThreadedTrainConfig cfg;
    cfg.protocol = p;
    cfg.num_workers = 2;
    cfg.steps_per_worker = 4;
    EXPECT_THROW(threaded_train(proto, split.train, cfg), ConfigError) << protocol_name(p);
  }
}

TEST(ThreadedRuntime, SspEnforcesTheStalenessBoundWithRealThreads) {
  // Worker 0 sleeps before every step; without a bound the fast workers run
  // arbitrarily far ahead.  With SSP(2) the observed local-clock gap must
  // never exceed 2 — enforced by real condition-variable parking, not by
  // simulation.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);

  ThreadedTrainConfig ssp;
  ssp.protocol = Protocol::kSsp;
  ssp.num_workers = 4;
  ssp.steps_per_worker = 30;
  ssp.ssp_staleness_bound = 2;
  ssp.pre_step_hook = [](std::size_t worker, std::int64_t) {
    if (worker == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const auto bounded = threaded_train(proto, split.train, ssp);
  EXPECT_LE(bounded.max_clock_gap, 2);
  EXPECT_EQ(bounded.total_updates, 120);
  for (float p : bounded.final_params) EXPECT_TRUE(std::isfinite(p));

  ThreadedTrainConfig asp = ssp;
  asp.protocol = Protocol::kAsp;
  const auto unbounded = threaded_train(proto, split.train, asp);
  // The straggler guarantees a visible gap without a bound.
  EXPECT_GT(unbounded.max_clock_gap, 2);
}

TEST(ThreadedRuntime, CompressedTrainingStillImprovesAccuracy) {
  // The full pipeline on real threads: per-worker bank -> CompressedPush ->
  // (sparse) PS apply must still learn, for a biased codec with error
  // feedback (top-k) and an unbiased quantizer (QSGD).
  const DataSplit split = easy_data();
  Model proto = proto_model(split);
  const double before = proto.evaluate_accuracy(split.test);
  for (const auto& spec : {CompressionSpec::topk(0.25), CompressionSpec::qsgd(15)}) {
    for (Protocol proto_kind : {Protocol::kBsp, Protocol::kAsp}) {
      ThreadedTrainConfig cfg;
      cfg.protocol = proto_kind;
      cfg.num_workers = 4;
      cfg.steps_per_worker = 60;
      cfg.lr = 0.1;
      cfg.num_ps_shards = 4;
      cfg.compression = spec;
      const auto result = threaded_train(proto, split.train, cfg);
      Model trained = proto.clone();
      trained.set_params(result.final_params);
      const double after = trained.evaluate_accuracy(split.test);
      EXPECT_GT(after, before + 0.2)
          << protocol_name(proto_kind) << " + " << spec.label();
    }
  }
}

TEST(ThreadedRuntime, CompressionShrinksPushBytes) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 10;
  const auto dense = threaded_train(proto, split.train, cfg);
  cfg.compression = CompressionSpec::topk(0.05);
  const auto sparse = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(dense.push_bytes,
            40 * static_cast<std::int64_t>(proto.num_params() * sizeof(float)));
  EXPECT_LT(sparse.push_bytes, dense.push_bytes / 4);
}

// ---------------------------------------------------------------------------
// Live protocol switching: SwitchSchedule phases execute back to back on the
// same threads and PS, quiescing at the drain barrier between phases.
// ---------------------------------------------------------------------------

TEST(ThreadedRuntime, StepTriggeredSwitchCountsExactly) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(10);
  cfg.num_workers = 4;
  cfg.steps_per_worker = 30;
  const auto result = threaded_train(proto, split.train, cfg);

  // BSP phase: 10 rounds = 10 aggregated updates.  ASP phase: the remaining
  // 20 local steps per worker push individually = 80 updates.
  ASSERT_EQ(result.phases.size(), 2u);
  const auto& bsp = result.phases[0];
  const auto& asp = result.phases[1];
  EXPECT_EQ(bsp.protocol, Protocol::kBsp);
  EXPECT_EQ(bsp.start_step, 0);
  EXPECT_EQ(bsp.steps, 10);
  EXPECT_EQ(bsp.updates, 10);
  EXPECT_DOUBLE_EQ(bsp.mean_staleness, 0.0);
  EXPECT_EQ(bsp.max_clock_gap, 0);
  EXPECT_FALSE(bsp.ended_by_trigger);
  EXPECT_EQ(asp.protocol, Protocol::kAsp);
  EXPECT_EQ(asp.start_step, 10);
  EXPECT_EQ(asp.steps, 20);
  EXPECT_EQ(asp.updates, 80);
  EXPECT_EQ(result.total_updates, 90);
  EXPECT_EQ(result.push_bytes, bsp.push_bytes + asp.push_bytes);
  // Every gradient crossed the wire exactly once: 30 local steps x 4 workers.
  EXPECT_EQ(result.push_bytes,
            120 * static_cast<std::int64_t>(proto.num_params() * sizeof(float)));
  EXPECT_GT(bsp.wall_seconds, 0.0);
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedRuntime, SwitchedRunStillTrains) {
  const DataSplit split = easy_data();
  Model proto = proto_model(split);
  const double before = proto.evaluate_accuracy(split.test);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(20);
  cfg.num_workers = 4;
  cfg.steps_per_worker = 60;
  cfg.lr = 0.1;  // derive_phase_lr scales the BSP phase to 4 x 0.1
  cfg.num_ps_shards = 4;
  const auto result = threaded_train(proto, split.train, cfg);
  Model trained = proto.clone();
  trained.set_params(result.final_params);
  EXPECT_GT(trained.evaluate_accuracy(split.test), before + 0.2);
}

TEST(ThreadedRuntime, ThreePhaseScheduleHonorsPerPhaseSspBound) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule(
      {SwitchPhase{Protocol::kBsp, SwitchTrigger::kStepCount, 5, -1},
       SwitchPhase{Protocol::kSsp, SwitchTrigger::kStepCount, 15, /*bound=*/2},
       SwitchPhase{Protocol::kAsp, SwitchTrigger::kStepCount, 0, -1}});
  cfg.num_workers = 4;
  cfg.steps_per_worker = 30;
  cfg.ssp_staleness_bound = 99;  // the phase override must win
  cfg.pre_step_hook = [](std::size_t worker, std::int64_t) {
    if (worker == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const auto result = threaded_train(proto, split.train, cfg);
  ASSERT_EQ(result.phases.size(), 3u);
  EXPECT_EQ(result.phases[0].updates, 5);
  EXPECT_EQ(result.phases[1].protocol, Protocol::kSsp);
  EXPECT_EQ(result.phases[1].steps, 15);
  EXPECT_EQ(result.phases[1].updates, 60);
  EXPECT_LE(result.phases[1].max_clock_gap, 2);
  EXPECT_EQ(result.phases[2].steps, 10);
  EXPECT_EQ(result.phases[2].updates, 40);
  EXPECT_EQ(result.total_updates, 5 + 60 + 40);
}

TEST(ThreadedRuntime, SwitchedCompressedRunConservesWireAccounting) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(8);
  cfg.num_workers = 4;
  cfg.steps_per_worker = 16;
  cfg.num_ps_shards = 4;
  cfg.compression = CompressionSpec::topk(0.25);
  const auto result = threaded_train(proto, split.train, cfg);
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(result.total_updates, 8 + 8 * 4);
  EXPECT_EQ(result.push_bytes, result.phases[0].push_bytes + result.phases[1].push_bytes);
  EXPECT_LT(result.push_bytes,
            64 * static_cast<std::int64_t>(proto.num_params() * sizeof(float)));
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedRuntime, ScheduleRejectsSimulatorOnlyProtocols) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::step_switched({{Protocol::kBsp, 4}, {Protocol::kKAsync, 0}});
  cfg.num_workers = 2;
  cfg.steps_per_worker = 8;
  EXPECT_THROW(threaded_train(proto, split.train, cfg), ConfigError);
}

// ---------------------------------------------------------------------------
// Straggler injection + reactive switching (paper Section VI-B3 on threads).
// ---------------------------------------------------------------------------

TEST(ThreadedRuntime, InjectedStragglerOpensTheAspClockGap) {
  // Worker 0 is slowed 20x by the wall-clock injection hook (it sleeps
  // (factor - 1) x its measured step time); under ASP the healthy workers
  // race ahead, so a visible local-clock gap is guaranteed — and the update
  // count stays exact because injection only delays, never drops, a push.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 30;
  cfg.stragglers = StragglerSchedule::permanent(0, 20.0);
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 120);
  EXPECT_GT(result.max_clock_gap, 2);
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ThreadedRuntime, SspBoundHoldsUnderInjectedStraggler) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kSsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 30;
  cfg.ssp_staleness_bound = 2;
  cfg.stragglers = StragglerSchedule::permanent(0, 20.0);
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 120);
  EXPECT_LE(result.max_clock_gap, 2);
}

TEST(ThreadedRuntime, ReactiveScheduleSwitchesWhenTheDetectorFires) {
  // BSP until the shared detector flags the injected straggler, then ASP for
  // the rest.  Worker 0's steps take ~20x longer (sleep, not CPU), so its
  // throughput collapses relative to the cluster and detection is certain
  // once the windows warm up — after that, the runtime must (a) have
  // switched, (b) have conserved the per-worker step budget across the
  // trigger-latched phase boundary.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::reactive(Protocol::kBsp, Protocol::kAsp);
  cfg.num_workers = 4;
  cfg.steps_per_worker = 80;
  cfg.stragglers = StragglerSchedule::permanent(0, 20.0);
  cfg.detector.window_size = 3;
  cfg.detector.consecutive_required = 1;
  const auto result = threaded_train(proto, split.train, cfg);

  ASSERT_EQ(result.phases.size(), 2u);
  const auto& bsp = result.phases[0];
  const auto& asp = result.phases[1];
  EXPECT_EQ(bsp.protocol, Protocol::kBsp);
  EXPECT_TRUE(bsp.ended_by_trigger);
  EXPECT_LT(bsp.steps, 80);  // the switch happened before the budget ran out
  EXPECT_GT(bsp.steps, 0);
  EXPECT_EQ(asp.protocol, Protocol::kAsp);
  EXPECT_EQ(bsp.steps + asp.steps, 80);  // budget conserved across the switch
  EXPECT_EQ(result.total_updates, bsp.updates + asp.updates);
  EXPECT_EQ(asp.updates, 4 * asp.steps);
  for (float v : result.final_params) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// Work-conserving async phases: an ASP phase is one budget of n x steps
// step tickets, drawn by whichever worker asks next, so a straggler takes
// fewer of them instead of holding its peers at the drain barrier.  SSP keeps
// per-worker quotas, because its staleness bound is defined on them.
// ---------------------------------------------------------------------------

struct PacedRun {
  ThreadedTrainResult result;
  std::array<std::int64_t, 4> steps{};  ///< steps each slot took, from the hook
};

/// Four workers; slot 0 sleeps 10 ms before every step and the others
/// 0.25 ms.  Sleeping rather than spinning keeps the pacing independent of
/// how loaded the host is.  A start gate holds each worker in its first
/// call until every worker has made one, so the pacing does not depend on
/// when each thread starts: a late thread still draws its first ASP ticket
/// before its peers run on.
PacedRun run_with_slow_slot(Protocol protocol) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  std::array<std::atomic<std::int64_t>, 4> counts{};
  std::latch started(4);
  ThreadedTrainConfig cfg;
  cfg.protocol = protocol;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 20;
  cfg.ssp_staleness_bound = 2;
  cfg.pre_step_hook = [&counts, &started](std::size_t worker, std::int64_t) {
    if (counts[worker].fetch_add(1) == 0) started.arrive_and_wait();
    std::this_thread::sleep_for(worker == 0 ? std::chrono::microseconds(10000)
                                            : std::chrono::microseconds(250));
  };
  PacedRun run{threaded_train(proto, split.train, cfg), {}};
  for (std::size_t w = 0; w < counts.size(); ++w) run.steps[w] = counts[w].load();
  return run;
}

TEST(ThreadedRuntime, AsyncPhaseIsWorkConservingUnderAStraggler) {
  const PacedRun run = run_with_slow_slot(Protocol::kAsp);
  // The budget is exact: n x steps_per_worker steps, one push each.
  EXPECT_EQ(run.steps[0] + run.steps[1] + run.steps[2] + run.steps[3], 4 * 20);
  for (std::size_t w = 1; w < run.steps.size(); ++w)
    EXPECT_LT(run.steps[0], run.steps[w]) << "slot " << w;
  EXPECT_EQ(run.result.total_updates, 4 * 20);
  ASSERT_EQ(run.result.phases.size(), 1u);
  EXPECT_EQ(run.result.phases[0].steps, 20);  // reported per worker: tickets / n
  EXPECT_EQ(run.result.phases[0].updates, 4 * 20);
}

TEST(ThreadedRuntime, SspPhaseKeepsPerWorkerQuotasUnderAStraggler) {
  const PacedRun run = run_with_slow_slot(Protocol::kSsp);
  for (std::size_t w = 0; w < run.steps.size(); ++w) EXPECT_EQ(run.steps[w], 20) << "slot " << w;
  EXPECT_LE(run.result.max_clock_gap, 2);
  EXPECT_EQ(run.result.total_updates, 4 * 20);
  ASSERT_EQ(run.result.phases.size(), 1u);
  EXPECT_EQ(run.result.phases[0].steps, 20);
}

/// Read integer argument `key` of the first trace event named `name`.
std::int64_t trace_arg(const std::string& trace, const std::string& name, const std::string& key) {
  const std::size_t ev = trace.find("\"name\":\"" + name + "\"");
  if (ev == std::string::npos) return -1;
  const std::size_t at = trace.find("\"" + key + "\":", ev);
  if (at == std::string::npos) return -1;
  return std::stoll(trace.substr(at + key.size() + 3));
}

TEST(ThreadedRuntime, LatchedTriggerEndsAnAspPhaseWithinOneTicketPerWorker) {
  // ASP until the detector reports a healthy cluster, then ASP again.  The
  // hook's sleeps are outside the timed step, so the detector sees equal
  // throughput and the trigger fires on its first pass after warm-up; slot 0
  // sleeping 8x longer keeps the clocks far apart when it does.  The latch
  // rounds the tickets drawn so far up to a multiple of n, so the phase ends
  // within n tickets of it, on a whole per-worker step count.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule(
      {SwitchPhase{Protocol::kAsp, SwitchTrigger::kStragglerCleared, 0, -1},
       SwitchPhase{Protocol::kAsp, SwitchTrigger::kStepCount, 0, -1}});
  cfg.num_workers = 4;
  cfg.steps_per_worker = 100;
  cfg.detector.window_size = 3;
  cfg.detector.consecutive_required = 1;
  cfg.pre_step_hook = [](std::size_t worker, std::int64_t) {
    std::this_thread::sleep_for(worker == 0 ? std::chrono::microseconds(2000)
                                            : std::chrono::microseconds(250));
  };
  obs::enable_tracing();
  const auto result = threaded_train(proto, split.train, cfg);
  std::ostringstream trace;
  obs::tracer().write_chrome_trace(trace);
  obs::disable_all();
  obs::tracer().clear();

  ASSERT_EQ(result.phases.size(), 2u);
  const auto& first = result.phases[0];
  ASSERT_TRUE(first.ended_by_trigger);
  EXPECT_EQ(first.updates, 4 * first.steps);
  const std::int64_t drawn = trace_arg(trace.str(), "latch", "tickets");
  ASSERT_GT(drawn, 0) << "no latch event in the trace";
  EXPECT_EQ(trace_arg(trace.str(), "latch", "ticket_budget"), first.updates);
  EXPECT_GE(first.updates, drawn);
  EXPECT_LT(first.updates - drawn, 4);
  // The per-worker budget is conserved across the latched boundary.
  EXPECT_EQ(first.steps + result.phases[1].steps, cfg.steps_per_worker);
  EXPECT_EQ(result.total_updates, 4 * cfg.steps_per_worker);
}

TEST(ThreadedRuntime, SspStillTrains) {
  const DataSplit split = easy_data();
  Model proto = proto_model(split);
  const double before = proto.evaluate_accuracy(split.test);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kSsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 60;
  cfg.lr = 0.1;
  cfg.ssp_staleness_bound = 3;
  const auto result = threaded_train(proto, split.train, cfg);
  Model trained = proto.clone();
  trained.set_params(result.final_params);
  EXPECT_GT(trained.evaluate_accuracy(split.test), before + 0.2);
}

// ---------------------------------------------------------------------------
// Worker-thread exception safety.  An exception escaping a worker body used
// to hit the top of the std::thread and call std::terminate, taking the
// whole process down and leaving peers parked on barriers.  It must instead
// abort the run cleanly: peers drain off their barriers, every thread joins,
// and the first exception rethrows on the calling thread as a catchable
// error.  gtest would report the old behavior as a crash, not a failure, so
// these are genuine regression tests for the terminate path.
// ---------------------------------------------------------------------------

using StepHook = std::function<void(std::size_t worker, std::int64_t step)>;

/// Fault on the k-th pre-step hook call of the run, whichever worker takes
/// that step.  ASP workers share one step budget, so a given worker can
/// finish the run without ever reaching a given step of its own (the first
/// thread to spawn may drain cheap steps before its peers start); counting
/// the run's steps fires the fault exactly once in every run.
StepHook fault_on_kth_step(int k, const char* what) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  return [calls, k, what](std::size_t, std::int64_t) {
    if (calls->fetch_add(1) + 1 == k) throw std::runtime_error(what);
  };
}

void expect_worker_throw_is_catchable(Protocol protocol, StepHook fault) {
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = protocol;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 40;
  cfg.ssp_staleness_bound = 2;
  // One worker blows up mid-run; the others are mid-step or parked on the
  // round/drain barrier when it happens.
  cfg.pre_step_hook = std::move(fault);
  try {
    threaded_train(proto, split.train, cfg);
    FAIL() << protocol_name(protocol) << ": worker exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected worker fault") << protocol_name(protocol);
  }
  // If any worker were still parked on a barrier, threaded_train could not
  // have returned (it joins every thread before rethrowing) — reaching this
  // line at all proves the abort drained the peers.
}

/// Worker 2 at its own step 7: BSP and SSP keep every worker's clock within
/// a fixed bound, so every worker reaches it.
void worker_two_faults_at_step_seven(std::size_t worker, std::int64_t step) {
  if (worker == 2 && step == 7) throw std::runtime_error("injected worker fault");
}

TEST(ThreadedRuntime, WorkerExceptionIsCatchableUnderBsp) {
  expect_worker_throw_is_catchable(Protocol::kBsp, worker_two_faults_at_step_seven);
}

TEST(ThreadedRuntime, WorkerExceptionIsCatchableUnderAsp) {
  // The 30th step of the run: about where worker 2's own step 7 falls when
  // four workers share the budget evenly.
  expect_worker_throw_is_catchable(Protocol::kAsp,
                                   fault_on_kth_step(30, "injected worker fault"));
}

TEST(ThreadedRuntime, WorkerExceptionIsCatchableUnderSsp) {
  expect_worker_throw_is_catchable(Protocol::kSsp, worker_two_faults_at_step_seven);
}

TEST(ThreadedRuntime, FirstStepExceptionAbortsBeforeAnyUpdate) {
  // Throwing on the very first step exercises the abort path while every
  // peer is still at its first barrier arrival.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kBsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 10;
  cfg.pre_step_hook = [](std::size_t worker, std::int64_t step) {
    if (worker == 0 && step == 0) throw std::runtime_error("first-step fault");
  };
  EXPECT_THROW(threaded_train(proto, split.train, cfg), std::runtime_error);
}

TEST(ThreadedRuntime, RuntimeStaysUsableAfterAbortedRun) {
  // An aborted run must not leak state that poisons the next one: the same
  // config without the fault trains normally afterwards.
  const DataSplit split = easy_data();
  const Model proto = proto_model(split);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 20;
  ThreadedTrainConfig faulty = cfg;
  faulty.pre_step_hook = fault_on_kth_step(14, "fault");
  EXPECT_THROW(threaded_train(proto, split.train, faulty), std::runtime_error);
  const auto result = threaded_train(proto, split.train, cfg);
  EXPECT_EQ(result.total_updates, 80);
  for (float p : result.final_params) EXPECT_TRUE(std::isfinite(p));
}

// The threaded determinism corpus (tests/determinism_corpus.h): BSP and
// one-worker runs whose every counted result is independent of thread timing,
// pinned bit for bit.  Each case runs twice so a pin that only holds for one
// interleaving fails here rather than later under load.  If a change moves
// a value *deliberately*, run `tools/record_determinism_corpus` and paste
// the second table here, and say why in CHANGES.md.
TEST(ThreadedRuntime, PinnedCorpusIsBitForBitStable) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "fingerprints are pinned for x86-64 (FP contraction differs elsewhere)";
#endif
  const std::map<std::string, std::string> kExpectedFingerprints = {
      {"bsp/n4/s4", "1aa43272a462eca8"},
      {"bsp/qsgd", "0124f006f00308dd"},
      {"bsp/join10-leave20", "47f68af166173a99"},
      {"bsp/crash12-restore", "6fdd69511dece2aa"},
      {"schedule/bsp-bsp-leave-at-boundary", "c435dbef259c3e3e"},
      {"schedule/n1-bsp-ssp-asp-topk", "7c8f5401f4d054c6"},
      {"controller/hold/derive", "7e9048563524946a"},
      {"controller/hold/no-derive", "55bfca37620961b6"},
  };
  const DataSplit split = threaded_corpus_data();
  const Model prototype = threaded_corpus_model(split);
  const std::vector<ThreadedCorpusCase> corpus = threaded_determinism_corpus();
  ASSERT_EQ(corpus.size(), kExpectedFingerprints.size());
  for (const ThreadedCorpusCase& c : corpus) {
    const auto it = kExpectedFingerprints.find(c.name);
    ASSERT_NE(it, kExpectedFingerprints.end()) << c.name;
    for (int run = 0; run < 2; ++run)
      EXPECT_EQ(run_threaded_case(c, split, prototype), it->second) << c.name << " run " << run;
  }
}

}  // namespace
}  // namespace ss
