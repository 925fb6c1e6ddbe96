// Permanent-straggler rescue via node replacement, with trace export.
//
//   $ ./build/examples/replacement_rescue [trace.json]
//
// One worker of an 8-node cluster is permanently slow (e.g. a degraded VM).
// The paper's transient-straggler policies cannot fix this — it prescribes
// requesting a replacement node (Section IV-B2).  This example runs that
// policy: the detector flags the slow worker, Sync-Switch evicts it,
// provisions a fresh VM in the background (~100 s, scaled), and the healthy
// replacement rejoins.  Pass a path to also dump a Chrome trace of the run
// (the eviction and rejoin are visible on the worker timelines).
#include <iostream>

#include "common/log.h"
#include "core/session.h"
#include "ps/trace.h"

using namespace ss;

namespace {

RunRequest base_request() {
  RunRequest req;
  req.workload.arch = ModelArch::kResNet32Lite;
  req.workload.data = SyntheticSpec::cifar10_like();
  req.workload.total_steps = 2048;
  req.workload.hyper.batch_size = 64;
  req.workload.hyper.learning_rate = 0.05;
  req.workload.hyper.momentum = 0.9;
  req.workload.eval_interval = 64;
  req.cluster.num_workers = 8;
  req.cluster.compute_per_batch = VTime::from_ms(120.0);
  req.cluster.reference_batch = 64;
  req.cluster.sync_base = VTime::from_ms(287.0);
  req.cluster.sync_quad = VTime::from_ms(6.4);
  req.policy = SyncSwitchPolicy::bsp_to_asp(0.25);
  req.actuator_time_scale = 2048.0 / 65536.0;
  req.seed = 1;
  // One permanent straggler: a single episode far longer than the run.
  req.stragglers.num_stragglers = 1;
  req.stragglers.occurrences = 1;
  req.stragglers.extra_latency_ms = 30.0;
  req.stragglers.max_duration = VTime::from_minutes(600.0);
  req.stragglers.horizon = VTime::from_seconds(1.0);
  return req;
}

void report(const std::string& name, const RunResult& r) {
  std::cout << "  " << name << ": accuracy " << r.converged_accuracy << ", time "
            << r.train_time_seconds / 60.0 << " min\n";
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);  // show eviction / rejoin decisions
  std::cout << "Replacement rescue: 8 workers, worker permanently slowed ~3.4x\n\n";

  RunRequest baseline = base_request();
  const RunResult rb = TrainingSession(baseline).run();

  RunRequest replace = base_request();
  replace.policy.online = OnlinePolicy::kReplace;
  TraceSink trace;
  if (argc > 1) replace.observer = &trace;
  const RunResult rr = TrainingSession(replace).run();

  std::cout << "\n";
  report("Baseline (drags the straggler)", rb);
  report("Replace  (fresh VM takes over)", rr);
  std::cout << "\nReplacement recovered "
            << 100.0 * (rb.train_time_seconds - rr.train_time_seconds) / rb.train_time_seconds
            << "% of the straggler's time tax.\n";

  if (argc > 1) {
    trace.tracer().save_chrome_trace(argv[1]);
    std::cout << "trace: " << trace.tracer().recorded() << " events -> " << argv[1]
              << " (open in chrome://tracing; the evicted slot's lane goes quiet,\n"
                 "then resumes at full speed when the replacement joins)\n";
  }
  return 0;
}
