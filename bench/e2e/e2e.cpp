// bench_e2e: one end-to-end benchmark run of one workload.
//
//   bench_e2e --workload W --seed N --seconds S [--trace 0|1] [--trace-out F]
//   bench_e2e --workload W --seed N --smoke
//
// A run derives every input from the seed.  It runs one untimed warm-up
// job (the first job in a process measured up to 2x slower), then runs
// fixed-budget jobs of about a second back to back for about S seconds,
// each on inputs of its own, and reports the medians.  Each job is one op;
// an op fails when any correctness gate it carries fails.  Load is
// closed-loop: a worker pulls again only after its previous push returned,
// with at most 4 worker threads or connections.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
// metrics instead: it splits S between untraced jobs and jobs with the
// program's metrics and tracing armed, then runs the workload's replica
// pass, and writes the wall trace to --trace-out.  --smoke runs one job with
// every gate on.
//
// Output: `name value unit` lines, then `ops N` and `ops_failed N`.  The
// exit code is 0 only when every op passed.
#include <charconv>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.h"
#include "harness.h"
#include "obs/obs.h"
#include "workloads.h"

using namespace e2e;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints, in output order.  A layer a
/// workload does not exercise reads 0 (README.md has the full table).
constexpr MetricDef kLayerMetrics[] = {
    {"nn.grad_us", "us"},
    {"nn.grad_share", "ratio"},
    {"data.batch_us", "us"},
    {"compress.encode_us", "us"},
    {"compress.encode_share", "ratio"},
    {"compress.wire_ratio", "ratio"},
    {"ps.pull_us", "us"},
    {"ps.pull_share", "ratio"},
    {"ps.push_us", "us"},
    {"ps.push_share", "ratio"},
    {"ps.push_wait_ratio", "ratio"},
    {"ps.push_bytes_per_update", "B"},
    {"ps.step_us", "us"},
    {"ps.cycle_us_p50", "us"},
    {"ps.cycle_us_p99", "us"},
    {"ps.barrier_wait_share", "ratio"},
    {"ps.drain_wait_share", "ratio"},
    {"ps.straggler_delay_share", "ratio"},
    {"ps.bsp_phase_s", "s"},
    {"ps.asp_phase_s", "s"},
    {"ps.transition_s", "s"},
    {"ps.mean_staleness", "updates"},
    {"net.pull_us", "us"},
    {"net.pull_share", "ratio"},
    {"net.push_us", "us"},
    {"net.push_share", "ratio"},
    {"net.push_wait_ratio", "ratio"},
    {"net.bytes_per_update", "B"},
    {"net.frames_per_update", "count"},
    {"net.send_frame_us", "us"},
    {"net.recv_frame_us", "us"},
    {"core.sim_s_p50", "s"},
    {"core.sim_s.bsp", "s"},
    {"core.sim_s.asp", "s"},
    {"core.sim_s.ssp", "s"},
    {"core.sim_s.switch", "s"},
    {"core.pool_busy_share", "ratio"},
    {"core.sims_per_s", "1/s"},
    {"sim.steps_per_s", "1/s"},
    {"obs.trace_overhead", "ratio"},
    {"bench.residual_share", "ratio"},
    {"bench.replica_ratio", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string trace_out;
};

int usage(const char* why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload W --seed N (--seconds S [--trace 0|1] "
               "[--trace-out FILE] | --smoke)\n  workloads:";
  for (const auto& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << "\n";
  return 2;
}

template <class T>
bool parse_number(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && ptr == end;
}

/// Samples of the end-to-end metrics over a run's timed jobs.
struct JobSamples {
  std::vector<double> setup_s, tta_s, final_acc;
  void add(const JobOutcome& o) {
    setup_s.push_back(o.setup_s);
    tta_s.push_back(o.tta_s);
    final_acc.push_back(o.final_acc);
  }
};

/// Run full-budget jobs back to back while the next one is expected to end
/// within `seconds` (always at least one).  `layers_out`, when set, gets one
/// Layers map per job and the jobs run with observability armed.
JobSamples run_jobs(Workload& w, double seconds, Report& rep,
                    std::vector<Layers>* layers_out = nullptr) {
  JobSamples samples;
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  do {
    Layers layers;
    if (layers_out != nullptr) {
      ss::obs::metrics().reset();
      ss::obs::enable_tracing();  // fresh buffer: the trace keeps the last job
    }
    const Clock::time_point t0 = Clock::now();
    const JobOutcome o = w.job(layers_out != nullptr ? &layers : nullptr);
    last = seconds_since(t0);
    std::cerr << "job " << samples.tta_s.size() << (layers_out != nullptr ? " traced" : "")
              << ": setup_s " << o.setup_s << " tta_s " << o.tta_s << " final_acc "
              << o.final_acc << "\n";
    rep.op("job", o.failures);
    samples.add(o);
    if (layers_out != nullptr) layers_out->push_back(std::move(layers));
  } while (seconds_since(start) + last <= seconds);
  return samples;
}

void finish(Workload& w, Layers* layers, Report& rep) {
  if (const auto failures = w.finish(layers)) rep.op("finish", *failures);
}

void print_end_to_end(const JobSamples& s, Report& rep) {
  rep.metric("setup_s", median(s.setup_s), "s");
  rep.metric("tta_s", median(s.tta_s), "s");
  rep.metric("final_acc", median(s.final_acc), "acc");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void warm_up(Workload& w, Report& rep) { rep.op("warm-up job", w.job(nullptr).failures); }

void run_timed(Workload& w, const Options& opt, Report& rep) {
  warm_up(w, rep);
  const JobSamples s = run_jobs(w, opt.seconds, rep);
  finish(w, nullptr, rep);
  print_end_to_end(s, rep);
}

void run_traced(Workload& w, const Options& opt, Report& rep) {
  warm_up(w, rep);
  const JobSamples untraced = run_jobs(w, opt.seconds / 2, rep);
  std::vector<Layers> per_job;
  const JobSamples traced = run_jobs(w, opt.seconds / 2, rep, &per_job);
  Layers layers;
  finish(w, &layers, rep);
  ss::obs::disable_all();
  if (!opt.trace_out.empty()) ss::obs::tracer().save_chrome_trace(opt.trace_out);

  // Per-job layer values are medians over the traced jobs; the replica
  // pass's values stand as measured.
  for (const MetricDef& m : kLayerMetrics) {
    if (layers.count(m.name) != 0) continue;
    std::vector<double> v;
    for (const Layers& l : per_job)
      if (const auto it = l.find(m.name); it != l.end()) v.push_back(it->second);
    if (!v.empty()) layers[m.name] = median(v);
  }
  layers["obs.trace_overhead"] = median(traced.tta_s) / median(untraced.tta_s) - 1.0;
  for (const MetricDef& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    rep.metric(m.name, it != layers.end() ? it->second : 0.0, m.unit);
  }
}

void run_smoke(Workload& w, Report& rep) {
  JobSamples s;
  const JobOutcome o = w.job(nullptr);
  rep.op("smoke job", o.failures);
  s.add(o);
  finish(w, nullptr, rep);
  print_end_to_end(s, rep);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    ++i;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      if (!parse_number(v, opt.seed)) return usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      if (!parse_number(v, opt.seconds) || !(opt.seconds > 0.0))
        return usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      opt.traced = v[0] == '1';
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const auto workload = make_workload(opt.workload, opt.seed);
  if (!workload) return usage(("unknown workload '" + opt.workload + "'").c_str());
  if (opt.smoke && opt.traced) return usage("--smoke runs untraced");

  ss::set_log_level(ss::LogLevel::kWarn);
  Report rep;
  try {
    if (opt.smoke)
      run_smoke(*workload, rep);
    else if (opt.traced)
      run_traced(*workload, opt, rep);
    else
      run_timed(*workload, opt, rep);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  rep.print(std::cout);
  return rep.ok() ? 0 : 1;
}
