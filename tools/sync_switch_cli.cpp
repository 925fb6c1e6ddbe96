// sync_switch_cli: run one Sync-Switch training job from the command line.
//
// The paper's prototype lets practitioners "manage their distributed
// training jobs via the command line" (Section V); this is the equivalent
// entry point for the simulated cluster.
//
//   sync_switch_cli [--workers N] [--steps S] [--batch B] [--lr ETA]
//                   [--policy bsp|asp|ssp|dssp|switch] [--fraction F]
//                   [--arch resnet32_lite|resnet50_lite|linear]
//                   [--classes C] [--online none|greedy|elastic|replace]
//                   [--stragglers K] [--latency MS] [--seed X]
//                   [--trace FILE] [--verbose]
//
// Example: the paper's P1 policy on an 8-node cluster:
//   sync_switch_cli --workers 8 --policy switch --fraction 0.0625
//
// Scenario engine (src/scenario/): trace-driven and seeded-random workloads
// checked against the conformance invariants:
//   sync_switch_cli scenario gen --seed=7 --out spot.csv
//   sync_switch_cli scenario replay --seed=7 [--threaded]
//   sync_switch_cli scenario replay --file spot.csv
//   sync_switch_cli scenario fuzz --seeds=200 [--threaded-every=25]
//
// Multi-process deployment (src/net/): host the parameter server in one OS
// process and connect real worker processes over Unix-domain or TCP sockets
// (docs/EXPERIMENTS.md walks through killing a worker mid-run):
//   sync_switch_cli serve --listen unix:/tmp/ps.sock --workers 2 --steps 200
//   sync_switch_cli worker --connect unix:/tmp/ps.sock
//
// Parallel sweeps (src/core/sweep.h): evaluate a grid of independent configs
// across a thread pool — each simulation stays serial and bit-identical to a
// lone run, the parallelism is purely across configs:
//   sync_switch_cli sweep --policies bsp,asp,ssp,dssp --seeds 8 --jobs 4
//   sync_switch_cli sweep --scenario --start 1 --seeds 64 --cache /tmp/ss_cache
//
// Threaded training with the online controller (src/control/, docs/
// CONTROLLER.md): real worker threads, with the simulator in the loop as a
// digital twin pricing protocol/compression/membership moves at every drain
// barrier:
//   sync_switch_cli train --workers 4 --steps 240 --straggler 2 --factor 8
//   sync_switch_cli train --controller --interval 24 --straggler 2 --factor 8
//   sync_switch_cli train --controller --cache /tmp/ss_twin_cache --evict
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/parse.h"
#include "core/run_cache.h"
#include "core/session.h"
#include "core/sweep.h"
#include "data/synthetic.h"
#include "net/ps_server.h"
#include "net/worker_process.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "ps/threaded_runtime.h"
#include "ps/trace.h"
#include "scenario/generator.h"
#include "scenario/invariants.h"
#include "scenario/trace_replay.h"

using namespace ss;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "       " << argv0 << " scenario gen|replay|fuzz [options]\n"
      << "       " << argv0 << " sweep [options]\n"
      << "       " << argv0 << " train [options]   (threaded runtime + online controller)\n"
      << "       " << argv0 << " serve|worker [options]\n"
      << "  --workers N        cluster size (default 8)\n"
      << "  --steps S          minibatch-step budget (default 2048)\n"
      << "  --batch B          per-worker batch size (default 64)\n"
      << "  --lr ETA           base learning rate (default 0.05)\n"
      << "  --momentum MU      momentum (default 0.9)\n"
      << "  --policy P         bsp | asp | ssp | dssp | switch (default switch)\n"
      << "  --fraction F       BSP fraction before the switch (default 0.0625)\n"
      << "  --arch A           resnet32_lite | resnet50_lite | linear\n"
      << "  --classes C        10 (cifar10-like) or 100 (cifar100-like)\n"
      << "  --online O         none | greedy | elastic | replace (default none)\n"
      << "  --stragglers K     inject K transient stragglers (default 0)\n"
      << "  --latency MS       straggler emulated latency in ms (default 30)\n"
      << "  --seed X           repetition seed (default 1)\n"
      << "  --trace FILE       write a Chrome trace-event JSON of the run\n"
      << "  --verbose          info-level logging of switches/evictions\n";
  std::exit(2);
}

[[noreturn]] void scenario_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " scenario <subcommand> [options]\n"
      << "subcommands:\n"
      << "  gen      generate a seeded scenario and print it as a trace file\n"
      << "  replay   run one scenario (seeded or from a trace) against the\n"
      << "           conformance invariants\n"
      << "  fuzz     check a whole seed range, printing failing seeds as\n"
      << "           copy-pasteable replay commands\n"
      << "options (flags take '--flag value' or '--flag=value'):\n"
      << "  --seed N            scenario seed (gen/replay; default 1)\n"
      << "  --file TRACE        replay a CSV/JSON trace file instead of a seed\n"
      << "  --out FILE          gen: write the trace here instead of stdout\n"
      << "  --json              gen: emit the JSON trace form (default CSV)\n"
      << "  --threaded          replay: also cross-check on the threaded runtime\n"
      << "  --seeds N           fuzz: number of seeds to check (default 200)\n"
      << "  --start K           fuzz: first seed (default 1)\n"
      << "  --threaded-every M  fuzz: threaded cross-check every M-th seed\n"
      << "                      (default 25; 0 = simulator only)\n"
      << "  --workers N         generator cluster size (default 4)\n"
      << "  --steps S           generator step budget (default 256)\n"
      << "  --verbose           info-level logging\n";
  std::exit(2);
}

void print_scenario_result(const ScenarioReport& rep) {
  const RunResult& r = rep.result;
  std::cout << "  steps " << r.steps_completed << ", switches " << r.num_switches
            << ", membership events " << r.num_membership_events << ", updates lost "
            << r.updates_lost << "\n  accuracy " << r.final_accuracy << ", staleness "
            << r.mean_staleness << ", virtual time " << r.train_time_seconds << " s";
  if (rep.threaded_ran) std::cout << " (threaded cross-check ran)";
  std::cout << "\n";
}

int scenario_main(int argc, char** argv) {
  if (argc < 3) scenario_usage(argv[0]);
  const std::string sub = argv[2];
  if (sub != "gen" && sub != "replay" && sub != "fuzz") scenario_usage(argv[0]);

  std::uint64_t seed = 1, seeds = 200, start = 1, threaded_every = 25;
  std::string file, out;
  bool json = false, threaded = false;
  ScenarioGenConfig gen_cfg;

  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) scenario_usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--seed") seed = parse_u64(arg, value());
      else if (arg == "--file") file = value();
      else if (arg == "--out") out = value();
      else if (arg == "--json") json = true;
      else if (arg == "--threaded") threaded = true;
      else if (arg == "--seeds") seeds = parse_u64(arg, value());
      else if (arg == "--start") start = parse_u64(arg, value());
      else if (arg == "--threaded-every") threaded_every = parse_u64(arg, value());
      else if (arg == "--workers") gen_cfg.num_workers = parse_u64(arg, value());
      else if (arg == "--steps") gen_cfg.total_steps = parse_i64(arg, value());
      else if (arg == "--verbose") set_log_level(LogLevel::kInfo);
      else scenario_usage(argv[0]);
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << "\n";
      scenario_usage(argv[0]);
    }
  }

  try {
    if (sub == "gen") {
      const Scenario s = generate_scenario(seed, gen_cfg);
      const std::string text = json ? write_trace_json(s) : write_trace_csv(s);
      if (out.empty()) {
        std::cout << text;
      } else {
        std::ofstream f(out, std::ios::trunc);
        if (!f) {
          std::cerr << "error: cannot write " << out << "\n";
          return 1;
        }
        f << text;
        std::cout << "wrote " << out << "\n";
      }
      std::cerr << "scenario: " << s.label() << "\n";
      return 0;
    }

    if (sub == "replay") {
      const Scenario s = file.empty() ? generate_scenario(seed, gen_cfg) : load_trace_file(file);
      CheckOptions opts;
      opts.run_threaded = threaded;
      const ScenarioReport rep = check_scenario(s, opts);
      std::cout << rep.summary() << "\n";
      print_scenario_result(rep);
      return rep.passed() ? 0 : 1;
    }

    // fuzz
    std::uint64_t failures = 0, threaded_runs = 0;
    for (std::uint64_t k = 0; k < seeds; ++k) {
      const std::uint64_t sd = start + k;
      CheckOptions opts;
      opts.run_threaded = threaded_every > 0 && k % threaded_every == 0;
      const ScenarioReport rep = check_scenario(generate_scenario(sd, gen_cfg), opts);
      if (rep.threaded_ran) ++threaded_runs;
      if (!rep.passed()) {
        ++failures;
        std::cout << rep.summary() << "\n  reproduce: " << argv[0]
                  << " scenario replay --seed=" << sd;
        if (rep.threaded_ran) std::cout << " --threaded";
        std::cout << "\n";
      } else if ((k + 1) % 25 == 0 || k + 1 == seeds) {
        std::cout << "checked " << (k + 1) << "/" << seeds << " seeds, " << failures
                  << " failing\n";
      }
    }
    std::cout << "fuzz: " << seeds << " seeds (" << threaded_runs << " with threaded cross-check), "
              << failures << " failing\n";
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

[[noreturn]] void sweep_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " sweep [options]\n"
      << "Evaluate a grid of independent configurations across a thread pool.\n"
      << "Each simulation is serial and bit-identical to a lone run; only the\n"
      << "scheduling across configs is parallel, so results never depend on\n"
      << "--jobs.\n"
      << "grid mode (default): policies x repetition seeds\n"
      << "  --policies LIST    comma list of bsp|asp|ssp|dssp|switch\n"
      << "                     (default bsp,asp,ssp,dssp)\n"
      << "  --seeds N          repetition seeds per policy (default 8)\n"
      << "  --start K          first seed (default 1)\n"
      << "  --fraction F       'switch' policy's BSP fraction (default 0.0625)\n"
      << "  --workers N        cluster size (default 8)\n"
      << "  --steps S          step budget per run (default 512)\n"
      << "  --batch B          per-worker batch size (default 64)\n"
      << "  --arch A           resnet32_lite | resnet50_lite | linear\n"
      << "scenario mode:\n"
      << "  --scenario         sweep generated fuzz scenarios for the seed\n"
      << "                     range [start, start + seeds) instead of a grid\n"
      << "shared:\n"
      << "  --jobs J           pool threads (default 0 = all hardware cores)\n"
      << "  --cache DIR        shared run-cache directory; hits skip the run\n"
      << "                     (concurrent writers are safe: tmp + rename)\n"
      << "  --verbose          info-level logging\n";
  std::exit(2);
}

int sweep_main(int argc, char** argv) {
  std::string policies = "bsp,asp,ssp,dssp";
  std::uint64_t seeds = 8, start = 1, jobs = 0;
  std::string cache_dir, arch;
  double fraction = 0.0625;
  bool scenario_mode = false;

  RunRequest base;  // mirrors the single-run defaults, with a smaller budget
  base.workload.arch = ModelArch::kResNet32Lite;
  base.workload.data = SyntheticSpec::cifar10_like();
  base.workload.total_steps = 512;
  base.workload.hyper.batch_size = 64;
  base.workload.hyper.learning_rate = 0.05;
  base.workload.hyper.momentum = 0.9;
  base.workload.eval_interval = 64;
  base.cluster.num_workers = 8;
  base.cluster.compute_per_batch = VTime::from_ms(120.0);
  base.cluster.sync_base = VTime::from_ms(287.0);
  base.cluster.sync_quad = VTime::from_ms(6.4);

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) sweep_usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--policies") policies = value();
      else if (arg == "--seeds") seeds = parse_u64(arg, value());
      else if (arg == "--start") start = parse_u64(arg, value());
      else if (arg == "--fraction") fraction = parse_double(arg, value());
      else if (arg == "--workers") base.cluster.num_workers = parse_u64(arg, value());
      else if (arg == "--steps") base.workload.total_steps = parse_i64(arg, value());
      else if (arg == "--batch") base.workload.hyper.batch_size = parse_u64(arg, value());
      else if (arg == "--arch") arch = value();
      else if (arg == "--scenario") scenario_mode = true;
      else if (arg == "--jobs") jobs = parse_u64(arg, value());
      else if (arg == "--cache") cache_dir = value();
      else if (arg == "--verbose") set_log_level(LogLevel::kInfo);
      else sweep_usage(argv[0]);
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << "\n";
      sweep_usage(argv[0]);
    }
  }
  if (arch == "linear") base.workload.arch = ModelArch::kLinear;
  else if (arch == "resnet50_lite") base.workload.arch = ModelArch::kResNet50Lite;
  else if (!arch.empty() && arch != "resnet32_lite") sweep_usage(argv[0]);
  base.actuator_time_scale = static_cast<double>(base.workload.total_steps) / 65536.0;

  std::vector<RunRequest> grid;
  std::vector<std::string> labels;
  if (scenario_mode) {
    for (std::uint64_t k = 0; k < seeds; ++k) {
      const std::uint64_t sd = start + k;
      grid.push_back(generate_scenario(sd).to_run_request());
      labels.push_back("scenario seed " + std::to_string(sd));
    }
  } else {
    std::vector<std::string> names;
    for (std::size_t pos = 0; pos < policies.size();) {
      const std::size_t comma = policies.find(',', pos);
      const std::size_t end = comma == std::string::npos ? policies.size() : comma;
      if (end > pos) names.push_back(policies.substr(pos, end - pos));
      pos = end + 1;
    }
    if (names.empty()) sweep_usage(argv[0]);
    for (const std::string& name : names) {
      SyncSwitchPolicy policy;
      if (name == "bsp") policy = SyncSwitchPolicy::pure(Protocol::kBsp);
      else if (name == "asp") policy = SyncSwitchPolicy::pure(Protocol::kAsp);
      else if (name == "ssp") policy = SyncSwitchPolicy::pure(Protocol::kSsp);
      else if (name == "dssp") policy = SyncSwitchPolicy::pure(Protocol::kDssp);
      else if (name == "switch") policy = SyncSwitchPolicy::bsp_to_asp(fraction);
      else sweep_usage(argv[0]);
      for (std::uint64_t s = 0; s < seeds; ++s) {
        RunRequest req = base;
        req.policy = policy;
        req.seed = start + s;
        grid.push_back(std::move(req));
        labels.push_back(name + " seed " + std::to_string(start + s));
      }
    }
  }

  std::optional<RunCache> cache;
  if (!cache_dir.empty()) cache.emplace(cache_dir);
  SweepOptions opts;
  opts.jobs = jobs;
  opts.cache = cache ? &*cache : nullptr;
  const SweepRunner runner(opts);

  std::cout << "sweep: " << grid.size() << " configs across "
            << runner.effective_jobs(grid.size()) << " threads";
  if (cache) std::cout << ", cache " << cache_dir;
  std::cout << "\n";

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepOutcome> outcomes = runner.run(grid);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::size_t failures = 0, hits = 0;
  double serial_seconds = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    serial_seconds += o.wall_seconds;
    if (!o.error.empty()) {
      ++failures;
      std::cout << "  " << labels[i] << ": ERROR " << o.error << "\n";
      continue;
    }
    if (o.from_cache) ++hits;
    std::cout << "  " << labels[i] << ": accuracy " << o.result.final_accuracy
              << ", virtual time " << o.result.train_time_seconds / 60.0
              << " min, staleness " << o.result.mean_staleness
              << (o.from_cache ? " (cached)" : "") << "\n";
  }
  std::cout << "sweep: " << outcomes.size() << " configs in " << wall
            << " s wall (entries sum " << serial_seconds << " s, speedup "
            << (wall > 0 ? serial_seconds / wall : 0.0) << "x)";
  if (cache) std::cout << ", " << hits << " cache hits";
  if (failures) std::cout << ", " << failures << " FAILED";
  std::cout << "\n";
  return failures == 0 ? 0 : 1;
}

/// Observability flags shared by the real runtimes (train/serve/worker):
/// --trace-out / --metrics-out arm the process-global tracer/registry before
/// the run and export after it; --log-level sets the logger floor.
struct ObsFlags {
  std::string trace_out;
  std::string metrics_out;

  /// Returns true when `arg` is an obs flag (and consumes its value).
  template <typename ValueFn, typename UsageFn>
  bool parse(const std::string& arg, ValueFn&& value, UsageFn&& usage_fn) {
    if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--metrics-out") {
      metrics_out = value();
    } else if (arg == "--log-level") {
      const std::string level = value();
      if (const auto parsed = parse_log_level(level)) set_log_level(*parsed);
      else usage_fn();
    } else {
      return false;
    }
    return true;
  }

  void arm() const {
    if (!trace_out.empty()) obs::enable_tracing();
    if (!metrics_out.empty()) obs::enable_metrics();
  }

  [[nodiscard]] bool metrics_enabled() const { return !metrics_out.empty(); }

  /// Export whatever the run recorded.  Call after the run completes.
  void finish() const {
    if (!trace_out.empty()) {
      obs::tracer().save_chrome_trace(trace_out);
      std::cout << "trace: " << obs::tracer().recorded() << " events ("
                << obs::tracer().dropped() << " dropped) -> " << trace_out
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) throw IoError("cannot open " + metrics_out);
      out << obs::metrics().expose_text();
      if (!out.good()) throw IoError("write failed for " + metrics_out);
      std::cout << "metrics: -> " << metrics_out << "\n";
    }
  }
};

const char* kObsUsage =
    "observability (off by default; see docs/ARCHITECTURE.md):\n"
    "  --trace-out FILE   record wall-clock spans; write a Chrome trace JSON\n"
    "  --metrics-out FILE record counters/histograms; write Prometheus text\n"
    "  --log-level L      debug | info | warn | error | off (or SS_LOG_LEVEL)\n";

[[noreturn]] void train_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " train [options]\n"
      << "Train on the real threaded parameter-server runtime (OS threads, one\n"
      << "shared PS).  With --controller, the online policy controller runs the\n"
      << "simulator as a digital twin at every decision barrier and switches\n"
      << "protocol / compression / membership live (docs/CONTROLLER.md).\n"
      << "run options (flags take '--flag value' or '--flag=value'):\n"
      << "  --workers N        worker threads (default 4)\n"
      << "  --steps S          local steps per worker (default 240)\n"
      << "  --batch B          per-worker batch size (default 32)\n"
      << "  --lr ETA           learning rate (default 0.05)\n"
      << "  --momentum MU      momentum (default 0.9)\n"
      << "  --protocol P       bsp | asp | ssp starting protocol (default bsp)\n"
      << "  --ssp-bound K      SSP staleness bound (default 3)\n"
      << "  --shards K         PS shard count (default 1)\n"
      << "  --arch A           linear | resnet32_lite | resnet50_lite (default linear)\n"
      << "  --classes C        10 or 100 (default 10)\n"
      << "  --compress C       none | topk | terngrad | qsgd (default none)\n"
      << "  --straggler W      inject a wall-clock straggler on worker slot W\n"
      << "  --factor F         straggler slowdown factor (default 8)\n"
      << "  --switch-at N      schedule: BSP for the first N steps, then ASP\n"
      << "  --seed X           run seed (default 99)\n"
      << "controller options:\n"
      << "  --controller       enable the online controller\n"
      << "  --interval I       local steps between decision barriers (default 32)\n"
      << "  --min-gain G       min predicted relative gain to move (default 0.10)\n"
      << "  --move-gap M       min local steps between enacted moves (default 64)\n"
      << "  --target-acc A     twin time-to-accuracy target (default 0.60)\n"
      << "  --horizon H        twin simulation horizon in steps (default 192)\n"
      << "  --cache DIR        twin run-cache directory (persists across runs)\n"
      << "  --evict            let the controller evict the measured straggler\n"
      << "  --verbose          info-level logging\n"
      << kObsUsage;
  std::exit(2);
}

void print_threaded_phases(const ThreadedTrainResult& result) {
  std::printf("  %-5s %-9s %7s %8s %10s %10s %8s\n", "phase", "protocol", "steps", "updates",
              "staleness", "upd/s", "wall s");
  for (std::size_t i = 0; i < result.phases.size(); ++i) {
    const ThreadedPhaseStats& s = result.phases[i];
    std::printf("  %-5zu %-9s %7lld %8lld %10.2f %10.1f %8.3f\n", i,
                protocol_name(s.protocol).c_str(), static_cast<long long>(s.steps),
                static_cast<long long>(s.updates), s.mean_staleness, s.updates_per_sec,
                s.wall_seconds);
  }
}

void print_decisions(const std::vector<ControllerDecision>& decisions) {
  if (decisions.empty()) return;
  std::printf("  %-6s %-9s %-16s %-15s %6s %6s %7s %5s %8s\n", "step", "from", "chosen",
              "reason", "pred%", "real%", "factor", "hits", "decide s");
  for (const ControllerDecision& d : decisions) {
    std::printf("  %-6lld %-9s %-16s %-15s %6.1f %6.1f %7.1f %5zu %8.3f\n",
                static_cast<long long>(d.at_step), protocol_name(d.protocol_before).c_str(),
                d.chosen.label().c_str(), d.reason.c_str(), d.predicted_gain * 100.0,
                d.realized_gain * 100.0, d.measured.straggler_factor, d.cache_hits,
                d.decide_wall_seconds);
  }
}

int train_main(int argc, char** argv) {
  ThreadedTrainConfig cfg;
  cfg.num_workers = 4;
  cfg.steps_per_worker = 240;
  cfg.batch_size = 32;
  std::string protocol = "bsp", arch = "linear", compress = "none";
  int classes = 10;
  int straggler = -1;
  double factor = 8.0;
  std::int64_t switch_at = -1;
  ObsFlags obs_flags;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) train_usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--workers") cfg.num_workers = parse_u64(arg, value());
      else if (arg == "--steps") cfg.steps_per_worker = parse_i64(arg, value());
      else if (arg == "--batch") cfg.batch_size = parse_u64(arg, value());
      else if (arg == "--lr") cfg.lr = parse_double(arg, value());
      else if (arg == "--momentum") cfg.momentum = parse_double(arg, value());
      else if (arg == "--protocol") protocol = value();
      else if (arg == "--ssp-bound") cfg.ssp_staleness_bound = parse_int(arg, value());
      else if (arg == "--shards") cfg.num_ps_shards = parse_u64(arg, value());
      else if (arg == "--arch") arch = value();
      else if (arg == "--classes") classes = parse_int(arg, value());
      else if (arg == "--compress") compress = value();
      else if (arg == "--straggler") straggler = parse_int(arg, value());
      else if (arg == "--factor") factor = parse_double(arg, value());
      else if (arg == "--switch-at") switch_at = parse_i64(arg, value());
      else if (arg == "--seed") cfg.seed = parse_u64(arg, value());
      else if (arg == "--controller") cfg.controller.enabled = true;
      else if (arg == "--interval") cfg.controller.decision_interval = parse_i64(arg, value());
      else if (arg == "--min-gain") cfg.controller.min_predicted_gain = parse_double(arg, value());
      else if (arg == "--move-gap")
        cfg.controller.min_steps_between_moves = parse_i64(arg, value());
      else if (arg == "--target-acc") cfg.controller.target_accuracy = parse_double(arg, value());
      else if (arg == "--horizon") cfg.controller.twin_horizon_steps = parse_i64(arg, value());
      else if (arg == "--cache") cfg.controller.cache_dir = value();
      else if (arg == "--evict") cfg.controller.consider_eviction = true;
      else if (arg == "--verbose") set_log_level(LogLevel::kInfo);
      else if (obs_flags.parse(arg, value, [&] { train_usage(argv[0]); })) {}
      else train_usage(argv[0]);
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << "\n";
      train_usage(argv[0]);
    }
  }

  if (protocol == "bsp") cfg.protocol = Protocol::kBsp;
  else if (protocol == "asp") cfg.protocol = Protocol::kAsp;
  else if (protocol == "ssp") cfg.protocol = Protocol::kSsp;
  else train_usage(argv[0]);

  if (compress == "topk") cfg.compression = CompressionSpec::topk(0.01);
  else if (compress == "terngrad") cfg.compression = CompressionSpec::terngrad();
  else if (compress == "qsgd") cfg.compression = CompressionSpec::qsgd(15);
  else if (compress != "none") train_usage(argv[0]);

  ModelArch model_arch;
  if (arch == "linear") model_arch = ModelArch::kLinear;
  else if (arch == "resnet32_lite") model_arch = ModelArch::kResNet32Lite;
  else if (arch == "resnet50_lite") model_arch = ModelArch::kResNet50Lite;
  else train_usage(argv[0]);

  if (straggler >= 0) {
    if (static_cast<std::size_t>(straggler) >= cfg.num_workers) {
      std::cerr << "error: --straggler slot " << straggler << " out of range for "
                << cfg.num_workers << " workers\n";
      return 2;
    }
    cfg.stragglers = StragglerSchedule::transient(straggler, VTime::from_seconds(0.0),
                                                  VTime::from_seconds(1e9), factor);
  }

  if (switch_at >= 0) {
    try {
      cfg.schedule = SwitchSchedule::bsp_to_asp(switch_at);
    } catch (const ConfigError& e) {
      std::cerr << "error: --switch-at " << switch_at << ": " << e.what() << "\n";
      return 2;
    }
  }

  SyntheticSpec spec = classes == 100 ? SyntheticSpec::cifar100_like()
                                      : SyntheticSpec::cifar10_like();
  if (classes != 10 && classes != 100) train_usage(argv[0]);
  spec.train_size = 2048;
  spec.test_size = 512;
  const DataSplit data = make_synthetic(spec);

  Rng rng(21);
  Model model = make_model(model_arch, spec.feature_dim, spec.num_classes, rng);

  std::cout << "threaded training: " << arch_name(model_arch) << ", " << cfg.num_workers
            << " worker threads, " << cfg.steps_per_worker << " steps/worker, start protocol "
            << protocol;
  if (cfg.controller.enabled)
    std::cout << ", controller on (interval " << cfg.controller.decision_interval << ")";
  if (straggler >= 0)
    std::cout << ", straggler on worker " << straggler << " (x" << factor << ")";
  if (switch_at >= 0) std::cout << ", switch BSP->ASP at step " << switch_at;
  std::cout << "\n";

  try {
    obs_flags.arm();
    const auto t0 = std::chrono::steady_clock::now();
    const ThreadedTrainResult result = threaded_train(model, data.train, cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    Model trained = model.clone();
    trained.set_params(result.final_params);
    std::cout << "result: " << result.total_updates << " PS updates in " << wall
              << " s wall, mean staleness " << result.mean_staleness << ", test accuracy "
              << trained.evaluate_accuracy(data.test) << "\n";
    std::cout << "phases:\n";
    print_threaded_phases(result);
    if (!result.decisions.empty()) {
      std::cout << "controller decisions:\n";
      print_decisions(result.decisions);
    }
    obs_flags.finish();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

[[noreturn]] void net_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " serve [options]   (host the parameter server)\n"
      << "       " << argv0 << " worker [options]  (connect one training worker)\n"
      << "serve options (flags take '--flag value' or '--flag=value'):\n"
      << "  --listen EP            unix:<path> or tcp:<host>:<port>; tcp port 0 binds an\n"
      << "                         ephemeral port (default unix:/tmp/sync_switch_ps.sock)\n"
      << "  --workers N            worker processes to admit (default 2)\n"
      << "  --steps S              steps per worker (default 100)\n"
      << "  --batch B              per-worker batch size (default 32)\n"
      << "  --lr ETA               learning rate (default 0.05)\n"
      << "  --momentum MU          momentum (default 0.9)\n"
      << "  --seed X               run seed, shipped to workers (default 99)\n"
      << "  --shards K             PS shard count (default 1)\n"
      << "  --snapshot-interval U  PS updates between async snapshots; 0 = run-start\n"
      << "                         snapshot only (default 64)\n"
      << "  --arch A               linear | resnet32_lite | resnet50_lite (default linear)\n"
      << "  --classes C            10 or 100 (default 10)\n"
      << "  --compress C           none | topk | terngrad | qsgd (default none)\n"
      << "worker options:\n"
      << "  --connect EP           server endpoint (default unix:/tmp/sync_switch_ps.sock)\n"
      << "  --crash-after N        abruptly disconnect after N steps (recovery testing)\n"
      << "both:\n"
      << "  --verbose              info-level logging\n"
      << kObsUsage
      << "  (serve with --metrics-out also logs a metrics line every 5 s)\n";
  std::exit(2);
}

/// Shared '--flag value' / '--flag=value' splitter for the net subcommands.
struct FlagCursor {
  int argc;
  char** argv;
  int i;
  std::string arg{};
  std::string inline_value{};
  bool has_inline = false;

  bool next() {
    if (i >= argc) return false;
    arg = argv[i];
    has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    return true;
  }

  std::string value(const char* argv0) {
    if (has_inline) return inline_value;
    if (i + 1 >= argc) net_usage(argv0);
    return argv[++i];
  }
};

int serve_main(int argc, char** argv) {
  PsServerConfig cfg;
  cfg.snapshot_interval = 64;
  ObsFlags obs_flags;
  for (FlagCursor c{argc, argv, 2}; c.next(); ++c.i) {
    auto value = [&] { return c.value(argv[0]); };
    try {
      if (c.arg == "--listen") cfg.listen = value();
      else if (c.arg == "--workers") cfg.num_workers = parse_u64(c.arg, value());
      else if (c.arg == "--steps") cfg.steps_per_worker = parse_i64(c.arg, value());
      else if (c.arg == "--batch") cfg.batch_size = parse_u64(c.arg, value());
      else if (c.arg == "--lr") cfg.lr = parse_double(c.arg, value());
      else if (c.arg == "--momentum") cfg.momentum = parse_double(c.arg, value());
      else if (c.arg == "--seed") cfg.seed = parse_u64(c.arg, value());
      else if (c.arg == "--shards") cfg.num_ps_shards = parse_u64(c.arg, value());
      else if (c.arg == "--snapshot-interval") cfg.snapshot_interval = parse_i64(c.arg, value());
      else if (c.arg == "--verbose") set_log_level(LogLevel::kInfo);
      else if (c.arg == "--arch") {
        const std::string a = value();
        if (a == "linear") cfg.arch = ModelArch::kLinear;
        else if (a == "resnet32_lite") cfg.arch = ModelArch::kResNet32Lite;
        else if (a == "resnet50_lite") cfg.arch = ModelArch::kResNet50Lite;
        else net_usage(argv[0]);
      } else if (c.arg == "--classes") {
        const int cls = parse_int(c.arg, value());
        if (cls == 10) cfg.data = SyntheticSpec::cifar10_like();
        else if (cls == 100) cfg.data = SyntheticSpec::cifar100_like();
        else net_usage(argv[0]);
      } else if (c.arg == "--compress") {
        const std::string k = value();
        if (k == "none") cfg.compression = CompressionSpec::none();
        else if (k == "topk") cfg.compression = CompressionSpec::topk(0.01);
        else if (k == "terngrad") cfg.compression = CompressionSpec::terngrad();
        else if (k == "qsgd") cfg.compression = CompressionSpec::qsgd(15);
        else net_usage(argv[0]);
      } else if (obs_flags.parse(c.arg, value, [&] { net_usage(argv[0]); })) {
      } else {
        net_usage(argv[0]);
      }
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << "\n";
      net_usage(argv[0]);
    }
  }
  try {
    obs_flags.arm();
    // Metrics-armed servers report on a fixed cadence so a watcher (or the
    // smoke script's log) can see frame counters move mid-run.
    if (obs_flags.metrics_enabled()) cfg.metrics_period_seconds = 5.0;
    const PsServerResult r = run_ps_server(cfg);
    std::cout << "ps_server: " << r.total_updates << " updates from " << r.workers_joined
              << " workers (" << r.workers_evicted << " evicted, " << r.snapshots_restored
              << " snapshot restores, " << r.updates_lost << " updates lost)\n"
              << "ps_server: final accuracy " << r.final_accuracy << "\n";
    obs_flags.finish();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

int worker_main(int argc, char** argv) {
  WorkerProcessConfig cfg;
  cfg.endpoint = "unix:/tmp/sync_switch_ps.sock";
  ObsFlags obs_flags;
  for (FlagCursor c{argc, argv, 2}; c.next(); ++c.i) {
    auto value = [&] { return c.value(argv[0]); };
    try {
      if (c.arg == "--connect") cfg.endpoint = value();
      else if (c.arg == "--crash-after") cfg.crash_after_steps = parse_i64(c.arg, value());
      else if (c.arg == "--verbose") set_log_level(LogLevel::kInfo);
      else if (obs_flags.parse(c.arg, value, [&] { net_usage(argv[0]); })) {}
      else net_usage(argv[0]);
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << "\n";
      net_usage(argv[0]);
    }
  }
  try {
    obs_flags.arm();
    const WorkerProcessResult r = run_worker_process(cfg);
    if (!r.drained && cfg.crash_after_steps >= 0) {
      std::cout << "worker " << r.worker << ": simulated crash after " << r.steps
                << " steps\n";
      obs_flags.finish();
      return 0;
    }
    std::cout << "worker " << r.worker << ": " << r.steps << " steps, " << r.push_bytes
              << " push bytes, mean staleness " << r.mean_staleness
              << (r.drained ? ", drained" : "") << "\n";
    obs_flags.finish();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "scenario") return scenario_main(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "sweep") return sweep_main(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "train") return train_main(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "serve") return serve_main(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "worker") return worker_main(argc, argv);
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
  req.cluster.sync_base = VTime::from_ms(287.0);
  req.cluster.sync_quad = VTime::from_ms(6.4);
  req.policy = SyncSwitchPolicy::bsp_to_asp(0.0625);
  req.seed = 1;

  std::string policy = "switch";
  std::string trace_path;
  double fraction = 0.0625;
  int stragglers = 0;
  double latency_ms = 30.0;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--workers") req.cluster.num_workers = parse_u64(arg, need_value(i));
      else if (arg == "--steps") req.workload.total_steps = parse_i64(arg, need_value(i));
      else if (arg == "--batch") req.workload.hyper.batch_size = parse_u64(arg, need_value(i));
      else if (arg == "--lr") req.workload.hyper.learning_rate = parse_double(arg, need_value(i));
      else if (arg == "--momentum") req.workload.hyper.momentum = parse_double(arg, need_value(i));
      else if (arg == "--policy") policy = need_value(i);
      else if (arg == "--fraction") fraction = parse_double(arg, need_value(i));
      else if (arg == "--seed") req.seed = parse_u64(arg, need_value(i));
      else if (arg == "--trace") trace_path = need_value(i);
      else if (arg == "--stragglers") stragglers = parse_int(arg, need_value(i));
      else if (arg == "--latency") latency_ms = parse_double(arg, need_value(i));
      else if (arg == "--verbose") set_log_level(LogLevel::kInfo);
      else if (arg == "--arch") {
        const std::string a = need_value(i);
        if (a == "resnet32_lite") req.workload.arch = ModelArch::kResNet32Lite;
        else if (a == "resnet50_lite") req.workload.arch = ModelArch::kResNet50Lite;
        else if (a == "linear") req.workload.arch = ModelArch::kLinear;
        else usage(argv[0]);
      } else if (arg == "--classes") {
        const int c = parse_int(arg, need_value(i));
        if (c == 10) req.workload.data = SyntheticSpec::cifar10_like();
        else if (c == 100) req.workload.data = SyntheticSpec::cifar100_like();
        else usage(argv[0]);
      } else if (arg == "--online") {
        const std::string o = need_value(i);
        if (o == "none") req.policy.online = OnlinePolicy::kNone;
        else if (o == "greedy") req.policy.online = OnlinePolicy::kGreedy;
        else if (o == "elastic") req.policy.online = OnlinePolicy::kElastic;
        else if (o == "replace") req.policy.online = OnlinePolicy::kReplace;
        else usage(argv[0]);
      } else {
        usage(argv[0]);
      }
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << "\n";
      usage(argv[0]);
    }
  }

  const OnlinePolicy online = req.policy.online;
  if (policy == "bsp") req.policy = SyncSwitchPolicy::pure(Protocol::kBsp);
  else if (policy == "asp") req.policy = SyncSwitchPolicy::pure(Protocol::kAsp);
  else if (policy == "ssp") req.policy = SyncSwitchPolicy::pure(Protocol::kSsp);
  else if (policy == "dssp") req.policy = SyncSwitchPolicy::pure(Protocol::kDssp);
  else if (policy == "switch") req.policy = SyncSwitchPolicy::bsp_to_asp(fraction);
  else usage(argv[0]);
  req.policy.online = online;

  req.actuator_time_scale = static_cast<double>(req.workload.total_steps) / 65536.0;
  if (stragglers > 0) {
    req.stragglers.num_stragglers = stragglers;
    req.stragglers.occurrences = 2;
    req.stragglers.extra_latency_ms = latency_ms;
    req.stragglers.max_duration = VTime::from_seconds(30.0);
    req.stragglers.horizon = VTime::from_seconds(60.0);
  }

  std::cout << "training " << arch_name(req.workload.arch) << " on "
            << req.workload.data.num_classes << "-class synthetic data, "
            << req.cluster.num_workers << " workers, policy " << policy;
  if (policy == "switch")
    std::cout << " (BSP " << fraction * 100 << "% -> ASP, online "
              << online_policy_name(req.policy.online) << ")";
  std::cout << "\n";

  try {
    TraceSink trace;
    if (!trace_path.empty()) req.observer = &trace;
    const RunResult r = TrainingSession(req).run();
    if (!trace_path.empty()) {
      trace.tracer().save_chrome_trace(trace_path);
      std::cout << "trace: " << trace.tracer().recorded() << " events -> " << trace_path
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (r.diverged) {
      std::cout << "result: DIVERGED after " << r.steps_completed << " steps ("
                << r.train_time_seconds / 60.0 << " virtual min)\n";
      return 1;
    }
    std::cout << "result: converged accuracy " << r.converged_accuracy << " (best "
              << r.best_accuracy << ")\n"
              << "        training time " << r.train_time_seconds / 60.0
              << " virtual min, throughput " << static_cast<long>(r.throughput_images_per_sec)
              << " img/s\n"
              << "        switches " << r.num_switches << " (overhead "
              << r.switch_overhead_seconds << " s), mean staleness " << r.mean_staleness
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
