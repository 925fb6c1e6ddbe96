// sync_switch_cli: run one Sync-Switch training job from the command line.
//
// The paper's prototype lets practitioners "manage their distributed
// training jobs via the command line" (Section V); this is the equivalent
// entry point for the simulated cluster.
//
//   sync_switch_cli [--workers N] [--steps S] [--batch B] [--lr ETA]
//                   [--policy bsp|asp|ssp|dssp|...|switch] [--fraction F]
//                   [--arch resnet32_lite|resnet50_lite|linear|...]
//                   [--classes C] [--online none|greedy|elastic|replace]
//                   [--stragglers K] [--latency MS] [--seed X]
//                   [--trace FILE] [--verbose]
//
// Every subcommand reads its flags through one reader (Flags below): a flag
// takes its value as `--flag value` or `--flag=value`, a boolean flag takes
// none, and any misuse prints an error naming the flag plus the
// subcommand's usage, exiting 2.
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

/// Prints `error` (when given) and `text`, each "$0" in it read as the
/// program name, then exits 2: every misuse of a subcommand ends here.
[[noreturn]] void usage(const char* argv0, std::string text, const char* error = nullptr) {
  if (error != nullptr) std::cerr << "error: " << error << "\n";
  for (std::size_t at; (at = text.find("$0")) != std::string::npos;) text.replace(at, 2, argv0);
  std::cerr << text;
  std::exit(2);
}

/// `parse(value)` from a name table (it returns a std::optional), or a
/// ConfigError naming `flag`.
template <class Parse>
auto lookup(const std::string& flag, const std::string& value, Parse parse) {
  if (auto found = parse(value)) return *found;
  throw ConfigError(flag + ": unknown name '" + value + "'");
}

/// The one reader of a subcommand's flags.  A flag takes its value as
/// `--flag value` or `--flag=value`; a boolean flag takes none.  Every misuse
/// (an unknown flag, a missing value, a boolean given `=value`, a value its
/// number reader or name table refuses) throws a ConfigError that starts
/// with the flag's name; each subcommand catches it once and prints usage.
///
///   for (Flags f(argc, argv, 2); f.next();)
///     if (f.is("--steps")) steps = f.i64();
///     else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
class Flags {
 public:
  Flags(int argc, char** argv, int first) : argc_(argc), argv_(argv), at_(first) {}

  /// Moves to the next flag; false when none is left.  Throws when no is()
  /// matched the flag before it.
  bool next() {
    if (!matched_) throw ConfigError(name_ + ": unknown flag");
    if (at_ >= argc_) return false;
    name_ = argv_[at_++];
    matched_ = false;
    inline_.reset();
    const std::size_t eq = name_.find('=');
    if (name_.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_ = name_.substr(eq + 1);
      name_.resize(eq);
    }
    return true;
  }

  /// True when the current flag is `flag`, which then counts as known.
  bool is(const char* flag) {
    if (name_ != flag) return false;
    return matched_ = true;
  }

  /// The flag's value: its `=value`, else the next argument.
  std::string value() {
    if (inline_) return *inline_;
    if (at_ >= argc_) throw ConfigError(name_ + ": missing value");
    return argv_[at_++];
  }

  /// A boolean flag: true, unless it was given `=value`.
  bool set() const {
    if (inline_) throw ConfigError(name_ + ": takes no value, got '" + *inline_ + "'");
    return true;
  }

  std::uint64_t u64() { return parse_u64(name_, value()); }
  std::int64_t i64() { return parse_i64(name_, value()); }
  int integer() { return parse_int(name_, value()); }
  double real() { return parse_double(name_, value()); }
  /// The value looked up in a name table, such as parse_arch (nn/zoo.h).
  template <class Parse>
  auto named(Parse parse) {
    return lookup(name_, value(), parse);
  }

 private:
  int argc_;
  char** argv_;
  int at_;
  std::string name_;
  std::optional<std::string> inline_;
  bool matched_ = true;
};

// The CLI's own names; every other name flag reads its enum's table.

/// --policy / --policies: a protocol name (parse_protocol) runs that
/// protocol throughout; "switch" is the paper's BSP -> ASP at `fraction`.
std::optional<SyncSwitchPolicy> parse_policy(const std::string& name, double fraction) {
  if (name == "switch") return SyncSwitchPolicy::bsp_to_asp(fraction);
  if (const auto p = parse_protocol(name)) return SyncSwitchPolicy::pure(*p);
  return std::nullopt;
}

/// --online: none | greedy | elastic | replace.
std::optional<OnlinePolicy> parse_online(const std::string& name) {
  if (name == "none") return OnlinePolicy::kNone;
  if (name == "greedy") return OnlinePolicy::kGreedy;
  if (name == "elastic") return OnlinePolicy::kElastic;
  if (name == "replace") return OnlinePolicy::kReplace;
  return std::nullopt;
}

/// --classes: 10 (cifar10-like) or 100 (cifar100-like).
std::optional<SyntheticSpec> parse_classes(const std::string& classes) {
  if (classes == "10") return SyntheticSpec::cifar10_like();
  if (classes == "100") return SyntheticSpec::cifar100_like();
  return std::nullopt;
}

const char* kUsage =
    "usage: $0 [options]\n"
    "       $0 scenario gen|replay|fuzz [options]\n"
    "       $0 sweep [options]\n"
    "       $0 train [options]   (threaded runtime + online controller)\n"
    "       $0 serve|worker [options]\n"
    "options (every subcommand takes '--flag value' or '--flag=value'):\n"
    "  --workers N        cluster size (default 8)\n"
    "  --steps S          minibatch-step budget (default 2048)\n"
    "  --batch B          per-worker batch size (default 64)\n"
    "  --lr ETA           base learning rate (default 0.05)\n"
    "  --momentum MU      momentum (default 0.9)\n"
    "  --policy P         a protocol (bsp | asp | ssp | dssp | k-sync | ...) or\n"
    "                     switch, BSP then ASP (default switch)\n"
    "  --fraction F       BSP fraction before the switch (default 0.0625)\n"
    "  --arch A           resnet32_lite | resnet50_lite | linear | ... (nn/zoo.h)\n"
    "  --classes C        10 (cifar10-like) or 100 (cifar100-like)\n"
    "  --online O         none | greedy | elastic | replace (default none)\n"
    "  --stragglers K     inject K transient stragglers (default 0)\n"
    "  --latency MS       straggler emulated latency in ms (default 30)\n"
    "  --seed X           repetition seed (default 1)\n"
    "  --trace FILE       write a Chrome trace-event JSON of the run\n"
    "  --verbose          info-level logging of switches/evictions\n";

const char* kScenarioUsage =
    "usage: $0 scenario <subcommand> [options]\n"
    "subcommands:\n"
    "  gen      generate a seeded scenario and print it as a trace file\n"
    "  replay   run one scenario (seeded or from a trace) against the\n"
    "           conformance invariants\n"
    "  fuzz     check a whole seed range, printing failing seeds as\n"
    "           copy-pasteable replay commands\n"
    "options (flags take '--flag value' or '--flag=value'):\n"
    "  --seed N            scenario seed (gen/replay; default 1)\n"
    "  --file TRACE        replay a CSV/JSON trace file instead of a seed\n"
    "  --out FILE          gen: write the trace here instead of stdout\n"
    "  --json              gen: emit the JSON trace form (default CSV)\n"
    "  --threaded          replay: also cross-check on the threaded runtime\n"
    "  --seeds N           fuzz: number of seeds to check (default 200)\n"
    "  --start K           fuzz: first seed (default 1)\n"
    "  --threaded-every M  fuzz: threaded cross-check every M-th seed\n"
    "                      (default 25; 0 = simulator only)\n"
    "  --workers N         generator cluster size (default 4)\n"
    "  --steps S           generator step budget (default 256)\n"
    "  --verbose           info-level logging\n";

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
  const std::string sub = argc < 3 ? "" : argv[2];
  if (sub != "gen" && sub != "replay" && sub != "fuzz") usage(argv[0], kScenarioUsage);

  std::uint64_t seed = 1, seeds = 200, start = 1, threaded_every = 25;
  std::string file, out;
  bool json = false, threaded = false;
  ScenarioGenConfig gen_cfg;
  try {
    for (Flags f(argc, argv, 3); f.next();) {
      if (f.is("--seed")) seed = f.u64();
      else if (f.is("--file")) file = f.value();
      else if (f.is("--out")) out = f.value();
      else if (f.is("--json")) json = f.set();
      else if (f.is("--threaded")) threaded = f.set();
      else if (f.is("--seeds")) seeds = f.u64();
      else if (f.is("--start")) start = f.u64();
      else if (f.is("--threaded-every")) threaded_every = f.u64();
      else if (f.is("--workers")) gen_cfg.num_workers = f.u64();
      else if (f.is("--steps")) gen_cfg.total_steps = f.i64();
      else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
    }
  } catch (const ConfigError& e) {
    usage(argv[0], kScenarioUsage, e.what());
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

const char* kSweepUsage =
    "usage: $0 sweep [options]\n"
    "Evaluate a grid of independent configurations across a thread pool.\n"
    "Each simulation is serial and bit-identical to a lone run; only the\n"
    "scheduling across configs is parallel, so results never depend on\n"
    "--jobs.  Flags take '--flag value' or '--flag=value'.\n"
    "grid mode (default): policies x repetition seeds\n"
    "  --policies LIST    comma list of protocols (bsp|asp|ssp|dssp|...) and\n"
    "                     switch (default bsp,asp,ssp,dssp)\n"
    "  --seeds N          repetition seeds per policy (default 8)\n"
    "  --start K          first seed (default 1)\n"
    "  --fraction F       'switch' policy's BSP fraction (default 0.0625)\n"
    "  --workers N        cluster size (default 8)\n"
    "  --steps S          step budget per run (default 512)\n"
    "  --batch B          per-worker batch size (default 64)\n"
    "  --arch A           resnet32_lite | resnet50_lite | linear | ...\n"
    "scenario mode:\n"
    "  --scenario         sweep generated fuzz scenarios for the seed\n"
    "                     range [start, start + seeds) instead of a grid\n"
    "shared:\n"
    "  --jobs J           pool threads (default 0 = all hardware cores)\n"
    "  --cache DIR        shared run-cache directory; hits skip the run\n"
    "                     (concurrent writers are safe: tmp + rename)\n"
    "  --verbose          info-level logging\n";

int sweep_main(int argc, char** argv) {
  std::string policies = "bsp,asp,ssp,dssp";
  std::uint64_t seeds = 8, start = 1, jobs = 0;
  std::string cache_dir;
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

  std::vector<std::string> names;
  std::vector<SyncSwitchPolicy> grid_policies;
  try {
    for (Flags f(argc, argv, 2); f.next();) {
      if (f.is("--policies")) policies = f.value();
      else if (f.is("--seeds")) seeds = f.u64();
      else if (f.is("--start")) start = f.u64();
      else if (f.is("--fraction")) fraction = f.real();
      else if (f.is("--workers")) base.cluster.num_workers = f.u64();
      else if (f.is("--steps")) base.workload.total_steps = f.i64();
      else if (f.is("--batch")) base.workload.hyper.batch_size = f.u64();
      else if (f.is("--arch")) base.workload.arch = f.named(parse_arch);
      else if (f.is("--scenario")) scenario_mode = f.set();
      else if (f.is("--jobs")) jobs = f.u64();
      else if (f.is("--cache")) cache_dir = f.value();
      else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
    }
    for (std::size_t pos = 0; pos < policies.size();) {
      const std::size_t comma = policies.find(',', pos);
      const std::size_t end = comma == std::string::npos ? policies.size() : comma;
      if (end > pos) names.push_back(policies.substr(pos, end - pos));
      pos = end + 1;
    }
    if (names.empty()) throw ConfigError("--policies: no policy named");
    for (const std::string& name : names)
      grid_policies.push_back(lookup("--policies", name, [&](const std::string& n) {
        return parse_policy(n, fraction);
      }));
  } catch (const ConfigError& e) {
    usage(argv[0], kSweepUsage, e.what());
  }
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
    for (std::size_t p = 0; p < names.size(); ++p) {
      for (std::uint64_t s = 0; s < seeds; ++s) {
        RunRequest req = base;
        req.policy = grid_policies[p];
        req.seed = start + s;
        grid.push_back(std::move(req));
        labels.push_back(names[p] + " seed " + std::to_string(start + s));
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

  /// Reads the current flag when it is an obs flag.
  void read(Flags& f) {
    if (f.is("--trace-out")) trace_out = f.value();
    else if (f.is("--metrics-out")) metrics_out = f.value();
    else if (f.is("--log-level")) set_log_level(f.named(parse_log_level));
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

const std::string kObsUsage =
    "observability (off by default; see docs/ARCHITECTURE.md):\n"
    "  --trace-out FILE   record wall-clock spans; write a Chrome trace JSON\n"
    "  --metrics-out FILE record counters/histograms; write Prometheus text\n"
    "  --log-level L      debug | info | warn | error | off (or SS_LOG_LEVEL)\n";

const std::string kTrainUsage =
    "usage: $0 train [options]\n"
    "Train on the real threaded parameter-server runtime (OS threads, one\n"
    "shared PS).  With --controller, the online policy controller runs the\n"
    "simulator as a digital twin at every decision barrier and switches\n"
    "protocol / compression / membership live (docs/CONTROLLER.md).\n"
    "run options (flags take '--flag value' or '--flag=value'):\n"
    "  --workers N        worker threads (default 4)\n"
    "  --steps S          local steps per worker (default 240)\n"
    "  --batch B          per-worker batch size (default 32)\n"
    "  --lr ETA           learning rate (default 0.05)\n"
    "  --momentum MU      momentum (default 0.9)\n"
    "  --protocol P       bsp | asp | ssp starting protocol (default bsp)\n"
    "  --ssp-bound K      SSP staleness bound (default 3)\n"
    "  --shards K         PS shard count (default 1)\n"
    "  --arch A           linear | resnet32_lite | resnet50_lite (default linear)\n"
    "  --classes C        10 or 100 (default 10)\n"
    "  --compress C       none | topk | terngrad | qsgd (default none)\n"
    "  --straggler W      inject a wall-clock straggler on worker slot W\n"
    "  --factor F         straggler slowdown factor (default 8)\n"
    "  --switch-at N      schedule: BSP for the first N (> 0) steps, then ASP\n"
    "  --seed X           run seed (default 99)\n"
    "controller options:\n"
    "  --controller       enable the online controller\n"
    "  --interval I       local steps between decision barriers (default 32)\n"
    "  --min-gain G       min predicted relative gain to move (default 0.10)\n"
    "  --move-gap M       min local steps between enacted moves (default 64)\n"
    "  --target-acc A     twin time-to-accuracy target (default 0.60)\n"
    "  --horizon H        twin simulation horizon in steps (default 192)\n"
    "  --cache DIR        twin run-cache directory (persists across runs)\n"
    "  --evict            let the controller evict the measured straggler\n"
    "  --verbose          info-level logging\n" +
    kObsUsage;

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
  ModelArch arch = ModelArch::kLinear;
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  int straggler = -1;
  double factor = 8.0;
  std::optional<std::int64_t> switch_at;
  ObsFlags obs_flags;
  try {
    for (Flags f(argc, argv, 2); f.next();) {
      if (f.is("--workers")) cfg.num_workers = f.u64();
      else if (f.is("--steps")) cfg.steps_per_worker = f.i64();
      else if (f.is("--batch")) cfg.batch_size = f.u64();
      else if (f.is("--lr")) cfg.lr = f.real();
      else if (f.is("--momentum")) cfg.momentum = f.real();
      else if (f.is("--protocol")) cfg.protocol = f.named(parse_protocol);
      else if (f.is("--ssp-bound")) cfg.ssp_staleness_bound = f.integer();
      else if (f.is("--shards")) cfg.num_ps_shards = f.u64();
      else if (f.is("--arch")) arch = f.named(parse_arch);
      else if (f.is("--classes")) spec = f.named(parse_classes);
      // The spec's defaults are the CLI's codecs: top-k 1%, QSGD 15 levels.
      else if (f.is("--compress")) cfg.compression.kind = f.named(parse_codec_kind);
      else if (f.is("--straggler")) straggler = f.integer();
      else if (f.is("--factor")) factor = f.real();
      else if (f.is("--switch-at")) switch_at = f.i64();
      else if (f.is("--seed")) cfg.seed = f.u64();
      else if (f.is("--controller")) cfg.controller.enabled = f.set();
      else if (f.is("--interval")) cfg.controller.decision_interval = f.i64();
      else if (f.is("--min-gain")) cfg.controller.min_predicted_gain = f.real();
      else if (f.is("--move-gap")) cfg.controller.min_steps_between_moves = f.i64();
      else if (f.is("--target-acc")) cfg.controller.target_accuracy = f.real();
      else if (f.is("--horizon")) cfg.controller.twin_horizon_steps = f.i64();
      else if (f.is("--cache")) cfg.controller.cache_dir = f.value();
      else if (f.is("--evict")) cfg.controller.consider_eviction = f.set();
      else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
      else obs_flags.read(f);
    }
    if (straggler >= 0 && static_cast<std::size_t>(straggler) >= cfg.num_workers)
      throw ConfigError("--straggler: slot " + std::to_string(straggler) +
                        " out of range for " + std::to_string(cfg.num_workers) + " workers");
    if (switch_at && *switch_at <= 0)
      throw ConfigError("--switch-at: the BSP leg needs at least one step");
  } catch (const ConfigError& e) {
    usage(argv[0], kTrainUsage, e.what());
  }
  if (straggler >= 0)
    cfg.stragglers = StragglerSchedule::transient(straggler, VTime::from_seconds(0.0),
                                                  VTime::from_seconds(1e9), factor);
  if (switch_at) cfg.schedule = SwitchSchedule::bsp_to_asp(*switch_at);

  std::cout << "threaded training: " << arch_name(arch) << ", " << cfg.num_workers
            << " worker threads, " << cfg.steps_per_worker << " steps/worker, start protocol "
            << protocol_name(cfg.protocol);
  if (cfg.controller.enabled)
    std::cout << ", controller on (interval " << cfg.controller.decision_interval << ")";
  if (straggler >= 0)
    std::cout << ", straggler on worker " << straggler << " (x" << factor << ")";
  if (switch_at) std::cout << ", switch BSP->ASP at step " << *switch_at;
  std::cout << "\n";

  try {
    spec.train_size = 2048;
    spec.test_size = 512;
    const DataSplit data = make_synthetic(spec);
    Rng rng(21);
    Model model = make_model(arch, spec.feature_dim, spec.num_classes, rng);

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

const std::string kNetUsage =
    "usage: $0 serve [options]   (host the parameter server)\n"
    "       $0 worker [options]  (connect one training worker)\n"
    "serve options (flags take '--flag value' or '--flag=value'):\n"
    "  --listen EP            unix:<path> or tcp:<host>:<port>; tcp port 0 binds an\n"
    "                         ephemeral port (default unix:/tmp/sync_switch_ps.sock)\n"
    "  --workers N            worker processes to admit (default 2)\n"
    "  --steps S              steps per worker (default 100)\n"
    "  --batch B              per-worker batch size (default 32)\n"
    "  --lr ETA               learning rate (default 0.05)\n"
    "  --momentum MU          momentum (default 0.9)\n"
    "  --seed X               run seed, shipped to workers (default 99)\n"
    "  --shards K             PS shard count (default 1)\n"
    "  --snapshot-interval U  PS updates between async snapshots; 0 = run-start\n"
    "                         snapshot only (default 64)\n"
    "  --arch A               linear | resnet32_lite | resnet50_lite (default linear)\n"
    "  --classes C            10 or 100 (default 10)\n"
    "  --compress C           none | topk | terngrad | qsgd (default none)\n"
    "worker options:\n"
    "  --connect EP           server endpoint (default unix:/tmp/sync_switch_ps.sock)\n"
    "  --crash-after N        abruptly disconnect after N steps (recovery testing)\n"
    "both:\n"
    "  --verbose              info-level logging\n" +
    kObsUsage + "  (serve with --metrics-out also logs a metrics line every 5 s)\n";

int serve_main(int argc, char** argv) {
  PsServerConfig cfg;
  cfg.snapshot_interval = 64;
  ObsFlags obs_flags;
  try {
    for (Flags f(argc, argv, 2); f.next();) {
      if (f.is("--listen")) cfg.listen = f.value();
      else if (f.is("--workers")) cfg.num_workers = f.u64();
      else if (f.is("--steps")) cfg.steps_per_worker = f.i64();
      else if (f.is("--batch")) cfg.batch_size = f.u64();
      else if (f.is("--lr")) cfg.lr = f.real();
      else if (f.is("--momentum")) cfg.momentum = f.real();
      else if (f.is("--seed")) cfg.seed = f.u64();
      else if (f.is("--shards")) cfg.num_ps_shards = f.u64();
      else if (f.is("--snapshot-interval")) cfg.snapshot_interval = f.i64();
      else if (f.is("--arch")) cfg.arch = f.named(parse_arch);
      else if (f.is("--classes")) cfg.data = f.named(parse_classes);
      else if (f.is("--compress")) cfg.compression.kind = f.named(parse_codec_kind);
      else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
      else obs_flags.read(f);
    }
  } catch (const ConfigError& e) {
    usage(argv[0], kNetUsage, e.what());
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
  try {
    for (Flags f(argc, argv, 2); f.next();) {
      if (f.is("--connect")) cfg.endpoint = f.value();
      else if (f.is("--crash-after")) cfg.crash_after_steps = f.i64();
      else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
      else obs_flags.read(f);
    }
  } catch (const ConfigError& e) {
    usage(argv[0], kNetUsage, e.what());
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
  req.seed = 1;

  std::string policy = "switch";
  std::string trace_path;
  double fraction = 0.0625;
  int stragglers = 0;
  double latency_ms = 30.0;
  OnlinePolicy online = OnlinePolicy::kNone;
  try {
    for (Flags f(argc, argv, 1); f.next();) {
      if (f.is("--workers")) req.cluster.num_workers = f.u64();
      else if (f.is("--steps")) req.workload.total_steps = f.i64();
      else if (f.is("--batch")) req.workload.hyper.batch_size = f.u64();
      else if (f.is("--lr")) req.workload.hyper.learning_rate = f.real();
      else if (f.is("--momentum")) req.workload.hyper.momentum = f.real();
      else if (f.is("--policy")) policy = f.value();
      else if (f.is("--fraction")) fraction = f.real();
      else if (f.is("--seed")) req.seed = f.u64();
      else if (f.is("--trace")) trace_path = f.value();
      else if (f.is("--stragglers")) stragglers = f.integer();
      else if (f.is("--latency")) latency_ms = f.real();
      else if (f.is("--arch")) req.workload.arch = f.named(parse_arch);
      else if (f.is("--classes")) req.workload.data = f.named(parse_classes);
      else if (f.is("--online")) online = f.named(parse_online);
      else if (f.is("--verbose") && f.set()) set_log_level(LogLevel::kInfo);
    }
    req.policy = lookup("--policy", policy,
                        [&](const std::string& name) { return parse_policy(name, fraction); });
  } catch (const ConfigError& e) {
    usage(argv[0], kUsage, e.what());
  }
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
