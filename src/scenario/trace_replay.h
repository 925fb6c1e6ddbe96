// Trace replay: the trace-driven half of the scenario engine.
//
// A trace file describes one composed scenario — cluster preemptions
// (crash/leave/join), diurnal or contention slowdowns (slow episodes), and
// the protocol plan reacting to them — in either of two equivalent forms:
//
// CSV (preamble of `key,value` rows, then an `event,at,worker,value,duration`
// header, then one row per event):
//
//     # spot-preemption trace: lose worker 1 at step 96, replace at 160
//     name,spot-preempt
//     workers,4
//     steps,256
//     seed,7
//     event,at,worker,value,duration
//     switch,0,,bsp,
//     switch,64,,ssp,2
//     crash,96,1,,
//     join,160,,,
//     slow,1000000,0,2.5,500000
//
// JSON (same keys; events as an array of objects):
//
//     {"name": "spot-preempt", "workers": 4, "steps": 256, "seed": 7,
//      "events": [{"event": "switch", "at": 0, "value": "bsp"},
//                 {"event": "crash", "at": 96, "worker": 1}]}
//
// Field semantics (see docs/EXPERIMENTS.md for the full spec):
//  * preamble keys: name, workers, steps, seed, ssp_bound, min_workers,
//    snapshot_interval, recovery (restore|keep).  Unknown keys are errors.
//  * switch rows: `at` = sim step the phase starts (first must be 0,
//    strictly increasing), `value` = protocol name, optional `duration` =
//    per-phase SSP bound.  Phase lengths are the gaps between boundaries;
//    the final phase runs out the budget.
//  * crash/leave/join rows: `at` = sim step (0 < at < steps,
//    non-decreasing); crash/leave name an alive worker slot, joins claim
//    the next slot automatically.
//  * slow rows: `at`/`duration` in integral virtual microseconds, `value` =
//    slowdown factor (>= 1), `worker` in [0, workers).
//  * numbers are plain decimals read by common/parse.h (no '+', no hex, no
//    inf/nan); `seed` is unsigned, so every uint64 seed round-trips.
//
// Every parse error throws ConfigError with "<file>:<line>: <field>: why" —
// malformed traces never crash, which is what the table-driven error-path
// suite (tests/test_scenario_trace.cpp) pins.
#pragma once

#include <string>

#include "scenario/scenario.h"

namespace ss {

/// Parse a CSV trace.  `filename` only decorates error messages.
[[nodiscard]] Scenario parse_trace_csv(const std::string& text,
                                       const std::string& filename = "<trace>");

/// Parse a JSON trace (through parse_json, common/json.h).  `filename` only
/// decorates error messages.
[[nodiscard]] Scenario parse_trace_json(const std::string& text,
                                        const std::string& filename = "<trace>");

/// Auto-detect: JSON when the first non-whitespace byte is '{', else CSV.
[[nodiscard]] Scenario parse_trace(const std::string& text,
                                   const std::string& filename = "<trace>");

/// Read and parse a trace file (auto-detected format).  Throws ConfigError
/// when the file cannot be read.
[[nodiscard]] Scenario load_trace_file(const std::string& path);

/// Serialize a scenario as a CSV / JSON trace.  parse(write(s)) reproduces a
/// scenario with an identical cache key (the round-trip property the trace
/// suite checks).
[[nodiscard]] std::string write_trace_csv(const Scenario& s);
[[nodiscard]] std::string write_trace_json(const Scenario& s);

}  // namespace ss
