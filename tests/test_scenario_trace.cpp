// Scenario engine: trace parsing (src/scenario/trace_replay.h).
//
//  * well-formed CSV and JSON traces parse into equivalent scenarios (the
//    two frontends reduce to the same semantic pass);
//  * write_trace_csv / write_trace_json round-trip a generated scenario to
//    an identical cache key (labels and seed survive the text form);
//  * table-driven error paths: malformed traces — out-of-order steps,
//    unknown worker ids, events past the budget, bad numbers, unknown
//    keys/events — throw ConfigError carrying the "<file>:<line>: <field>:"
//    prefix, and never crash;
//  * a replayed trace is checked against the conformance invariants on both
//    runtimes (check_scenario with run_threaded).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "scenario/generator.h"
#include "scenario/invariants.h"
#include "scenario/trace_replay.h"

namespace ss {
namespace {

constexpr const char* kHeader = "event,at,worker,value,duration";

std::string csv_preamble() {
  return std::string("name,t\nworkers,4\nsteps,256\nseed,9\n") + kHeader + "\n";
}

// ---------------------------------------------------------------------------
// Happy paths.
// ---------------------------------------------------------------------------

TEST(TraceParse, CsvSpotPreemptionScenario) {
  const std::string text =
      "# spot preemption: lose worker 1, get a replacement later\n"
      "name,spot\n"
      "workers,4\n"
      "steps,256\n"
      "seed,7\n"
      "min_workers,2\n"
      "snapshot_interval,32\n"
      "recovery,restore\n" +
      std::string(kHeader) +
      "\n"
      "switch,0,,bsp,\n"
      "switch,64,,ssp,2\n"
      "crash,96,1,,\n"
      "join,160,,,\n"
      "slow,1000000,0,2.5,500000\n";
  const Scenario s = parse_trace_csv(text, "spot.csv");
  EXPECT_EQ(s.name, "spot");
  EXPECT_EQ(s.num_workers, 4u);
  EXPECT_EQ(s.total_steps, 256);
  EXPECT_EQ(s.seed, 7u);
  ASSERT_EQ(s.schedule.size(), 2u);
  EXPECT_EQ(s.schedule.phase(0).protocol, Protocol::kBsp);
  EXPECT_EQ(s.schedule.phase(0).steps, 64);
  EXPECT_EQ(s.schedule.phase(1).protocol, Protocol::kSsp);
  EXPECT_EQ(s.schedule.phase(1).steps, 0);  // final phase runs out the budget
  EXPECT_EQ(s.schedule.phase(1).ssp_staleness_bound, 2);
  ASSERT_EQ(s.elastic.plan.size(), 2u);
  EXPECT_EQ(s.elastic.plan.events()[0].kind, MembershipEventKind::kCrash);
  EXPECT_EQ(s.elastic.plan.events()[0].worker, 1);
  EXPECT_EQ(s.elastic.plan.events()[1].kind, MembershipEventKind::kJoin);
  EXPECT_EQ(s.elastic.snapshot_interval, 32);
  EXPECT_EQ(s.elastic.min_workers, 2u);
  ASSERT_EQ(s.stragglers.events().size(), 1u);
  EXPECT_EQ(s.stragglers.events()[0].start.us(), 1000000);
  EXPECT_EQ(s.stragglers.events()[0].duration.us(), 500000);
  EXPECT_DOUBLE_EQ(s.stragglers.events()[0].slow_factor, 2.5);
}

TEST(TraceParse, JsonParsesTheSameScenarioAsCsv) {
  const std::string csv = csv_preamble() +
                          "switch,0,,asp,\n"
                          "leave,128,3,,\n"
                          "slow,0,2,1.5,250000\n";
  const std::string json =
      "{\"name\": \"t\", \"workers\": 4, \"steps\": 256, \"seed\": 9,\n"
      " \"events\": [\n"
      "   {\"event\": \"switch\", \"at\": 0, \"value\": \"asp\"},\n"
      "   {\"event\": \"leave\", \"at\": 128, \"worker\": 3},\n"
      "   {\"event\": \"slow\", \"at\": 0, \"worker\": 2, \"value\": 1.5, "
      "\"duration\": 250000}\n"
      " ]}\n";
  const Scenario a = parse_trace_csv(csv);
  const Scenario b = parse_trace_json(json);
  EXPECT_EQ(a.to_run_request().cache_key(), b.to_run_request().cache_key());
}

TEST(TraceParse, AutoDetectsJsonByLeadingBrace) {
  const Scenario s = parse_trace("  \n{\"workers\": 2, \"steps\": 64}");
  EXPECT_EQ(s.num_workers, 2u);
  EXPECT_EQ(s.total_steps, 64);
  EXPECT_THROW(parse_trace("   \n  "), ConfigError);  // empty trace
}

TEST(TraceParse, EmptyJsonObjectIsTheDefaultScenario) {
  const Scenario s = parse_trace_json(" { } ");
  EXPECT_EQ(s.total_steps, 256);
  EXPECT_TRUE(s.schedule.empty());
  EXPECT_TRUE(s.elastic.plan.empty());
}

TEST(TraceParse, JsonUnicodeEscapeDecodes) {
  const Scenario s = parse_trace_json("{\"name\": \"\\u0041b\"}", "u.json");
  EXPECT_EQ(s.name, "Ab");
}

TEST(TraceParse, GeneratedScenariosRoundTripThroughBothFormats) {
  // The seed is unsigned: seeds past INT64_MAX survive both forms too.
  const std::uint64_t seeds[] = {1, 7, 13, 42, 99, std::uint64_t{1} << 63, UINT64_MAX};
  for (std::uint64_t seed : seeds) {
    const Scenario s = generate_scenario(seed);
    const std::string key = s.to_run_request().cache_key();
    const Scenario via_csv = parse_trace_csv(write_trace_csv(s));
    EXPECT_EQ(via_csv.to_run_request().cache_key(), key) << "seed " << seed;
    EXPECT_EQ(via_csv.label(), s.label()) << "seed " << seed;
    const Scenario via_json = parse_trace_json(write_trace_json(s));
    EXPECT_EQ(via_json.to_run_request().cache_key(), key) << "seed " << seed;
    EXPECT_EQ(via_json.label(), s.label()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Conformance of a replayed trace.
// ---------------------------------------------------------------------------

TEST(TraceCheck, TwoCrashesInOnePassPassOnBothRuntimes) {
  // Both crashes resolve in one membership pass, whose one restore of the
  // run-start snapshot loses the 96 updates before it, charged once.
  const Scenario s = parse_trace_csv(std::string("workers,4\nsteps,256\nsnapshot_interval,0\n") +
                                     kHeader + "\nswitch,0,,asp,\ncrash,96,1,,\ncrash,96,2,,\n");
  CheckOptions opts;
  opts.run_threaded = true;
  const ScenarioReport rep = check_scenario(s, opts);
  EXPECT_TRUE(rep.threaded_ran);
  EXPECT_TRUE(rep.passed()) << rep.summary();
  EXPECT_EQ(rep.result.updates_lost, 96);
}

// ---------------------------------------------------------------------------
// Error paths: one table for CSV bodies, one for JSON documents.  Every case
// must throw ConfigError whose message carries the expected file:line/field
// fragments — and none may crash.
// ---------------------------------------------------------------------------

struct BadTrace {
  const char* label;     // test-failure tag
  std::string text;      // full trace text
  const char* expect[2]; // fragments the ConfigError message must contain
};

void expect_config_error(const BadTrace& bad, const std::string& filename) {
  try {
    (void)parse_trace(bad.text, filename);
    FAIL() << bad.label << ": parsed without error";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(filename + ":"), std::string::npos)
        << bad.label << ": message lacks the file:line prefix: " << msg;
    for (const char* frag : bad.expect) {
      if (frag == nullptr) continue;
      EXPECT_NE(msg.find(frag), std::string::npos)
          << bad.label << ": message lacks '" << frag << "': " << msg;
    }
  }
}

TEST(TraceParseErrors, MalformedCsvTable) {
  const std::vector<BadTrace> table = {
      {"missing event header", "workers,4\nsteps,64\n", {"header", nullptr}},
      {"unknown preamble key",
       "workres,4\n" + std::string(kHeader) + "\n", {"unknown trace key", "workres"}},
      {"duplicate preamble key",
       "steps,64\nsteps,64\n" + std::string(kHeader) + "\n", {"duplicate", "steps"}},
      {"garbage preamble row",
       "workers,4,extra\n" + std::string(kHeader) + "\n", {"preamble", nullptr}},
      {"non-integer steps",
       "steps,many\n" + std::string(kHeader) + "\n", {"steps", "integer"}},
      {"zero workers", "workers,0\n" + std::string(kHeader) + "\n", {"workers", ">= 1"}},
      {"bad recovery mode",
       "recovery,maybe\n" + std::string(kHeader) + "\n", {"recovery", "restore"}},
      {"unknown event", csv_preamble() + "explode,8,0,,\n", {"unknown event", "explode"}},
      {"first switch not at zero",
       csv_preamble() + "switch,8,,bsp,\n", {"first switch", "step 0"}},
      {"out-of-order switch steps",
       csv_preamble() + "switch,0,,bsp,\nswitch,64,,asp,\nswitch,32,,ssp,\n",
       {"out-of-order switch", nullptr}},
      {"switch past the budget",
       csv_preamble() + "switch,0,,bsp,\nswitch,300,,asp,\n", {"past the", "budget"}},
      {"unknown switch protocol",
       csv_preamble() + "switch,0,,tcp,\n", {"unknown protocol", "tcp"}},
      {"membership at step zero", csv_preamble() + "crash,0,1,,\n", {"at > 0", nullptr}},
      {"membership past the budget",
       csv_preamble() + "leave,256,1,,\n", {"past the", "budget"}},
      {"out-of-order membership steps",
       csv_preamble() + "leave,128,1,,\ncrash,64,2,,\n", {"out-of-order membership", nullptr}},
      {"unknown worker id", csv_preamble() + "crash,64,9,,\n", {"unknown worker id 9", nullptr}},
      {"double crash of one worker",
       csv_preamble() + "crash,64,1,,\ncrash,128,1,,\n", {"unknown worker id 1", nullptr}},
      {"crash of a worker id past INT_MAX",
       csv_preamble() + "crash,32,4294967297,,\n", {"unknown worker id 4294967297", nullptr}},
      {"crash without a worker", csv_preamble() + "crash,64,,,\n", {"crash", "worker"}},
      {"join naming a worker",
       csv_preamble() + "join,64,2,,\n", {"join", "blank"}},
      {"shrinking below min_workers",
       "workers,2\nmin_workers,2\n" + std::string(kHeader) + "\nleave,8,0,,\n",
       {"below min_workers", nullptr}},
      {"slow factor below one", csv_preamble() + "slow,0,1,0.5,1000\n", {"factor", ">= 1"}},
      {"slow unknown worker", csv_preamble() + "slow,0,7,2.0,1000\n", {"unknown worker id 7", nullptr}},
      {"slow without duration", csv_preamble() + "slow,0,1,2.0,\n", {"duration", nullptr}},
      {"slow negative start", csv_preamble() + "slow,-5,1,2.0,1000\n", {">= 0", nullptr}},
      {"too many cells", csv_preamble() + "slow,0,1,2.0,1000,extra\n", {"5 cells", nullptr}},
      {"ssp_bound past INT_MAX",
       "ssp_bound,4294967299\n" + std::string(kHeader) + "\n", {"bad.csv:1: ssp_bound", "outside"}},
      {"negative ssp_bound",
       "ssp_bound,-1\n" + std::string(kHeader) + "\n", {"bad.csv:1: ssp_bound", "outside"}},
      {"switch bound past INT_MAX",
       csv_preamble() + "switch,0,,ssp,4294967299\n", {"duration: staleness bound", "outside"}},
      {"negative switch bound",
       csv_preamble() + "switch,0,,ssp,-2\n", {"duration: staleness bound", "outside"}},
      {"infinite slow factor",
       csv_preamble() + "slow,0,1,inf,1000000\n", {"bad.csv:6: value", "number"}},
      {"NaN slow factor",
       csv_preamble() + "slow,0,1,nan,1000000\n", {"bad.csv:6: value", "number"}},
      {"negative seed", "seed,-1\n" + std::string(kHeader) + "\n", {"bad.csv:1: seed", "integer"}},
  };
  for (const BadTrace& bad : table) expect_config_error(bad, "bad.csv");
}

TEST(TraceParseErrors, MalformedJsonTable) {
  const std::vector<BadTrace> table = {
      {"not an object", "[1, 2]", {"expected '{'", nullptr}},
      {"unterminated object", "{\"workers\": 4", {"expected", nullptr}},
      {"unknown trace key", "{\"wrokers\": 4}", {"unknown trace key", "wrokers"}},
      {"nested object value", "{\"workers\": {\"n\": 4}}", {"string or number", nullptr}},
      {"event missing its kind", "{\"events\": [{\"at\": 4}]}", {"missing the 'event'", nullptr}},
      {"unknown event field",
       "{\"events\": [{\"event\": \"slow\", \"when\": 4}]}", {"unknown event field", "when"}},
      {"unknown event kind",
       "{\"events\": [{\"event\": \"warp\", \"at\": 4}]}", {"unknown event", "warp"}},
      {"switch past budget",
       "{\"steps\": 64, \"events\": [{\"event\": \"switch\", \"at\": 0, \"value\": \"bsp\"},"
       " {\"event\": \"switch\", \"at\": 64, \"value\": \"asp\"}]}",
       {"past the", "budget"}},
      {"unknown worker id",
       "{\"workers\": 2, \"events\": [{\"event\": \"crash\", \"at\": 8, \"worker\": 5}]}",
       {"unknown worker id 5", nullptr}},
      {"crash of a worker id past INT_MAX",
       "{\"events\": [{\"event\": \"crash\", \"at\": 32, \"worker\": 4294967297}]}",
       {"unknown worker id 4294967297", nullptr}},
      {"trailing garbage", "{\"workers\": 4} tail", {"trailing content", nullptr}},
      {"missing comma between members", "{\"workers\": 4 \"steps\": 64}",
       {"bad.json:1: trace", "expected ',' or '}'"}},
      {"comma after the last member", "{\"workers\": 4, }", {"bad.json:1: key", nullptr}},
      {"newline in name", "{\"name\": \"a\\nb\"}", {"name: ", "control character"}},
      {"comma in name", "{\"name\": \"a,b\"}", {"name: ", "comma"}},
      {"name padded with spaces", "{\"name\": \" a \"}", {"name: ", "whitespace"}},
      {"ssp_bound past INT_MAX", "{\"ssp_bound\": 4294967299}", {"bad.json:1: ssp_bound", "outside"}},
      {"negative switch bound",
       "{\"events\": [{\"event\": \"switch\", \"at\": 0, \"value\": \"ssp\", \"duration\": -1}]}",
       {"duration: staleness bound", "outside"}},
      {"bad worker id on line 4 of a multi-line trace",
       "{\"name\": \"t\", \"workers\": 4, \"steps\": 256,\n"
       " \"events\": [\n"
       "  {\"event\": \"switch\", \"at\": 0, \"value\": \"bsp\"},\n"
       "  {\"event\": \"crash\", \"at\": 64, \"worker\": 9}\n"
       " ]}\n",
       {"bad.json:4: worker:", "unknown worker id 9"}},
      {"value on the line after its key", "{\"name\": \"t\",\n \"workers\":\n   0}\n",
       {"bad.json:2: workers:", ">= 1"}},
      {"bare-word value", "{\"recovery\": restore}", {"bad.json:1: recovery", "expected a string"}},
      {"literal value", "{\"workers\": true}", {"bad.json:1: workers", "expected a string"}},
      {"unsupported escape", "{\"name\": \"a\\qb\"}", {"bad.json:1: name", "escape"}},
      {"nesting past the depth bound",
       "{\"events\": " + std::string(100, '[') + std::string(100, ']') + "}",
       {"bad.json:1: events", "nested deeper"}},
      {"non-finite slow factor",
       "{\"events\": [{\"event\": \"slow\", \"at\": 0, \"worker\": 1, \"value\": \"nan\","
       " \"duration\": 1000}]}",
       {"bad.json:1: value", "number"}},
  };
  for (const BadTrace& bad : table) expect_config_error(bad, "bad.json");
}

TEST(TraceParseErrors, ErrorMessagesCarryTheLineNumber) {
  // The crash row sits on line 6 of this trace; the message must say so.
  const std::string text = csv_preamble() + "crash,64,9,,\n";
  try {
    (void)parse_trace_csv(text, "t.csv");
    FAIL() << "parsed without error";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("t.csv:6: worker:"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace ss
