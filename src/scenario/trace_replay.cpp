#include "scenario/trace_replay.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/parse.h"

namespace ss {

namespace {

constexpr const char* kEventHeader = "event,at,worker,value,duration";

/// "<file>:<line>: <field>", the label every trace error starts with; the
/// number readers (common/parse.h) take it as their flag name.
std::string where(const std::string& file, int line, const std::string& field) {
  return file + ":" + std::to_string(line) + ": " + field;
}

[[noreturn]] void fail(const std::string& file, int line, const std::string& field,
                       const std::string& why) {
  throw ConfigError(where(file, line, field) + ": " + why);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// One cell of an event row: raw text plus whether the trace supplied it.
struct Field {
  std::string value;
  bool set = false;
};

struct EventRow {
  int line = 0;
  std::string event;
  Field at, worker, value, duration;
};

struct MetaValue {
  std::string value;
  int line = 0;
};

/// Format-independent parse product; both frontends reduce to this and the
/// shared semantic pass builds the Scenario.
struct RawTrace {
  std::map<std::string, MetaValue> meta;
  std::vector<EventRow> rows;
};

/// A staleness bound: an integer in [0, INT_MAX].  `label` is a where().
int parse_bound(const std::string& label, const std::string& text) {
  const std::int64_t v = parse_i64(label, text);
  if (v < 0 || v > std::numeric_limits<int>::max())
    throw ConfigError(label + ": staleness bound " + std::to_string(v) + " is outside [0, " +
                      std::to_string(std::numeric_limits<int>::max()) + "]");
  return static_cast<int>(v);
}

// --- CSV frontend ----------------------------------------------------------

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(trim(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(trim(cell));
  return cells;
}

RawTrace read_csv(const std::string& text, const std::string& file) {
  RawTrace raw;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  bool in_events = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::vector<std::string> cells = split_csv(stripped);
    if (!in_events) {
      if (lower(stripped) == kEventHeader) {
        in_events = true;
        continue;
      }
      if (cells.size() != 2)
        fail(file, lineno, "preamble",
             "expected a 'key,value' row or the '" + std::string(kEventHeader) + "' header");
      const std::string key = lower(cells[0]);
      if (raw.meta.count(key)) fail(file, lineno, key, "duplicate preamble key");
      raw.meta[key] = {cells[1], lineno};
      continue;
    }
    if (cells.size() > 5)
      fail(file, lineno, "row", "expected at most 5 cells (event,at,worker,value,duration)");
    cells.resize(5);
    EventRow row;
    row.line = lineno;
    row.event = lower(cells[0]);
    auto cell = [](const std::string& s) { return Field{s, !s.empty()}; };
    row.at = cell(cells[1]);
    row.worker = cell(cells[2]);
    row.value = cell(cells[3]);
    row.duration = cell(cells[4]);
    raw.rows.push_back(std::move(row));
  }
  if (!in_events)
    fail(file, lineno == 0 ? 1 : lineno, "trace",
         "missing the '" + std::string(kEventHeader) + "' header row");
  return raw;
}

// --- JSON frontend ---------------------------------------------------------
//
// A walk over the parsed document (common/json.h), which already carries
// every value's line: an object of scalars plus an "events" array of flat
// objects.

const std::string& json_scalar(const JsonValue& v, const std::string& file,
                               const std::string& field) {
  if (v.kind == JsonValue::Kind::kObject || v.kind == JsonValue::Kind::kArray)
    fail(file, v.line, field, "expected a string or number value");
  return v.text;
}

EventRow read_json_event(const JsonValue& ev, const std::string& file) {
  if (ev.kind != JsonValue::Kind::kObject) fail(file, ev.line, "events", "expected '{'");
  EventRow row;
  row.line = ev.line;
  for (const JsonMember& m : ev.object) {
    const std::string key = lower(m.key);
    const std::string& value = json_scalar(m.value, file, key);
    Field* cell = key == "at"         ? &row.at
                  : key == "worker"   ? &row.worker
                  : key == "value"    ? &row.value
                  : key == "duration" ? &row.duration
                                      : nullptr;
    if (key == "event")
      row.event = lower(value);
    else if (cell != nullptr)
      *cell = {value, true};
    else
      fail(file, m.line, key, "unknown event field (want event/at/worker/value/duration)");
  }
  if (row.event.empty())
    fail(file, row.line, "events", "event object is missing the 'event' field");
  return row;
}

RawTrace read_json(const std::string& text, const std::string& file) {
  const JsonValue doc = parse_json(text, file, "trace");
  if (doc.kind != JsonValue::Kind::kObject) fail(file, doc.line, "trace", "expected '{'");
  RawTrace raw;
  for (const JsonMember& m : doc.object) {
    const std::string key = lower(m.key);
    if (key == "events") {
      if (m.value.kind != JsonValue::Kind::kArray) fail(file, m.value.line, key, "expected '['");
      for (const JsonValue& ev : m.value.array) raw.rows.push_back(read_json_event(ev, file));
      continue;
    }
    if (raw.meta.count(key)) fail(file, m.line, key, "duplicate trace key");
    raw.meta[key] = {json_scalar(m.value, file, key), m.line};
  }
  return raw;
}

// --- Shared semantic pass --------------------------------------------------

Scenario build_scenario(const RawTrace& raw, const std::string& file) {
  Scenario s;
  s.name = "trace";

  // A preamble value read by `parse` (a common/parse.h reader), or `fallback`.
  auto meta = [&](const char* key, auto parse, auto fallback) -> decltype(fallback) {
    const auto it = raw.meta.find(key);
    if (it == raw.meta.end()) return fallback;
    return parse(where(file, it->second.line, key), it->second.value);
  };
  for (const auto& [key, mv] : raw.meta)
    if (key != "name" && key != "workers" && key != "steps" && key != "seed" &&
        key != "ssp_bound" && key != "min_workers" && key != "snapshot_interval" &&
        key != "recovery")
      fail(file, mv.line, key, "unknown trace key");
  if (auto it = raw.meta.find("name"); it != raw.meta.end()) {
    // The CSV writer emits the name as one bare cell, which the CSV reader
    // trims and splits on commas: only a name that survives that round-trips.
    const std::string& name = it->second.value;
    const bool bad_char = std::any_of(name.begin(), name.end(), [](char c) {
      return c == ',' || std::iscntrl(static_cast<unsigned char>(c));
    });
    if (bad_char || name != trim(name))
      fail(file, it->second.line, "name",
           "must not contain a comma or a control character, or start or end with whitespace");
    s.name = name;
  }
  s.num_workers = meta("workers", parse_u64, s.num_workers);
  if (s.num_workers < 1) fail(file, raw.meta.at("workers").line, "workers", "must be >= 1");
  s.total_steps = meta("steps", parse_i64, s.total_steps);
  if (s.total_steps < 1) fail(file, raw.meta.at("steps").line, "steps", "must be >= 1");
  s.seed = meta("seed", parse_u64, s.seed);
  s.ssp_staleness_bound = meta("ssp_bound", parse_bound, s.ssp_staleness_bound);
  s.elastic.min_workers = meta("min_workers", parse_u64, s.elastic.min_workers);
  s.elastic.snapshot_interval = meta("snapshot_interval", parse_i64, std::int64_t{0});
  if (s.elastic.snapshot_interval < 0)
    fail(file, raw.meta.at("snapshot_interval").line, "snapshot_interval", "must be >= 0");
  if (auto it = raw.meta.find("recovery"); it != raw.meta.end()) {
    const std::string mode = lower(trim(it->second.value));
    if (mode == "restore")
      s.elastic.recovery = RecoveryMode::kRestoreSnapshot;
    else if (mode == "keep")
      s.elastic.recovery = RecoveryMode::kKeepLive;
    else
      fail(file, it->second.line, "recovery", "want 'restore' or 'keep', got '" + mode + "'");
  }

  // Event pass.  Switch boundaries, membership feasibility, and straggler
  // episodes are each validated against the running state so every error
  // names the offending row.
  struct Boundary {
    std::int64_t at;
    Protocol protocol;
    int bound;
  };
  std::vector<Boundary> boundaries;
  std::vector<MembershipEvent> events;
  std::vector<StragglerEvent> episodes;
  std::vector<int> alive;
  for (std::size_t w = 0; w < s.num_workers; ++w) alive.push_back(static_cast<int>(w));
  std::size_t joins = 0;
  std::int64_t last_membership_at = 0;
  const std::size_t floor = std::max<std::size_t>(s.elastic.min_workers, 1);

  for (const EventRow& row : raw.rows) {
    if (row.event == "switch") {
      if (!row.at.set) fail(file, row.line, "at", "switch rows need a start step");
      if (!row.value.set) fail(file, row.line, "value", "switch rows need a protocol");
      Boundary b;
      b.at = parse_i64(where(file, row.line, "at"), row.at.value);
      const std::optional<Protocol> protocol = parse_protocol(row.value.value);
      if (!protocol) fail(file, row.line, "value", "unknown protocol '" + row.value.value + "'");
      b.protocol = *protocol;
      b.bound = row.duration.set
                    ? parse_bound(where(file, row.line, "duration"), row.duration.value)
                    : -1;
      if (boundaries.empty() && b.at != 0)
        fail(file, row.line, "at", "the first switch row must start at step 0");
      if (!boundaries.empty() && b.at <= boundaries.back().at)
        fail(file, row.line, "at",
             "out-of-order switch step " + std::to_string(b.at) + " (previous phase starts at " +
                 std::to_string(boundaries.back().at) + ")");
      if (b.at >= s.total_steps)
        fail(file, row.line, "at",
             "switch at step " + std::to_string(b.at) + " is past the " +
                 std::to_string(s.total_steps) + "-step budget");
      boundaries.push_back(b);
    } else if (row.event == "crash" || row.event == "leave" || row.event == "join") {
      if (!row.at.set) fail(file, row.line, "at", row.event + " rows need a step");
      const std::int64_t at = parse_i64(where(file, row.line, "at"), row.at.value);
      if (at <= 0) fail(file, row.line, "at", "membership events must have at > 0");
      if (at >= s.total_steps)
        fail(file, row.line, "at",
             row.event + " at step " + std::to_string(at) + " is past the " +
                 std::to_string(s.total_steps) + "-step budget");
      if (at < last_membership_at)
        fail(file, row.line, "at",
             "out-of-order membership step " + std::to_string(at) + " (previous event at " +
                 std::to_string(last_membership_at) + ")");
      last_membership_at = at;
      MembershipEvent ev;
      ev.at_step = at;
      if (row.event == "join") {
        if (row.worker.set && trim(row.worker.value) != "-1")
          fail(file, row.line, "worker",
               "join rows must leave the worker blank (slots are assigned in join order)");
        ev.kind = MembershipEventKind::kJoin;
        ev.worker = -1;
        alive.push_back(static_cast<int>(s.num_workers + joins));
        ++joins;
      } else {
        if (!row.worker.set) fail(file, row.line, "worker", row.event + " rows need a worker");
        const std::int64_t w = parse_i64(where(file, row.line, "worker"), row.worker.value);
        auto it = std::find(alive.begin(), alive.end(), w);  // compared in 64 bits
        if (w < 0 || it == alive.end())
          fail(file, row.line, "worker",
               "unknown worker id " + std::to_string(w) + " (not alive at step " +
                   std::to_string(at) + ")");
        if (alive.size() <= floor)
          fail(file, row.line, "worker",
               row.event + " would shrink the cluster below min_workers=" +
                   std::to_string(floor));
        ev.kind = row.event == "crash" ? MembershipEventKind::kCrash : MembershipEventKind::kLeave;
        ev.worker = static_cast<int>(w);
        alive.erase(it);
      }
      events.push_back(ev);
    } else if (row.event == "slow") {
      if (!row.at.set) fail(file, row.line, "at", "slow rows need a start time (microseconds)");
      if (!row.worker.set) fail(file, row.line, "worker", "slow rows need a worker");
      if (!row.value.set) fail(file, row.line, "value", "slow rows need a slowdown factor");
      if (!row.duration.set)
        fail(file, row.line, "duration", "slow rows need a duration (microseconds)");
      StragglerEvent ev;
      const std::int64_t w = parse_i64(where(file, row.line, "worker"), row.worker.value);
      if (w < 0 || w >= static_cast<std::int64_t>(s.num_workers))
        fail(file, row.line, "worker",
             "unknown worker id " + std::to_string(w) + " (cluster has " +
                 std::to_string(s.num_workers) + " initial workers)");
      ev.worker = static_cast<int>(w);
      const std::int64_t start_us = parse_i64(where(file, row.line, "at"), row.at.value);
      if (start_us < 0) fail(file, row.line, "at", "slow start must be >= 0 microseconds");
      ev.start = VTime::from_us(start_us);
      const std::int64_t dur_us = parse_i64(where(file, row.line, "duration"), row.duration.value);
      if (dur_us <= 0) fail(file, row.line, "duration", "slow duration must be > 0 microseconds");
      ev.duration = VTime::from_us(dur_us);
      ev.slow_factor = parse_double(where(file, row.line, "value"), row.value.value);
      if (ev.slow_factor < 1.0) fail(file, row.line, "value", "slow factor must be >= 1");
      episodes.push_back(ev);
    } else {
      fail(file, row.line, "event",
           "unknown event '" + row.event + "' (want switch/crash/leave/join/slow)");
    }
  }

  if (!boundaries.empty()) {
    std::vector<SwitchPhase> phases;
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
      SwitchPhase p;
      p.protocol = boundaries[i].protocol;
      p.trigger = SwitchTrigger::kStepCount;
      p.ssp_staleness_bound = boundaries[i].bound;
      p.steps = i + 1 < boundaries.size() ? boundaries[i + 1].at - boundaries[i].at : 0;
      phases.push_back(p);
    }
    s.schedule = SwitchSchedule(std::move(phases));
  }
  if (!events.empty()) s.elastic.plan = MembershipPlan(std::move(events));
  if (!episodes.empty()) s.stragglers = StragglerSchedule(std::move(episodes));
  return s;
}

}  // namespace

Scenario parse_trace_csv(const std::string& text, const std::string& filename) {
  return build_scenario(read_csv(text, filename), filename);
}

Scenario parse_trace_json(const std::string& text, const std::string& filename) {
  return build_scenario(read_json(text, filename), filename);
}

Scenario parse_trace(const std::string& text, const std::string& filename) {
  // A .json filename settles the format; otherwise sniff the first
  // non-whitespace byte (JSON traces are single objects, so '{').
  const bool named_json =
      filename.size() >= 5 && filename.rfind(".json") == filename.size() - 5;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return (named_json || c == '{') ? parse_trace_json(text, filename)
                                    : parse_trace_csv(text, filename);
  }
  throw ConfigError(filename + ":1: trace: empty trace");
}

Scenario load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_trace(buf.str(), path);
}

std::string write_trace_csv(const Scenario& s) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "# sync-switch scenario trace\n";
  os << "name," << s.name << "\n";
  os << "workers," << s.num_workers << "\n";
  os << "steps," << s.total_steps << "\n";
  os << "seed," << s.seed << "\n";
  os << "ssp_bound," << s.ssp_staleness_bound << "\n";
  os << "min_workers," << s.elastic.min_workers << "\n";
  os << "snapshot_interval," << s.elastic.snapshot_interval << "\n";
  os << "recovery," << (s.elastic.recovery == RecoveryMode::kKeepLive ? "keep" : "restore")
     << "\n";
  os << kEventHeader << "\n";
  std::int64_t at = 0;
  for (const SwitchPhase& p : s.schedule.phases()) {
    os << "switch," << at << ",," << lower(protocol_name(p.protocol)) << ",";
    if (p.ssp_staleness_bound >= 0) os << p.ssp_staleness_bound;
    os << "\n";
    at += p.steps;
  }
  for (const MembershipEvent& e : s.elastic.plan.events()) {
    switch (e.kind) {
      case MembershipEventKind::kCrash:
        os << "crash," << e.at_step << "," << e.worker << ",,\n";
        break;
      case MembershipEventKind::kLeave:
        os << "leave," << e.at_step << "," << e.worker << ",,\n";
        break;
      case MembershipEventKind::kJoin:
        os << "join," << e.at_step << ",,,\n";
        break;
    }
  }
  for (const StragglerEvent& e : s.stragglers.events())
    os << "slow," << e.start.us() << "," << e.worker << "," << e.slow_factor << ","
       << e.duration.us() << "\n";
  return os.str();
}

std::string write_trace_json(const Scenario& s) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n";
  os << "  \"name\": \"" << json_escape(s.name) << "\",\n";
  os << "  \"workers\": " << s.num_workers << ",\n";
  os << "  \"steps\": " << s.total_steps << ",\n";
  os << "  \"seed\": " << s.seed << ",\n";
  os << "  \"ssp_bound\": " << s.ssp_staleness_bound << ",\n";
  os << "  \"min_workers\": " << s.elastic.min_workers << ",\n";
  os << "  \"snapshot_interval\": " << s.elastic.snapshot_interval << ",\n";
  os << "  \"recovery\": \""
     << (s.elastic.recovery == RecoveryMode::kKeepLive ? "keep" : "restore") << "\",\n";
  os << "  \"events\": [";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  std::int64_t at = 0;
  for (const SwitchPhase& p : s.schedule.phases()) {
    sep();
    os << "    {\"event\": \"switch\", \"at\": " << at << ", \"value\": \""
       << lower(protocol_name(p.protocol)) << "\"";
    if (p.ssp_staleness_bound >= 0) os << ", \"duration\": " << p.ssp_staleness_bound;
    os << "}";
    at += p.steps;
  }
  for (const MembershipEvent& e : s.elastic.plan.events()) {
    sep();
    os << "    {\"event\": \"" << membership_event_name(e.kind) << "\", \"at\": " << e.at_step;
    if (e.kind != MembershipEventKind::kJoin) os << ", \"worker\": " << e.worker;
    os << "}";
  }
  for (const StragglerEvent& e : s.stragglers.events()) {
    sep();
    os << "    {\"event\": \"slow\", \"at\": " << e.start.us() << ", \"worker\": " << e.worker
       << ", \"value\": " << e.slow_factor << ", \"duration\": " << e.duration.us() << "}";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace ss
