// Pinned determinism corpus: the fixed set of RunRequests whose results are
// recorded as fingerprints and held bit-for-bit across refactors.
//
// The corpus covers all 8 protocols x {1, 8} PS shards x {none, topk}
// compression on the standard tiny workload, a batch of generated fuzz
// scenarios (switching + stragglers + elastic membership composed), and the
// two-phase policy under each online straggler policy (offline, greedy,
// elastic, replace), tuned so that every reaction actually fires.  The
// fingerprint is a 64-bit FNV-1a hash of the max_digits10 run-result text
// serialization, so it covers every scalar and every curve point exactly.
//
// The expected values live in tests/test_determinism.cpp and were recorded
// from the serial (pre-DES-core) engine; `tools/record_determinism_corpus`
// re-prints the table when a deliberate semantic change needs new pins.
//
// A second, smaller corpus pins the threaded runtime (ps/threaded_runtime.h)
// on the runs that are deterministic by construction: BSP aggregates the
// round in slot order whatever the thread timing, and a single worker has no
// interleaving to race.  Its expected values live in
// tests/test_threaded_runtime.cpp; the same tool prints that table too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/run_cache.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/protocol.h"
#include "ps/threaded_runtime.h"
#include "scenario/generator.h"

namespace ss {

struct CorpusCase {
  std::string name;
  RunRequest request;
};

/// The tiny linear-model workload every corpus case runs (mirrors the
/// determinism suite's tiny_request, shortened to 128 steps).
inline RunRequest corpus_base_request() {
  RunRequest req;
  req.workload.arch = ModelArch::kLinear;
  req.workload.data = SyntheticSpec::cifar10_like();
  req.workload.data.num_classes = 3;
  req.workload.data.feature_dim = 16;
  req.workload.data.train_size = 1024;
  req.workload.data.test_size = 512;
  req.workload.data.class_separation = 1.2;
  req.workload.total_steps = 128;
  req.workload.hyper.batch_size = 16;
  req.workload.hyper.learning_rate = 0.05;
  req.workload.hyper.momentum = 0.9;
  req.workload.eval_interval = 32;

  req.cluster.num_workers = 4;
  req.cluster.compute_per_batch = VTime::from_ms(20.0);
  req.cluster.reference_batch = 16;
  req.cluster.compute_jitter_sigma = 0.1;
  req.cluster.net_latency = VTime::from_ms(1.0);
  req.cluster.payload_bytes = 1000.0;
  req.cluster.bandwidth_bps = 1e8;
  req.cluster.sync_base = VTime::from_ms(20.0);
  req.cluster.sync_quad = VTime::from_ms(0.5);
  req.actuator_time_scale = 0.01;
  req.seed = 1;
  return req;
}

/// The online-policy workload: corpus_base_request() stretched to 512 steps,
/// with one 40 ms straggler that starts within the first second and a 4/2
/// detector, so every reaction fires well inside the run.  `permanent`
/// keeps the straggler slow for the whole run; otherwise it clears after
/// ~2 s, which gives greedy its round trip back to BSP.
inline RunRequest online_policy_request(SyncSwitchPolicy policy, OnlinePolicy online,
                                        bool permanent) {
  RunRequest req = corpus_base_request();
  req.workload.total_steps = 512;
  req.policy = policy;
  req.policy.online = online;
  req.policy.detector.window_size = 4;
  req.policy.detector.consecutive_required = 2;
  req.stragglers.num_stragglers = 1;
  req.stragglers.occurrences = 1;
  req.stragglers.extra_latency_ms = 40.0;
  req.stragglers.max_duration =
      permanent ? VTime::from_minutes(600.0) : VTime::from_seconds(2.0);
  req.stragglers.horizon = VTime::from_seconds(1.0);
  return req;
}

/// All 8 protocols x {1, 8} shards x {none, topk(5%)}, 6 generated fuzz
/// scenarios and 9 online-policy runs — 47 cases, each well under a second.
inline std::vector<CorpusCase> determinism_corpus() {
  std::vector<CorpusCase> cases;
  const Protocol protocols[] = {Protocol::kBsp,        Protocol::kAsp,
                                Protocol::kSsp,        Protocol::kDssp,
                                Protocol::kKSync,      Protocol::kKBatchSync,
                                Protocol::kKAsync,     Protocol::kKBatchAsync};
  for (Protocol proto : protocols) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      for (bool topk : {false, true}) {
        RunRequest req = corpus_base_request();
        req.policy = SyncSwitchPolicy::pure(proto);
        req.policy.k_param = 3;  // exercises the K-protocols' cancellation
        req.cluster.num_ps_shards = shards;
        if (topk) req.compression = CompressionSpec::topk(0.05);
        std::string name = std::string(protocol_name(proto)) + "/s" +
                           std::to_string(shards) + (topk ? "/topk" : "/none");
        cases.push_back({std::move(name), std::move(req)});
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    CorpusCase c;
    c.name = "scenario/seed" + std::to_string(seed);
    c.request = generate_scenario(seed).to_run_request();
    cases.push_back(std::move(c));
  }
  const SyncSwitchPolicy half = SyncSwitchPolicy::bsp_to_asp(0.5);
  const SyncSwitchPolicy bsp = SyncSwitchPolicy::pure(Protocol::kBsp);
  const SyncSwitchPolicy asp = SyncSwitchPolicy::pure(Protocol::kAsp);
  RunRequest clean = online_policy_request(half, OnlinePolicy::kGreedy, false);
  clean.stragglers = StragglerScenario{};
  const std::vector<CorpusCase> online = {
      {"online/offline-stragglers", online_policy_request(half, OnlinePolicy::kNone, false)},
      {"online/asp-to-bsp",
       online_policy_request(SyncSwitchPolicy::asp_to_bsp(0.5), OnlinePolicy::kNone, false)},
      {"online/greedy-round-trip", online_policy_request(half, OnlinePolicy::kGreedy, false)},
      {"online/greedy-no-stragglers", clean},
      {"online/greedy-pure-bsp", online_policy_request(bsp, OnlinePolicy::kGreedy, false)},
      {"online/elastic-evict", online_policy_request(half, OnlinePolicy::kElastic, false)},
      {"online/elastic-pure-bsp", online_policy_request(bsp, OnlinePolicy::kElastic, true)},
      {"online/replace-permanent", online_policy_request(half, OnlinePolicy::kReplace, true)},
      {"online/replace-pure-asp", online_policy_request(asp, OnlinePolicy::kReplace, true)},
  };
  cases.insert(cases.end(), online.begin(), online.end());
  return cases;
}

/// 64-bit FNV-1a of `text`, as 16 hex digits.
inline std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// 64-bit FNV-1a over the exact (max_digits10) text serialization: every
/// scalar and curve point of the result contributes every bit.
inline std::string result_fingerprint(const RunResult& result) {
  return fnv1a_hex(serialize_run_result(result));
}

// ---------------------------------------------------------------------------
// Threaded corpus
// ---------------------------------------------------------------------------

struct ThreadedCorpusCase {
  std::string name;
  ThreadedTrainConfig config;
};

/// The tiny 4-class linear problem every threaded case trains on.
inline DataSplit threaded_corpus_data() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 256;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.class_separation = 1.5;
  return make_synthetic(spec);
}

inline Model threaded_corpus_model(const DataSplit& split) {
  Rng rng(11);
  return make_model(ModelArch::kLinear, split.train.feature_dim(), 4, rng);
}

/// Eight cases, 30 local steps each: fixed BSP over 4 shards, BSP with QSGD,
/// scripted join + leave, a crash restored from the run-start snapshot, a
/// leave at a schedule boundary, a one-worker BSP->SSP->ASP schedule with
/// top-k, and a controller run that never moves (with and without derived
/// per-phase lr), so its 7-step intervals and short tail are the only
/// thing it changes.
inline std::vector<ThreadedCorpusCase> threaded_determinism_corpus() {
  ThreadedTrainConfig base;
  base.protocol = Protocol::kBsp;
  base.num_workers = 4;
  base.batch_size = 16;
  base.steps_per_worker = 30;
  base.lr = 0.05;
  std::vector<ThreadedCorpusCase> cases;
  auto add = [&](std::string name, auto edit) {
    ThreadedTrainConfig cfg = base;
    edit(cfg);
    cases.push_back({std::move(name), std::move(cfg)});
  };
  add("bsp/n4/s4", [](ThreadedTrainConfig& c) { c.num_ps_shards = 4; });
  add("bsp/qsgd", [](ThreadedTrainConfig& c) { c.compression = CompressionSpec::qsgd(15); });
  add("bsp/join10-leave20", [](ThreadedTrainConfig& c) {
    c.num_workers = 2;
    c.elastic.plan = MembershipPlan({{MembershipEventKind::kJoin, -1, 10},
                                     {MembershipEventKind::kLeave, 0, 20}});
  });
  add("bsp/crash12-restore", [](ThreadedTrainConfig& c) {
    c.elastic.plan = MembershipPlan::crash(1, 12);
    c.elastic.recovery = RecoveryMode::kRestoreSnapshot;
    c.elastic.snapshot_interval = 0;
  });
  add("schedule/bsp-bsp-leave-at-boundary", [](ThreadedTrainConfig& c) {
    c.schedule = SwitchSchedule::step_switched({{Protocol::kBsp, 15}, {Protocol::kBsp, 0}});
    c.elastic.plan = MembershipPlan::leave(3, 15);
  });
  add("schedule/n1-bsp-ssp-asp-topk", [](ThreadedTrainConfig& c) {
    c.num_workers = 1;
    c.schedule = SwitchSchedule::step_switched(
        {{Protocol::kBsp, 10}, {Protocol::kSsp, 10}, {Protocol::kAsp, 0}});
    c.compression = CompressionSpec::topk(0.1);
  });
  for (const bool derive : {true, false}) {
    add(std::string("controller/hold/") + (derive ? "derive" : "no-derive"),
        [derive](ThreadedTrainConfig& c) {
          c.derive_phase_lr = derive;
          c.controller.enabled = true;
          c.controller.decision_interval = 7;
          c.controller.min_predicted_gain = 1e9;
          c.controller.twin_jobs = 1;
        });
  }
  return cases;
}

/// FNV-1a over everything a threaded run produces that its thread timing
/// cannot move: the bits of the final parameters, the update and byte
/// counters, the snapshots taken, each phase's (protocol, ended_by_trigger,
/// start_step, steps, updates, push_bytes), each membership event's (kind,
/// worker, at_step, workers_after, lr_after bits, updates_lost), each
/// controller decision's (at_step, enacted), and the steps the eval hook
/// saw.
inline std::string threaded_fingerprint(const ThreadedTrainResult& r,
                                        const std::vector<std::int64_t>& eval_steps) {
  std::string text;
  auto put = [&text](long long v) { text += std::to_string(v) + ' '; };
  auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return static_cast<long long>(u);
  };
  for (float p : r.final_params) {
    std::uint32_t u = 0;
    std::memcpy(&u, &p, sizeof(u));
    put(u);
  }
  text += "|";
  put(r.total_updates);
  put(r.push_bytes);
  put(r.snapshots_taken);
  text += "|";
  for (const ThreadedPhaseStats& s : r.phases) {
    put(static_cast<long long>(s.protocol));
    put(s.ended_by_trigger);
    put(s.start_step);
    put(s.steps);
    put(s.updates);
    put(s.push_bytes);
  }
  text += "|";
  for (const ThreadedMembershipStats& m : r.membership) {
    put(static_cast<long long>(m.kind));
    put(m.worker);
    put(m.at_step);
    put(static_cast<long long>(m.workers_after));
    put(bits(m.lr_after));
    put(m.updates_lost);
  }
  text += "|";
  for (const ControllerDecision& d : r.decisions) {
    put(d.at_step);
    put(d.enacted);
  }
  text += "|";
  for (std::int64_t s : eval_steps) put(s);
  return fnv1a_hex(text);
}

/// Run one threaded case on the corpus workload and fingerprint it.
inline std::string run_threaded_case(const ThreadedCorpusCase& c, const DataSplit& split,
                                     const Model& prototype) {
  std::vector<std::int64_t> eval_steps;
  ThreadedTrainConfig cfg = c.config;
  cfg.eval_hook = [&eval_steps](std::int64_t step, double, std::span<const float>) {
    eval_steps.push_back(step);
  };
  return threaded_fingerprint(threaded_train(prototype, split.train, cfg), eval_steps);
}

}  // namespace ss
