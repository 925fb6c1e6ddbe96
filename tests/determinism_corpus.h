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
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/run_cache.h"
#include "core/session.h"
#include "ps/protocol.h"
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

/// 64-bit FNV-1a over the exact (max_digits10) text serialization: every
/// scalar and curve point of the result contributes every bit.
inline std::string result_fingerprint(const RunResult& result) {
  const std::string text = serialize_run_result(result);
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace ss
