#include "replica.h"

#include <exception>
#include <future>
#include <iostream>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "compress/bank.h"
#include "data/batcher.h"
#include "harness.h"
#include "net/inproc_transport.h"
#include "net/socket_transport.h"
#include "obs/obs.h"
#include "ps/threaded_runtime.h"

namespace e2e {

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  steps += o.steps;
  wall_s += o.wall_s;
  batch_s += o.batch_s;
  grad_s += o.grad_s;
  encode_s += o.encode_s;
  pull_s += o.pull_s;
  push_s += o.push_s;
  return *this;
}

double LayerTotals::us(double total_s) const {
  return steps > 0 ? 1e6 * total_s / static_cast<double>(steps) : 0.0;
}

double LayerTotals::residual_share() const {
  if (wall_s <= 0.0) return 0.0;
  return (wall_s - batch_s - grad_s - encode_s - pull_s - push_s) / wall_s;
}

namespace {

struct WorkerInputs {
  ss::Model model;
  ss::MinibatchSampler sampler;
  ss::Rng codec_rng;
};

/// One replica worker: `steps` ASP steps through `tx`, every layer call
/// recorded as a span on `track` and summed into the returned totals.
LayerTotals worker_loop(ss::Transport& tx, const ss::Dataset& train, WorkerInputs in,
                        ss::CompressorBank* bank, std::size_t worker, std::int64_t steps,
                        double lr, const char* pull_name, const char* push_name, int track) {
  auto& tr = ss::obs::tracer();
  const std::size_t p = tx.num_params();
  std::vector<float> params(p);
  std::vector<float> grad(p);
  std::vector<std::int64_t> versions;
  std::vector<std::uint32_t> indices;
  ss::Tensor x({in.sampler.batch_size(), train.feature_dim()});
  std::vector<int> y;
  LayerTotals t;
  const int w = static_cast<int>(worker);
  const Clock::time_point start = Clock::now();
  for (std::int64_t step = 0; step < steps; ++step) {
    const Clock::time_point t0 = Clock::now();
    tx.pull_with_versions(params, versions);
    const Clock::time_point t1 = Clock::now();
    in.sampler.next_batch(indices);
    train.gather(indices, x, y);
    const Clock::time_point t2 = Clock::now();
    in.model.gradient_at(params, x, y, grad);
    const Clock::time_point t3 = Clock::now();
    Clock::time_point t4 = t3;
    if (bank != nullptr) {
      const ss::CompressedPush push = bank->encode(w, grad, in.codec_rng);
      t4 = Clock::now();
      (void)tx.push_compressed(push, lr, versions);
    } else {
      (void)tx.push(grad, lr, versions);
    }
    const Clock::time_point t5 = Clock::now();

    // Recorded after the step closes, so tracer cost lands between steps
    // rather than inside any layer.
    auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
      const std::int64_t a_us = tr.to_us(a);
      tr.complete(track, name, a_us, tr.to_us(b) - a_us,
                  {ss::obs::arg("worker", w), ss::obs::arg("step", step)});
      return std::chrono::duration<double>(b - a).count();
    };
    (void)span("bench.step", t0, t5);
    t.pull_s += span(pull_name, t0, t1);
    t.batch_s += span("data.batch", t1, t2);
    t.grad_s += span("nn.grad", t2, t3);
    if (bank != nullptr) t.encode_s += span("compress.encode", t3, t4);
    t.push_s += span(push_name, t4, t5);
    ++t.steps;
  }
  t.wall_s = seconds_since(start);
  return t;
}

}  // namespace

ReplicaResult replica_inproc(const ss::Model& prototype, const ss::Dataset& train,
                             std::size_t workers, std::int64_t steps, std::size_t batch,
                             double lr, std::size_t shards, const ss::CompressionSpec& compression,
                             std::uint64_t seed, int first_track) {
  ss::SharedParameterServer ps(prototype.get_params(), /*momentum=*/0.9, shards);
  ss::InProcTransport tx(ps);
  std::optional<ss::CompressorBank> bank = compression.make_bank(workers);
  ss::Rng root(seed);
  const auto shard_specs = ss::make_shards(train.size(), workers);
  std::vector<WorkerInputs> inputs;
  for (std::size_t w = 0; w < workers; ++w) {
    ss::MinibatchSampler sampler(shard_specs[w], batch, root.fork(w + 1));
    inputs.push_back(WorkerInputs{prototype.clone(), std::move(sampler),
                                  root.fork(workers + 1 + w)});
  }

  std::vector<LayerTotals> totals(workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::jthread> threads;  // joined on every path out of here
  for (std::size_t w = 0; w < workers; ++w) {
    ss::obs::tracer().set_track_name(first_track + static_cast<int>(w),
                                     "replica worker " + std::to_string(w));
    threads.emplace_back([&, w] {
      try {
        totals[w] = worker_loop(tx, train, std::move(inputs[w]), bank ? &*bank : nullptr, w,
                                steps, lr, "ps.pull", "ps.push", first_track + static_cast<int>(w));
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  ReplicaResult r;
  for (const auto& t : totals) r.totals += t;
  r.failures = check_finite(ps.snapshot(), "replica PS");
  return r;
}

Served serve(ss::PsServerConfig cfg,
             const std::function<void(const std::string& endpoint, std::size_t i)>& worker) {
  std::promise<std::string> listening;
  std::future<std::string> endpoint = listening.get_future();
  cfg.on_listening = [&listening](const std::string& ep) { listening.set_value(ep); };
  Served served;
  std::exception_ptr server_error;
  const Clock::time_point t0 = Clock::now();
  std::jthread server_thread([&] {
    try {
      served.result = ss::run_ps_server(cfg);
    } catch (...) {
      server_error = std::current_exception();
      try {
        listening.set_exception(server_error);  // failed before listening
      } catch (const std::future_error&) {
      }
    }
  });

  std::vector<std::exception_ptr> errors(cfg.num_workers);
  std::string ep;  // declared before the threads that read it, so it outlives them
  std::vector<std::jthread> threads;
  std::exception_ptr connect_error;
  Clock::time_point t1 = Clock::now();
  try {
    ep = endpoint.get();
    t1 = Clock::now();
    served.listen_s = std::chrono::duration<double>(t1 - t0).count();
    for (std::size_t i = 0; i < cfg.num_workers; ++i) {
      threads.emplace_back([&, i] {
        try {
          worker(ep, i);
        } catch (const std::exception& e) {
          // Said now: the server keeps waiting for this worker, so the run
          // may never get to rethrow it.
          std::cerr << "bench_e2e: socket worker " << i << ": " << e.what() << "\n";
          errors[i] = std::current_exception();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
  } catch (...) {
    connect_error = std::current_exception();
  }
  for (auto& t : threads) t.join();
  server_thread.join();
  served.run_s = seconds_since(t1);
  if (server_error) std::rethrow_exception(server_error);
  if (connect_error) std::rethrow_exception(connect_error);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return served;
}

ReplicaResult replica_socket(ss::PsServerConfig server, const ss::Model& prototype,
                             const ss::Dataset& train, int first_track) {
  std::vector<LayerTotals> totals(server.num_workers);
  const Served served = serve(server, [&](const std::string& ep, std::size_t i) {
    ss::AssignmentMsg a;
    ss::SocketTransport tx(ep, a);
    const std::size_t w = a.worker;
    const auto shard_specs = ss::make_shards(train.size(), a.num_workers);
    ss::Rng root(a.seed);
    ss::MinibatchSampler sampler(shard_specs[w], a.batch_size, root.fork(w + 1));
    WorkerInputs in{prototype.clone(), std::move(sampler), root.fork(a.num_workers + 1 + w)};
    const int track = first_track + static_cast<int>(w);
    ss::obs::tracer().set_track_name(track, "replica worker " + std::to_string(w));
    totals[i] = worker_loop(tx, train, std::move(in), nullptr, w, a.steps_per_worker, a.lr,
                            "net.pull", "net.push", track);
    (void)tx.drain_arrive(a.steps_per_worker);
    tx.bye();
  });

  ReplicaResult r;
  for (const auto& t : totals) r.totals += t;
  const std::int64_t expected =
      static_cast<std::int64_t>(server.num_workers) * server.steps_per_worker;
  if (served.result.total_updates != expected)
    r.failures.push_back("replica server applied " + std::to_string(served.result.total_updates) +
                         " updates, expected " + std::to_string(expected));
  if (served.result.workers_evicted != 0) r.failures.push_back("replica server evicted a worker");
  for (auto& f : check_finite(served.result.final_params, "replica PS"))
    r.failures.push_back(std::move(f));
  return r;
}

}  // namespace e2e
