// The worker process's step loop.  Each step is one exchange with the
// server: the push of step k carries a request for the parameters of step
// k+1, and the server answers both in one reply (WorkerSlot::
// push_pull_gradient over SocketTransport::push_pull).  Only step 0 pulls on
// its own, and only the last step pushes without asking for parameters it
// would not use.  The PS sees the same push/pull sequence as the threaded
// runtime's pull_gradient + push loop, so a one-worker run lands on the
// same bits.
#include "net/worker_process.h"

#include <chrono>
#include <optional>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "compress/bank.h"
#include "data/synthetic.h"
#include "net/socket_transport.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "ps/worker_slot.h"

namespace ss {

WorkerProcessResult run_worker_process(const WorkerProcessConfig& cfg) {
  AssignmentMsg a;
  SocketTransport tx(cfg.endpoint, a);
  const auto w = static_cast<std::size_t>(a.worker);
  const bool obs_on = obs::enabled();
  obs::Counter* m_steps = nullptr;
  if (obs_on) {
    m_steps = &obs::metrics().counter("ss_worker_steps_total",
                                      "Pull->gradient->push cycles completed");
    if (obs::tracing())
      obs::tracer().set_track_name(static_cast<int>(w) + 1,
                                   "worker " + std::to_string(w));
    obs::set_thread_track(static_cast<int>(w) + 1);
  }
  log_info("worker ", a.worker, ": joined ", cfg.endpoint, " (", a.num_params,
           " params, quota ", a.steps_per_worker, " steps)");

  // Rebuild the run's inputs from the assignment alone: only the train rows
  // this slot samples, no test split.  The model is built with the same
  // seed the server used, though only its shape matters: gradients are
  // taken at the pulled parameters, not the local ones.
  const ShardSpec shard = WorkerSlot::shard(a.data.train_size, w, a.num_workers);
  const Dataset train = make_synthetic_train(a.data, shard.begin, shard.end);
  Rng model_rng(a.seed);
  Model model = make_model(a.arch, a.data.feature_dim, a.data.num_classes, model_rng);
  if (model.num_params() != a.num_params)
    throw NetError("worker: model has " + std::to_string(model.num_params()) +
                   " params but the server assigned " + std::to_string(a.num_params));
  std::optional<CompressorBank> bank = a.compression.make_bank(a.num_workers);
  CompressorBank* codec = bank ? &*bank : nullptr;
  WorkerSlot slot(std::move(model), train, a.batch_size, a.seed, w, a.num_workers);

  WorkerProcessResult result;
  result.worker = a.worker;
  std::int64_t staleness_sum = 0;
  for (std::int64_t step = 0; step < a.steps_per_worker; ++step) {
    if (step == cfg.crash_after_steps) {
      log_warn("worker ", a.worker, ": simulated crash after ", step, " steps");
      return result;  // transport destructor closes the socket abruptly
    }
    const auto step_start = obs_on ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    if (step == 0) slot.pull_gradient(tx);
    const WorkerSlot::Push push = step + 1 < a.steps_per_worker
                                      ? slot.push_pull_gradient(tx, codec, a.lr)
                                      : slot.push(tx, codec, a.lr);
    result.push_bytes += push.bytes;
    staleness_sum += push.staleness;
    ++result.steps;
    if (obs_on) {
      m_steps->add();
      if (obs::tracing()) {
        auto& tr = obs::tracer();
        const auto t1 = std::chrono::steady_clock::now();
        tr.complete(static_cast<int>(w) + 1, "step", tr.to_us(step_start),
                    tr.to_us(t1) - tr.to_us(step_start), {obs::arg("step", step)});
      }
    }
  }
  if (result.steps > 0)
    result.mean_staleness = static_cast<double>(staleness_sum) / static_cast<double>(result.steps);

  result.drained = tx.drain_arrive(result.steps);
  tx.bye();
  log_info("worker ", a.worker, ": drained after ", result.steps, " steps");
  return result;
}

}  // namespace ss
