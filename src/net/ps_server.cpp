#include "net/ps_server.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "data/batcher.h"
#include "elastic/async_snapshotter.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "ps/param_server.h"

namespace ss {

namespace {

/// Shared server state: the PS, its snapshotter, the cross-process
/// drain barrier and the eviction counters.  The PS carries its own
/// per-shard locks, so pushes from different session threads interleave at
/// shard granularity exactly as worker threads do in-process.  Only the
/// run-start floor, the snapshotter's cadence thread and an eviction's
/// restore touch the snapshots; no frame a worker sends can capture or
/// restore one.
struct ServerState {
  SharedParameterServer ps;
  std::atomic<std::int64_t> total_updates{0};
  AsyncSnapshotter snapshotter;
  /// One arrival per worker: a drain, or an eviction's drop.
  std::barrier<> drain;
  std::atomic<std::size_t> evicted{0};
  std::atomic<std::int64_t> restores{0};
  std::atomic<std::int64_t> updates_lost{0};

  ServerState(std::vector<float> init, double momentum, std::size_t shards,
              std::size_t num_workers, std::int64_t snapshot_interval)
      : ps(std::move(init), momentum, shards),
        snapshotter([this] { return ps.snapshot_checkpoint(updates()); },
                    [this] { return updates(); }, snapshot_interval),
        drain(static_cast<std::ptrdiff_t>(num_workers)) {}

  [[nodiscard]] std::int64_t updates() const {
    return total_updates.load(std::memory_order_relaxed);
  }
};

/// Evict `worker` after its connection died: roll the PS back to the last
/// snapshot (the paper's recovery semantics — bounded loss, no version
/// rollback), then leave the drain barrier for good, which may complete it
/// for the survivors.  Called once, by the worker's own session, and only if
/// it never drained.
void evict_worker(ServerState& state, std::uint32_t worker, std::size_t num_workers,
                  const std::string& why) {
  const std::size_t evicted = state.evicted.fetch_add(1) + 1;
  const std::optional<std::int64_t> lost = state.snapshotter.restore_latest(
      [&state](const Checkpoint& snap) { state.ps.restore(snap); });
  if (lost) {
    ++state.restores;
    state.updates_lost += *lost;
  }
  log_info("ps_server: evicted worker ", worker, " (", why, "); restored snapshot, ",
           lost.value_or(0), " updates lost, ", num_workers - evicted, " workers remain");
  state.drain.arrive_and_drop();
}

/// One worker session: serve frames until the worker leaves (Bye), the
/// connection dies (eviction), or the run completes.
///
/// Errors split two ways.  A frame whose header fails validation or whose
/// length passes its type's bound, and any I/O failure, is a transport
/// error: the stream cannot be trusted, so the worker is evicted.  A frame
/// that arrives whole but decodes badly (wrong counts, a short payload, an
/// unexpected type) is a request error: it is answered with an Error frame
/// and the session continues.
void serve_session(ServerState& state, Socket sock, std::uint32_t worker,
                   const AssignmentMsg& assignment) {
  SharedParameterServer& ps = state.ps;
  if (obs::enabled()) {
    // The session thread serves exactly one worker slot: pin its wire spans
    // to that worker's trace row instead of an auto-assigned one.
    obs::set_thread_track(static_cast<int>(worker) + 1);
    if (obs::tracing())
      obs::tracer().set_track_name(static_cast<int>(worker) + 1,
                                   "session worker " + std::to_string(worker));
  }
  const WireShape shape{ps.num_params(), ps.num_shards()};
  // Session-owned buffers, sized once.  A pull copies the parameters into
  // `params` under the shard locks (the one copy that must stay) and sends
  // them from there; a dense push lands in `grad` straight off the socket.
  // A push-and-pull request does both: its push is applied, then pulled
  // into `params`, and the one reply carries both results.  Replies
  // reference these buffers, so they outlive each send.
  std::vector<float> params(shape.num_params);
  std::vector<float> grad(shape.num_params);
  std::vector<std::int64_t> versions;
  CompressedPush compressed;
  std::vector<std::uint8_t> payload;
  ErrorMsg error;
  bool drained = false;
  try {
    FrameHeader req;
    while (recv_frame_header(sock, req, shape)) {
      const bool dense_push =
          (req.type == MsgType::kPushDense || req.type == MsgType::kPushPullDense) &&
          req.payload_bytes == push_dense_bytes(shape);
      recv_payload(sock, req, payload,
                   dense_push ? std::as_writable_bytes(std::span(grad)) : std::span<std::byte>{});
      FrameOut reply(MsgType::kOk);
      // A plain push is answered with its staleness; a push-and-pull request
      // with its staleness and the parameters pulled right after it.
      auto push_reply = [&](std::int64_t staleness) {
        state.total_updates.fetch_add(1, std::memory_order_relaxed);
        if (req.type == MsgType::kPushDense || req.type == MsgType::kPushCompressed)
          return PushReplyMsg{staleness}.encode();
        ps.pull_with_versions(params, versions);
        return PushPullReplyMsg{staleness, versions, params}.encode();
      };
      try {
        switch (req.type) {
          case MsgType::kPull: {
            ps.pull_with_versions(params, versions);
            reply = PullReplyMsg{versions, params}.encode();
            break;
          }
          case MsgType::kPushDense:
          case MsgType::kPushPullDense: {
            if (!dense_push)
              throw NetError(std::string(msg_type_name(req.type)) + ": payload of " +
                             std::to_string(req.payload_bytes) +
                             " bytes, the assigned shape needs " +
                             std::to_string(push_dense_bytes(shape)));
            const double lr = PushDenseMsg::decode_prefix(payload, shape, versions);
            reply = push_reply(ps.push(grad, lr, versions));
            break;
          }
          case MsgType::kPushCompressed:
          case MsgType::kPushPullCompressed: {
            // Decode validated the push; the PS checks only its length
            // against its own (ConfigError, answered below with an Error frame).
            const auto [lr, push] = PushCompressedMsg::decode(payload, versions, compressed);
            reply = push_reply(ps.push_compressed(push, lr, versions));
            break;
          }
          case MsgType::kDrainArrive: {
            (void)DrainArriveMsg::decode(payload);
            // A repeat from a session that already drained is answered at
            // once: arriving twice would park it for a phase no one completes.
            if (!drained) state.drain.arrive_and_wait();
            drained = true;
            DrainReleaseMsg out;
            out.done = true;  // the v1 deployment drains once, at the quota
            reply = out.encode();
            break;
          }
          case MsgType::kBye:
            return;
          case MsgType::kHello: {
            // Re-greeting an assigned session is a protocol error, but a
            // recoverable one: re-send the assignment.
            reply = assignment.encode();
            break;
          }
          default:
            throw NetError("ps_server: unexpected message type " +
                           std::to_string(static_cast<std::uint16_t>(req.type)));
        }
      } catch (const std::exception& e) {
        // Request-level failure: report to the worker, keep the session.
        error.message = e.what();
        reply = error.encode();
      }
      send_frame(sock, reply);
    }
    // Clean EOF without Bye: treat as a lost worker unless it already
    // drained (some clients just close after the release).
    if (!drained) evict_worker(state, worker, assignment.num_workers, "connection closed");
  } catch (const NetError& e) {
    // Transport failure (dead socket mid-frame, send to a killed peer, a
    // header past its bound).
    if (!drained) evict_worker(state, worker, assignment.num_workers, e.what());
  }
}

}  // namespace

PsServerResult run_ps_server(const PsServerConfig& cfg) {
  if (cfg.num_workers == 0) throw ConfigError("run_ps_server: num_workers must be > 0");
  if (cfg.steps_per_worker <= 0) throw ConfigError("run_ps_server: steps must be > 0");
  if (cfg.snapshot_interval < 0)
    throw ConfigError("run_ps_server: snapshot_interval must be >= 0");
  if (cfg.metrics_period_seconds < 0.0)
    throw ConfigError("run_ps_server: metrics_period_seconds must be >= 0");
  if (cfg.batch_size == 0) throw ConfigError("run_ps_server: batch_size must be > 0");

  // The server builds the model only for its initial parameters and the
  // final evaluation, and the data only for that evaluation: the test split.
  // All gradient math happens in the worker processes, each on its own
  // train shard.
  Rng model_rng(cfg.seed);
  const Dataset test = make_synthetic_test(cfg.data);
  Model model = make_model(cfg.arch, cfg.data.feature_dim, cfg.data.num_classes, model_rng);
  // Every worker shards the train split the same way; one that cannot be
  // split would fail every worker after it joins.
  (void)make_shards(cfg.data.train_size, cfg.num_workers);

  ServerState state(model.get_params(), cfg.momentum, cfg.num_ps_shards, cfg.num_workers,
                    cfg.snapshot_interval);
  state.snapshotter.snapshot_now();  // run-start floor: recovery always has one
  const WireShape shape{state.ps.num_params(), state.ps.num_shards()};

  AssignmentMsg assignment;
  assignment.num_workers = cfg.num_workers;
  assignment.num_params = state.ps.num_params();
  assignment.num_shards = state.ps.num_shards();
  assignment.steps_per_worker = cfg.steps_per_worker;
  assignment.batch_size = cfg.batch_size;
  assignment.lr = cfg.lr;
  assignment.momentum = cfg.momentum;
  assignment.seed = cfg.seed;
  assignment.arch = cfg.arch;
  assignment.compression = cfg.compression;
  assignment.data = cfg.data;

  Listener listener = listen_endpoint(cfg.listen);
  log_info("ps_server: listening on ", listener.endpoint(), " for ", cfg.num_workers,
           " workers (", state.ps.num_params(), " params, ", state.ps.num_shards(),
           " shards)");
  if (cfg.on_listening) cfg.on_listening(listener.endpoint());

  // Observability: a compact metrics line on a wall-clock cadence while the
  // run is live (off unless the CLI armed metrics and set a period), plus
  // one final line at exit.  Counters come from the wire layer's registry
  // entries; registering here (create-if-absent) keeps the reads safe even
  // before the first frame lands.
  const bool metrics_on = obs::enabled() && cfg.metrics_period_seconds > 0.0;
  auto log_metrics_line = [&state](const char* tag) {
    auto& reg = obs::metrics();
    log_info("ps_server: metrics", tag,
             " updates=", state.updates(),
             " frames_rx=", reg.counter("ss_net_frames_received_total").value(),
             " bytes_rx=", reg.counter("ss_net_bytes_received_total").value(),
             " frames_tx=", reg.counter("ss_net_frames_sent_total").value(),
             " bytes_tx=", reg.counter("ss_net_bytes_sent_total").value());
  };
  std::mutex metrics_mu;
  std::condition_variable metrics_cv;
  bool metrics_stop = false;
  std::thread metrics_thread;
  if (metrics_on) {
    metrics_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(metrics_mu);
      while (!metrics_cv.wait_for(lock,
                                  std::chrono::duration<double>(cfg.metrics_period_seconds),
                                  [&] { return metrics_stop; }))
        log_metrics_line("");
    });
  }

  // Admission: the first num_workers connections that complete the Hello
  // handshake get slots 0..n-1.  Sessions start serving immediately — ASP
  // workers train while later slots are still joining.
  std::vector<std::thread> sessions;
  sessions.reserve(cfg.num_workers);
  std::size_t joined = 0;
  while (joined < cfg.num_workers) {
    Socket sock = listener.accept();
    Frame hello;
    try {
      if (!recv_frame(sock, hello, shape) || hello.type != MsgType::kHello) continue;
      const HelloMsg msg = HelloMsg::decode(hello.payload);
      if (msg.protocol_version != kFrameVersion) {
        ErrorMsg err;
        err.message = "protocol version mismatch";
        send_frame(sock, err.encode());
        continue;
      }
      const auto worker = static_cast<std::uint32_t>(joined);
      AssignmentMsg own = assignment;
      own.worker = worker;
      send_frame(sock, own.encode());
      log_info("ps_server: worker ", worker, " joined");
      sessions.emplace_back([&state, sock = std::move(sock), worker, own]() mutable {
        serve_session(state, std::move(sock), worker, own);
      });
      ++joined;
    } catch (const NetError& e) {
      log_warn("ps_server: rejected connection: ", e.what());
    }
  }
  listener.close();  // fixed worker set: no late admissions in v1

  for (auto& t : sessions) t.join();
  state.snapshotter.stop();
  if (metrics_thread.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(metrics_mu);
      metrics_stop = true;
    }
    metrics_cv.notify_all();
    metrics_thread.join();
  }
  if (obs::enabled()) log_metrics_line(" final");  // dump-on-exit

  PsServerResult result;
  result.total_updates = state.updates();
  result.workers_joined = joined;
  result.workers_evicted = state.evicted;
  result.snapshots_restored = state.restores;
  result.updates_lost = state.updates_lost;
  result.final_params.resize(state.ps.num_params());
  state.ps.pull(result.final_params);
  model.set_params(result.final_params);
  result.final_accuracy = model.evaluate_accuracy(test);
  return result;
}

}  // namespace ss
