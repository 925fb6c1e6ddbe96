#include "net/socket_transport.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/bank.h"
#include "data/synthetic.h"
#include "net/inproc_transport.h"
#include "net/ps_server.h"
#include "net/socket.h"
#include "net/worker_process.h"
#include "nn/zoo.h"
#include "ps/param_server.h"
#include "ps/threaded_runtime.h"
#include "ps/worker_slot.h"

namespace ss {
namespace {

// The multi-process deployment, in-process: run_ps_server on one thread and
// run_worker_process / raw SocketTransport clients on others, talking over
// real sockets.  (The ctest `multiprocess` label covers genuine process
// death with SIGKILL; these tests cover the protocol and recovery logic
// where gtest can assert on both ends' results.)

SyntheticSpec tiny_spec() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 256;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.class_separation = 1.5;
  return spec;
}

/// The socket benchmark's model width: a linear model over 1024 features
/// and 100 classes has 102,500 parameters, a 410 KB dense frame.
SyntheticSpec wide_spec() {
  SyntheticSpec spec = tiny_spec();
  spec.feature_dim = 1024;
  spec.num_classes = 100;
  return spec;
}

std::string unique_unix_endpoint(int n) {
  return "unix:/tmp/ss_net_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(n) + ".sock";
}

/// run_ps_server on its own thread; endpoint() blocks until it listens (so
/// tcp port 0 is resolved) or rethrows a failure before listening, join()
/// returns the result or rethrows.
class ServerHandle {
 public:
  explicit ServerHandle(PsServerConfig cfg) {
    auto listening = std::make_shared<std::promise<std::string>>();
    endpoint_ = listening->get_future();
    cfg.on_listening = [listening](const std::string& ep) { listening->set_value(ep); };
    thread_ = std::thread([this, cfg, listening] {
      try {
        result_ = run_ps_server(cfg);
      } catch (...) {
        error_ = std::current_exception();
        try {
          listening->set_exception(error_);  // failed before listening
        } catch (const std::future_error&) {
        }
      }
    });
  }

  [[nodiscard]] std::string endpoint() { return endpoint_.get(); }

  PsServerResult join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return result_;
  }

 private:
  std::thread thread_;
  std::future<std::string> endpoint_;
  PsServerResult result_;
  std::exception_ptr error_;
};

std::future<WorkerProcessResult> launch_worker(const std::string& endpoint,
                                               std::int64_t crash_after = -1) {
  return std::async(std::launch::async, [endpoint, crash_after] {
    WorkerProcessConfig cfg;
    cfg.endpoint = endpoint;
    cfg.crash_after_steps = crash_after;
    return run_worker_process(cfg);
  });
}

/// A hand-driven client: the Hello handshake, returning the assignment.
AssignmentMsg raw_hello(Socket& sock) {
  send_frame(sock, HelloMsg{}.encode());
  Frame reply;
  if (!recv_frame(sock, reply) || reply.type != MsgType::kAssignment)
    throw NetError("raw_hello: no assignment");
  return AssignmentMsg::decode(reply.payload);
}

/// The frame's bytes in wire order (for sending forged or partial frames).
std::vector<std::uint8_t> flatten(const FrameOut& f) {
  FrameOut::Parts parts;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0, n = f.gather(parts); i < n; ++i)
    out.insert(out.end(), parts[i].begin(), parts[i].end());
  return out;
}

void send_raw(Socket& sock, std::span<const std::uint8_t> bytes) {
  sock.send_parts(std::span(&bytes, 1));
}

TEST(NetTransport, UnixEndToEndMatchesInProcessAccuracy) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(1);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 60;
  cfg.batch_size = 32;
  cfg.lr = 0.1;
  cfg.seed = 99;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  auto w0 = launch_worker(ep);
  auto w1 = launch_worker(ep);
  const WorkerProcessResult r0 = w0.get();
  const WorkerProcessResult r1 = w1.get();
  const PsServerResult res = server.join();

  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 0u);
  EXPECT_EQ(res.total_updates, 120);  // ASP: every push is an update
  EXPECT_NE(r0.worker, r1.worker);
  EXPECT_EQ(r0.steps, 60);
  EXPECT_EQ(r1.steps, 60);
  EXPECT_TRUE(r0.drained);
  EXPECT_TRUE(r1.drained);

  // Same run in-process (same seed, data, model init — the worker processes
  // mirror the threaded runtime's RNG streams): the socket deployment must
  // land in the same accuracy band.
  const DataSplit split = make_synthetic(cfg.data);
  Rng model_rng(cfg.seed);
  Model proto = make_model(cfg.arch, split.train.feature_dim(),
                           cfg.data.num_classes, model_rng);
  const double before = proto.evaluate_accuracy(split.test);
  ThreadedTrainConfig tcfg;
  tcfg.protocol = Protocol::kAsp;
  tcfg.num_workers = 2;
  tcfg.steps_per_worker = 60;
  tcfg.batch_size = 32;
  tcfg.lr = 0.1;
  tcfg.seed = 99;
  const auto inproc = threaded_train(proto, split.train, tcfg);
  Model trained = proto.clone();
  trained.set_params(inproc.final_params);
  const double inproc_acc = trained.evaluate_accuracy(split.test);

  EXPECT_GT(res.final_accuracy, before + 0.2);
  EXPECT_NEAR(res.final_accuracy, inproc_acc, 0.2);
}

// One step, two transports: a single worker has no peer to interleave with,
// so its ASP run is deterministic on both paths, and the worker process over
// a socket must land on exactly the parameters and wire bytes a worker
// thread over the in-process PS does.
TEST(NetTransport, SingleWorkerSocketRunMatchesThreadedRunBitForBit) {
  int endpoint_id = 20;
  for (const CompressionSpec& compression :
       {CompressionSpec::none(), CompressionSpec::topk(0.05)}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(codec_kind_name(compression.kind) + " x " + std::to_string(shards) +
                   " shards");
      PsServerConfig cfg;
      cfg.listen = unique_unix_endpoint(endpoint_id++);
      cfg.num_workers = 1;
      cfg.steps_per_worker = 50;
      cfg.batch_size = 16;
      cfg.lr = 0.1;
      cfg.seed = 31;
      cfg.num_ps_shards = shards;
      cfg.compression = compression;
      cfg.data = tiny_spec();
      ServerHandle server(cfg);
      const WorkerProcessResult remote = launch_worker(server.endpoint()).get();
      const PsServerResult res = server.join();
      ASSERT_TRUE(remote.drained);
      ASSERT_EQ(remote.steps, 50);

      const DataSplit split = make_synthetic(cfg.data);
      Rng model_rng(cfg.seed);
      const Model proto = make_model(cfg.arch, split.train.feature_dim(),
                                     cfg.data.num_classes, model_rng);
      ThreadedTrainConfig tcfg;
      tcfg.protocol = Protocol::kAsp;
      tcfg.num_workers = 1;
      tcfg.steps_per_worker = cfg.steps_per_worker;
      tcfg.batch_size = cfg.batch_size;
      tcfg.lr = cfg.lr;
      tcfg.momentum = cfg.momentum;
      tcfg.seed = cfg.seed;
      tcfg.num_ps_shards = shards;
      tcfg.compression = compression;
      const ThreadedTrainResult local = threaded_train(proto, split.train, tcfg);

      EXPECT_EQ(remote.push_bytes, local.push_bytes);
      ASSERT_EQ(res.final_params.size(), local.final_params.size());
      EXPECT_EQ(std::memcmp(res.final_params.data(), local.final_params.data(),
                            local.final_params.size() * sizeof(float)),
                0);
    }
  }
}

TEST(NetTransport, TcpPortZeroResolvesAndServes) {
  PsServerConfig cfg;
  cfg.listen = "tcp:127.0.0.1:0";
  cfg.num_workers = 1;
  cfg.steps_per_worker = 15;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  EXPECT_EQ(ep.rfind("tcp:127.0.0.1:", 0), 0u) << ep;
  EXPECT_NE(ep, "tcp:127.0.0.1:0");  // the kernel-assigned port is resolved
  const WorkerProcessResult r = launch_worker(ep).get();
  const PsServerResult res = server.join();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(res.total_updates, 15);
}

TEST(NetTransport, CrashedWorkerIsEvictedAndSnapshotRestored) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(2);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 40;
  cfg.snapshot_interval = 8;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  auto survivor = launch_worker(ep);
  auto crasher = launch_worker(ep, /*crash_after=*/5);
  const WorkerProcessResult rc = crasher.get();
  const WorkerProcessResult rs = survivor.get();
  const PsServerResult res = server.join();

  EXPECT_EQ(rc.steps, 5);
  EXPECT_FALSE(rc.drained);  // abrupt close: no drain, no Bye
  EXPECT_EQ(rs.steps, 40);
  EXPECT_TRUE(rs.drained);   // the drain completes over the survivors
  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 1u);
  EXPECT_GE(res.snapshots_restored, 1);
  EXPECT_GE(res.updates_lost, 0);
  // Rolled-back updates are still counted as applied; the survivor's quota
  // is a floor on the total.
  EXPECT_GE(res.total_updates, 40);
}

TEST(NetTransport, TransportRpcsRoundTripAgainstLiveServer) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(3);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 10;
  cfg.seed = 42;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);

  AssignmentMsg a;
  SocketTransport tx(server.endpoint(), a);
  EXPECT_EQ(a.worker, 0u);
  EXPECT_EQ(a.num_workers, 1u);
  EXPECT_EQ(a.steps_per_worker, 10);
  ASSERT_EQ(tx.num_params(), a.num_params);
  ASSERT_GT(tx.num_params(), 0u);

  // Initial pull matches the model the server built from the shared seed.
  const DataSplit split = make_synthetic(cfg.data);
  Rng model_rng(cfg.seed);
  const Model reference = make_model(a.arch, split.train.feature_dim(),
                                     cfg.data.num_classes, model_rng);
  std::vector<float> params(tx.num_params());
  std::vector<std::int64_t> versions;
  tx.pull_with_versions(params, versions);
  EXPECT_EQ(params, reference.get_params());
  ASSERT_EQ(versions.size(), tx.num_shards());
  for (std::int64_t v : versions) EXPECT_EQ(v, 0);

  // Dense push -> versions advance; staleness against a fresh pull is 0.
  const std::vector<float> grad(tx.num_params(), 0.25f);
  EXPECT_EQ(tx.push(grad, 0.05, versions), 0);
  tx.pull_with_versions(params, versions);
  EXPECT_EQ(versions, std::vector<std::int64_t>(tx.num_shards(), 1));
  EXPECT_EQ(tx.push(grad, 0.05, versions), 0);
  tx.pull_with_versions(params, versions);
  EXPECT_EQ(versions, std::vector<std::int64_t>(tx.num_shards(), 2));

  // push_pull: the push applies, and the reply carries the parameters and
  // versions a pull right after it reads.
  EXPECT_EQ(tx.push_pull(grad, 0.05, params, versions), 0);
  EXPECT_EQ(versions, std::vector<std::int64_t>(tx.num_shards(), 3));
  std::vector<float> pulled(tx.num_params());
  std::vector<std::int64_t> pulled_versions;
  tx.pull_with_versions(pulled, pulled_versions);
  EXPECT_EQ(pulled, params);
  EXPECT_EQ(pulled_versions, versions);

  EXPECT_TRUE(tx.drain_arrive(10));
  tx.bye();
  const PsServerResult res = server.join();
  EXPECT_EQ(res.workers_joined, 1u);
  EXPECT_EQ(res.workers_evicted, 0u);
  EXPECT_EQ(res.final_params, params);
}

TEST(NetTransport, RetiredRestoreRequestCannotRewriteTheParameters) {
  // Type 12 once restored the whole PS from a serialized checkpoint.  It is
  // retired: a peer sending it, with a well-formed checkpoint behind it, is
  // evicted, and the parameters it carried never land — neither for the
  // honest worker pulling next nor in the final parameters.
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(31);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 10;
  cfg.seed = 42;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  AssignmentMsg a;
  SocketTransport honest(ep, a);
  Socket forger = connect_endpoint(ep);
  (void)raw_hello(forger);
  const DataSplit split = make_synthetic(cfg.data);
  Rng model_rng(cfg.seed);
  const std::vector<float> initial =
      make_model(a.arch, split.train.feature_dim(), cfg.data.num_classes, model_rng)
          .get_params();

  // The body type 12 once carried, a serialized checkpoint: magic "SSSW",
  // version 2, step, parameter and velocity counts, the two vectors, then a
  // flat shard layout (one shard, no versions).
  const std::uint32_t head[2] = {0x53535357, 2};
  const std::uint64_t counts[3] = {0, a.num_params, a.num_params};
  const std::vector<float> forged_params(a.num_params, 7.0f);
  const std::vector<float> forged_velocity(a.num_params, 0.0f);
  const std::uint64_t layout[2] = {1, 0};
  std::vector<std::uint8_t> body;
  auto put = [&body](const void* src, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    body.insert(body.end(), bytes, bytes + n);
  };
  put(head, sizeof(head));
  put(counts, sizeof(counts));
  put(forged_params.data(), forged_params.size() * sizeof(float));
  put(forged_velocity.data(), forged_velocity.size() * sizeof(float));
  put(layout, sizeof(layout));
  std::vector<std::uint8_t> frame = flatten(FrameOut(MsgType::kOk));
  const std::uint16_t restore_request = 12;
  const std::uint64_t length = body.size();
  std::memcpy(frame.data() + 6, &restore_request, sizeof(restore_request));
  std::memcpy(frame.data() + 8, &length, sizeof(length));
  frame.insert(frame.end(), body.begin(), body.end());
  send_raw(forger, frame);
  Frame reply;
  try {
    EXPECT_FALSE(recv_frame(forger, reply));  // the server hung up...
  } catch (const NetError&) {
    // ...or reset the connection over the payload it never read.
  }

  std::vector<float> params(a.num_params);
  std::vector<std::int64_t> versions;
  honest.pull_with_versions(params, versions);
  EXPECT_EQ(params, initial);
  forger.close();
  EXPECT_TRUE(honest.drain_arrive(0));
  honest.bye();
  const PsServerResult res = server.join();
  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 1u);
  EXPECT_EQ(res.total_updates, 0);
  EXPECT_EQ(res.final_params, initial);
}

TEST(NetTransport, RepeatDrainArriveIsAnsweredAtOnce) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(30);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 1;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  AssignmentMsg a0;
  AssignmentMsg a1;
  SocketTransport tx0(ep, a0);
  SocketTransport tx1(ep, a1);
  auto first = std::async(std::launch::async, [&tx0] { return tx0.drain_arrive(0); });
  EXPECT_TRUE(tx1.drain_arrive(0));
  EXPECT_TRUE(first.get());

  // Both sessions have drained.  A repeat must be answered `done` at once:
  // arriving at the barrier a second time would park the session for good.
  auto again = std::async(std::launch::async, [&tx0] { return tx0.drain_arrive(0); });
  ASSERT_EQ(again.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "a repeat DrainArrive parked its session";
  EXPECT_TRUE(again.get());
  EXPECT_TRUE(tx1.drain_arrive(0));
  tx0.bye();
  tx1.bye();
  const PsServerResult res = server.join();
  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 0u);
}

TEST(NetTransport, ServerRejectsAConfigEveryWorkerWouldReject) {
  PsServerConfig zero_batch;
  zero_batch.listen = unique_unix_endpoint(31);
  zero_batch.batch_size = 0;
  zero_batch.data = tiny_spec();
  PsServerConfig tiny_split = zero_batch;
  tiny_split.listen = unique_unix_endpoint(32);
  tiny_split.batch_size = 4;
  tiny_split.num_workers = 3;
  tiny_split.data.train_size = 2;  // fewer examples than workers
  for (const PsServerConfig& cfg : {zero_batch, tiny_split}) {
    SCOPED_TRACE(cfg.listen);
    ServerHandle server(cfg);
    std::string ep;
    try {
      ep = server.endpoint();
    } catch (const ConfigError&) {
    }
    if (!ep.empty()) {
      // The server is listening on a config no worker can train on: let every
      // worker join and fail, so the run ends and the assertion below reports.
      std::vector<std::future<WorkerProcessResult>> workers;
      for (std::size_t i = 0; i < cfg.num_workers; ++i) workers.push_back(launch_worker(ep));
      for (auto& w : workers) EXPECT_THROW(w.get(), ConfigError);
    }
    EXPECT_THROW(server.join(), ConfigError);
  }
}

TEST(NetTransport, ServerRejectsProtocolVersionMismatch) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(4);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 5;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();

  {
    // A client from "the future" must be turned away before it can touch the
    // run — and must not consume the worker slot.
    Socket sock = connect_endpoint(ep);
    HelloMsg hello;
    hello.protocol_version = 99;
    send_frame(sock, hello.encode());
    Frame reply;
    ASSERT_TRUE(recv_frame(sock, reply));
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(ErrorMsg::decode(reply.payload).message, "protocol version mismatch");
  }

  const WorkerProcessResult r = launch_worker(ep).get();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(server.join().workers_joined, 1u);
}

TEST(NetTransport, CompressedPushesTrainOverTheWire) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(9);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 40;
  cfg.compression = CompressionSpec::topk(0.25);
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  auto w0 = launch_worker(ep);
  auto w1 = launch_worker(ep);
  const WorkerProcessResult r0 = w0.get();
  const WorkerProcessResult r1 = w1.get();
  const PsServerResult res = server.join();
  EXPECT_TRUE(r0.drained);
  EXPECT_TRUE(r1.drained);
  EXPECT_EQ(res.total_updates, 80);
  EXPECT_EQ(res.workers_evicted, 0u);
  // Top-k 25% prices well under a dense push.
  const auto dense = static_cast<std::int64_t>(40 * sizeof(float) * res.final_params.size());
  EXPECT_LT(r0.push_bytes, dense);
  EXPECT_LT(r1.push_bytes, dense);
}

TEST(NetTransport, SparsePushAppliesOnlyItsCoordinates) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(10);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 1;
  cfg.momentum = 0.0;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  AssignmentMsg a;
  SocketTransport tx(server.endpoint(), a);
  std::vector<float> before(tx.num_params());
  std::vector<std::int64_t> versions;
  tx.pull_with_versions(before, versions);

  CompressedPush push;
  push.format = CompressedPush::Format::kSparse;
  push.num_params = tx.num_params();
  push.wire_size = 16;
  push.indices = {1, 5};
  push.values = {1.0f, -2.0f};
  EXPECT_EQ(tx.push_compressed(push, 0.5, versions), 0);
  std::vector<float> after(tx.num_params());
  tx.pull_with_versions(after, versions);
  for (std::size_t i = 0; i < after.size(); ++i) {
    const float step = i == 1 ? -0.5f : i == 5 ? 1.0f : 0.0f;
    EXPECT_FLOAT_EQ(after[i], before[i] + step) << "coordinate " << i;
  }

  EXPECT_TRUE(tx.drain_arrive(1));
  tx.bye();
  EXPECT_EQ(server.join().total_updates, 1);
}

TEST(NetTransport, ForgedHugePushDenseHeaderEvictsOnlyItsSender) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(5);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 30;
  cfg.snapshot_interval = 8;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  Socket forger = connect_endpoint(ep);
  (void)raw_hello(forger);
  auto honest = launch_worker(ep);

  // A PushDense header claiming 512 MiB, with nothing behind it.  The
  // length is under the global cap but far past the shape's bound, so the
  // server must drop the connection at once rather than wait for (or
  // allocate) half a gigabyte.
  std::vector<std::uint8_t> header = flatten(FrameOut(MsgType::kPushDense));
  const std::uint64_t forged = 512ull << 20;
  std::memcpy(header.data() + 8, &forged, sizeof(forged));
  send_raw(forger, header);
  Frame reply;
  EXPECT_FALSE(recv_frame(forger, reply));  // the server hung up

  const WorkerProcessResult r = honest.get();
  const PsServerResult res = server.join();
  EXPECT_EQ(r.steps, 30);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 1u);
  EXPECT_GE(res.snapshots_restored, 1);
  EXPECT_GE(res.total_updates, 30);
}

TEST(NetTransport, MiscountedPushDenseGetsAnErrorAndTheSessionContinues) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(6);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 5;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  Socket sock = connect_endpoint(server.endpoint());
  const AssignmentMsg a = raw_hello(sock);
  const WireShape shape{a.num_params, a.num_shards};
  ASSERT_EQ(shape.num_shards, 1u);
  const std::vector<float> grad(shape.num_params, 0.25f);
  const std::vector<std::int64_t> one{0};
  const std::vector<std::int64_t> two{0, 0};

  auto expect_error_then_pull = [&](const FrameOut& push, const char* expect) {
    send_frame(sock, push);
    Frame reply;
    ASSERT_TRUE(recv_frame(sock, reply, shape));
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_NE(ErrorMsg::decode(reply.payload).message.find(expect), std::string::npos)
        << ErrorMsg::decode(reply.payload).message;
    send_frame(sock, FrameOut(MsgType::kPull));
    ASSERT_TRUE(recv_frame(sock, reply, shape));
    EXPECT_EQ(reply.type, MsgType::kPullReply);
    EXPECT_EQ(reply.payload.size(), pull_reply_bytes(shape));
  };

  // Exact total length, one version too many and two floats too few.
  const FrameOut extra_version =
      PushDenseMsg{0.1, two, std::span(grad).first(grad.size() - 2)}.encode();
  ASSERT_EQ(extra_version.payload_bytes(), push_dense_bytes(shape));
  expect_error_then_pull(extra_version, "version count 2");

  // Exact total length, a float count that lies.
  FrameOut lying_count(MsgType::kPushDense);
  lying_count.scalar(0.1);
  lying_count.vec(std::span(one));
  lying_count.scalar(static_cast<std::uint64_t>(grad.size() + 7));
  lying_count.ref(grad.data(), grad.size() * sizeof(float));
  ASSERT_EQ(lying_count.payload_bytes(), push_dense_bytes(shape));
  expect_error_then_pull(lying_count, "float count");

  // Under the bound but short: read whole, then refused.
  expect_error_then_pull(PushDenseMsg{0.1, one, std::span(grad).first(3)}.encode(),
                         "the assigned shape needs");

  // A compressed push that decodes cleanly but is sized for another model:
  // the PS refuses it with ConfigError, which the server answers in kind.
  CompressedPush other_model;
  other_model.format = CompressedPush::Format::kSparse;
  other_model.num_params = shape.num_params + 1;
  other_model.indices = {0};
  other_model.values = {1.0f};
  other_model.wire_size = 8;
  expect_error_then_pull(PushCompressedMsg{0.1, one, other_model}.encode(), "decoded length");

  // The push-and-pull requests are refused the same way, and pull nothing.
  const FrameOut fused_extra_version =
      PushDenseMsg{0.1, two, std::span(grad).first(grad.size() - 2)}.encode(/*then_pull=*/true);
  ASSERT_EQ(fused_extra_version.payload_bytes(), push_dense_bytes(shape));
  expect_error_then_pull(fused_extra_version, "version count 2");
  expect_error_then_pull(
      PushDenseMsg{0.1, one, std::span(grad).first(3)}.encode(/*then_pull=*/true),
      "the assigned shape needs");
  expect_error_then_pull(PushCompressedMsg{0.1, one, other_model}.encode(/*then_pull=*/true),
                         "decoded length");

  // None of that touched the PS; a well-formed push still applies, and so
  // does a well-formed push-and-pull, whose reply has the parameters after it.
  send_frame(sock, PushDenseMsg{0.1, one, grad}.encode());
  Frame reply;
  ASSERT_TRUE(recv_frame(sock, reply, shape));
  ASSERT_EQ(reply.type, MsgType::kPushReply);
  EXPECT_EQ(PushReplyMsg::decode(reply.payload).staleness, 0);
  send_frame(sock, PushDenseMsg{0.1, one, grad}.encode(/*then_pull=*/true));
  ASSERT_TRUE(recv_frame(sock, reply, shape));
  ASSERT_EQ(reply.type, MsgType::kPushPullReply);
  ASSERT_EQ(reply.payload.size(), max_payload_bytes(MsgType::kPushPullReply, shape));
  std::vector<std::int64_t> versions;
  EXPECT_EQ(PushPullReplyMsg::decode_prefix(
                std::span(reply.payload).first(reply.payload.size() - 4 * shape.num_params),
                shape, versions),
            1);  // one update since the versions it pushed against
  EXPECT_EQ(versions, std::vector<std::int64_t>{2});

  DrainArriveMsg arrive;
  arrive.local_steps = 1;
  send_frame(sock, arrive.encode());
  ASSERT_TRUE(recv_frame(sock, reply, shape));
  EXPECT_EQ(reply.type, MsgType::kDrainRelease);
  send_frame(sock, FrameOut(MsgType::kBye));
  const PsServerResult res = server.join();
  EXPECT_EQ(res.workers_evicted, 0u);
  EXPECT_EQ(res.total_updates, 2);
}

TEST(NetTransport, WorkerRejectsWrongShapePullReplies) {
  // A scripted server: assigns 8 parameters on 1 shard, then answers four
  // pulls with a short reply, a miscounted one, a good one, and an
  // over-long one.
  constexpr std::size_t kParams = 8;
  Listener listener = listen_endpoint(unique_unix_endpoint(7));
  const std::vector<std::int64_t> one{3};
  const std::vector<std::int64_t> two{3, 4};
  std::vector<float> params(kParams + 1);
  for (std::size_t i = 0; i < params.size(); ++i) params[i] = static_cast<float>(i) + 0.5f;
  const std::span<const float> p(params);
  std::thread scripted([&] {
    Socket s = listener.accept();
    Frame req;
    ASSERT_TRUE(recv_frame(s, req));
    AssignmentMsg a;
    a.num_workers = 1;
    a.num_params = kParams;
    a.num_shards = 1;
    send_frame(s, a.encode());
    for (const FrameOut& reply : {PullReplyMsg{one, p.first(kParams - 1)}.encode(),
                                  PullReplyMsg{two, p.first(kParams - 2)}.encode(),
                                  PullReplyMsg{one, p.first(kParams)}.encode(),
                                  PullReplyMsg{one, p}.encode()}) {
      ASSERT_TRUE(recv_frame(s, req));
      ASSERT_EQ(req.type, MsgType::kPull);
      send_frame(s, reply);
    }
  });

  AssignmentMsg a;
  SocketTransport tx(listener.endpoint(), a);
  std::vector<float> out(kParams);
  std::vector<std::int64_t> versions;
  EXPECT_THROW(tx.pull_with_versions(out, versions), NetError);  // short
  EXPECT_THROW(tx.pull_with_versions(out, versions), NetError);  // miscounted
  // Both bad replies were read whole, so the stream is still in frame sync.
  tx.pull_with_versions(out, versions);
  EXPECT_EQ(versions, one);
  EXPECT_EQ(out, std::vector<float>(params.begin(), params.begin() + kParams));
  EXPECT_THROW(tx.pull_with_versions(out, versions), NetError);  // past the bound
  scripted.join();
}

TEST(NetTransport, WorkerRejectsWrongShapePushPullReplies) {
  // A scripted server: assigns 8 parameters on 1 shard, then answers three
  // push-and-pull requests with a short reply, a good one, and an over-long
  // one.
  constexpr std::size_t kParams = 8;
  Listener listener = listen_endpoint(unique_unix_endpoint(41));
  const std::vector<std::int64_t> one{3};
  std::vector<float> params(kParams + 1);
  for (std::size_t i = 0; i < params.size(); ++i) params[i] = static_cast<float>(i) + 0.5f;
  const std::span<const float> p(params);
  std::thread scripted([&] {
    Socket s = listener.accept();
    Frame req;
    ASSERT_TRUE(recv_frame(s, req));
    AssignmentMsg a;
    a.num_workers = 1;
    a.num_params = kParams;
    a.num_shards = 1;
    send_frame(s, a.encode());
    const WireShape shape{kParams, 1};
    for (const FrameOut& reply : {PushPullReplyMsg{1, one, p.first(kParams - 1)}.encode(),
                                  PushPullReplyMsg{2, one, p.first(kParams)}.encode(),
                                  PushPullReplyMsg{3, one, p}.encode()}) {
      ASSERT_TRUE(recv_frame(s, req, shape));
      ASSERT_EQ(req.type, MsgType::kPushPullDense);
      send_frame(s, reply);
    }
  });

  AssignmentMsg a;
  SocketTransport tx(listener.endpoint(), a);
  const std::vector<float> grad(kParams, 1.0f);
  std::vector<float> out(kParams);
  std::vector<std::int64_t> versions{0};
  EXPECT_THROW((void)tx.push_pull(grad, 0.1, out, versions), NetError);  // short
  // The short reply was read whole, so the stream is still in frame sync.
  versions = {0};
  EXPECT_EQ(tx.push_pull(grad, 0.1, out, versions), 2);
  EXPECT_EQ(versions, one);
  EXPECT_EQ(out, std::vector<float>(params.begin(), params.begin() + kParams));
  EXPECT_THROW((void)tx.push_pull(grad, 0.1, out, versions), NetError);  // past the bound
  scripted.join();
}

// The fused step is the two-call step with the exchange merged: over the
// in-process PS, slots stepping through push_pull_gradient leave the PS,
// the stalenesses and the wire bytes exactly where push + pull_gradient
// does, for dense and compressed pushes and one or four shards.
TEST(NetTransport, FusedWorkerSlotStepMatchesPushThenPullBitForBit) {
  const DataSplit split = make_synthetic(tiny_spec());
  Rng model_rng(5);
  const Model proto = make_model(ModelArch::kLinear, split.train.feature_dim(),
                                 split.train.num_classes(), model_rng);
  constexpr std::size_t kWorkers = 2;
  for (const CompressionSpec& compression :
       {CompressionSpec::none(), CompressionSpec::topk(0.1)}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(codec_kind_name(compression.kind) + " x " + std::to_string(shards) +
                   " shards");
      struct Run {
        Run(const Model& proto, std::size_t shards) : ps(proto.get_params(), 0.9, shards) {}
        SharedParameterServer ps;
        InProcTransport tx{ps};
        std::optional<CompressorBank> bank;
        std::vector<WorkerSlot> slots;
        std::vector<WorkerSlot::Push> pushes;
      };
      auto make_run = [&] {
        auto run = std::make_unique<Run>(proto, shards);
        run->bank = compression.make_bank(kWorkers);
        for (std::size_t w = 0; w < kWorkers; ++w)
          run->slots.emplace_back(proto.clone(), split.train, 8, 17, w, kWorkers);
        for (WorkerSlot& slot : run->slots) slot.pull_gradient(run->tx);
        return run;
      };
      const auto fused = make_run();
      const auto split_step = make_run();
      for (int step = 0; step < 12; ++step) {
        for (std::size_t w = 0; w < kWorkers; ++w) {
          CompressorBank* fb = fused->bank ? &*fused->bank : nullptr;
          fused->pushes.push_back(fused->slots[w].push_pull_gradient(fused->tx, fb, 0.05));
          CompressorBank* sb = split_step->bank ? &*split_step->bank : nullptr;
          split_step->pushes.push_back(split_step->slots[w].push(split_step->tx, sb, 0.05));
          split_step->slots[w].pull_gradient(split_step->tx);
        }
      }
      std::int64_t stale = 0;
      for (std::size_t i = 0; i < fused->pushes.size(); ++i) {
        EXPECT_EQ(fused->pushes[i].staleness, split_step->pushes[i].staleness) << "push " << i;
        EXPECT_EQ(fused->pushes[i].bytes, split_step->pushes[i].bytes) << "push " << i;
        stale += fused->pushes[i].staleness;
      }
      EXPECT_GT(stale, 0);  // the two slots interleave, so pushes are stale
      std::vector<float> a(proto.num_params());
      std::vector<float> b(proto.num_params());
      fused->ps.pull(a);
      split_step->ps.pull(b);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
    }
  }
}

TEST(NetTransport, WorkerDyingMidGradientIsEvictedAndSnapshotRestored) {
  for (const bool then_pull : {false, true}) {
    SCOPED_TRACE(then_pull ? "PushPullDense" : "PushDense");
    PsServerConfig cfg;
    cfg.listen = unique_unix_endpoint(then_pull ? 40 : 8);
    cfg.num_workers = 2;
    cfg.steps_per_worker = 20;
    cfg.snapshot_interval = 4;
    cfg.data = wide_spec();
    ServerHandle server(cfg);
    const std::string ep = server.endpoint();
    Socket dying = connect_endpoint(ep);
    const AssignmentMsg a = raw_hello(dying);
    ASSERT_EQ(a.num_params, 102500u);
    auto honest = launch_worker(ep);

    // Half of a full-size dense push, then the connection drops: the server
    // is blocked inside the 410 KB gradient array when the EOF arrives.
    const std::vector<float> grad(a.num_params, 0.1f);
    const std::vector<std::int64_t> versions(a.num_shards, 0);
    const std::vector<std::uint8_t> bytes =
        flatten(PushDenseMsg{0.1, versions, grad}.encode(then_pull));
    send_raw(dying, std::span(bytes).first(bytes.size() / 2));
    dying.close();

    const WorkerProcessResult r = honest.get();
    const PsServerResult res = server.join();
    EXPECT_EQ(r.steps, 20);
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(res.workers_evicted, 1u);
    EXPECT_GE(res.snapshots_restored, 1);
    EXPECT_GE(res.total_updates, 20);
  }
}

TEST(NetTransport, ConnectToDeadEndpointThrowsNetError) {
  AssignmentMsg a;
  EXPECT_THROW(SocketTransport("unix:/tmp/ss_net_test_no_such.sock", a), NetError);
  EXPECT_THROW(SocketTransport("tcp:127.0.0.1:1", a), NetError);
  EXPECT_THROW((void)connect_endpoint("bogus-endpoint-syntax://"), NetError);
}

}  // namespace
}  // namespace ss
