// The dense data plane is allocation-free in steady state: once warm, a
// pull + dense push round trip, and the fused push-and-pull exchange that
// replaces it in the worker process, allocate no parameter-sized buffer on
// either side of the socket.
//
// This binary replaces the global operator new with a counting one (kept
// out of the other net suites on purpose), so the check sees every heap
// allocation made by the worker's SocketTransport and by the server's
// session thread, which share the process here.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "net/ps_server.h"
#include "net/socket_transport.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_large_allocations{0};
/// Far below one 410 KB parameter vector, far above any per-frame scratch.
constexpr std::size_t kLargeBytes = 64 * 1024;

}  // namespace

// The replacements are kept out of line.  Inlined into a caller, GCC would
// see malloc() answered by operator delete, or operator new answered by
// free(), and flag a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (n >= kLargeBytes && g_counting.load(std::memory_order_relaxed))
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ss {
namespace {

TEST(NetZeroCopy, SteadyStateDensePullPushAllocatesNothingParameterSized) {
  PsServerConfig cfg;
  cfg.listen = "unix:/tmp/ss_net_zero_copy_" + std::to_string(::getpid()) + ".sock";
  cfg.num_workers = 1;
  cfg.steps_per_worker = 1;
  cfg.data = SyntheticSpec::cifar100_like();
  cfg.data.feature_dim = 1024;  // 102,500 parameters: a 410 KB frame
  cfg.data.train_size = 256;
  cfg.data.test_size = 128;
  auto listening = std::make_shared<std::promise<std::string>>();
  std::future<std::string> endpoint = listening->get_future();
  cfg.on_listening = [listening](const std::string& ep) { listening->set_value(ep); };
  std::future<PsServerResult> server = std::async(std::launch::async, [cfg] {
    return run_ps_server(cfg);
  });

  AssignmentMsg a;
  SocketTransport tx(endpoint.get(), a);
  ASSERT_EQ(a.num_params, 102500u);
  std::vector<float> params(a.num_params);
  const std::vector<float> grad(a.num_params, 1e-4f);
  std::vector<std::int64_t> versions;
  auto large_allocations = [](const auto& step) {
    for (int i = 0; i < 3; ++i) step();  // warm-up: session buffers settle
    g_large_allocations = 0;
    g_counting = true;
    for (int i = 0; i < 50; ++i) step();
    g_counting = false;
    return g_large_allocations.load();
  };
  EXPECT_EQ(large_allocations([&] {
              tx.pull_with_versions(params, versions);
              (void)tx.push(grad, 0.01, versions);
            }),
            0)
      << "Pull + PushDense";
  EXPECT_EQ(large_allocations([&] { (void)tx.push_pull(grad, 0.01, params, versions); }), 0)
      << "PushPullDense";

  EXPECT_TRUE(tx.drain_arrive(1));
  tx.bye();
  EXPECT_EQ(server.get().total_updates, 106);
}

}  // namespace
}  // namespace ss
