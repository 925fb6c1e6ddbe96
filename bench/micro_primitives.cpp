// Microbenchmarks of the substrate primitives (google-benchmark).
//
// Not a paper artifact; quantifies the building blocks so users can estimate
// simulation cost: gradient computation, PS apply, pull (snapshot copy),
// event-queue ops, checkpoint round-trip, a wire pull + push.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <future>
#include <string>
#include <thread>

#include "common/rng.h"
#include "compress/bank.h"
#include "compress/qsgd.h"
#include "core/sweep.h"
#include "compress/terngrad.h"
#include "compress/topk.h"
#include "nn/batchnorm.h"
#include "data/synthetic.h"
#include "net/ps_server.h"
#include "net/socket_transport.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "ps/sharded_param_server.h"
#include "ps/threaded_runtime.h"
#include "sim/event_queue.h"
#include "tensor/ops.h"

using namespace ss;

namespace {

SyntheticSpec small_spec() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 2048;
  spec.test_size = 256;
  return spec;
}

Tensor gaussian_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.gaussian());
  return t;
}

// The three products of one Dense layer, args (batch, in, out): the forward
// Y = X W (matmul), the weight gradient dW = X^T dY (matmul_tn) and the
// input gradient dX = dY W^T (matmul_nt).  The shapes are resnet32_lite's
// two hidden layers at batch 32 (switch-straggler) and the 1024 -> 100
// linear model at batch 2 (topk-wide, socket-wide).
struct DenseProducts {
  explicit DenseProducts(const benchmark::State& state)
      : batch(static_cast<std::size_t>(state.range(0))),
        in(static_cast<std::size_t>(state.range(1))),
        out(static_cast<std::size_t>(state.range(2))) {}
  std::size_t batch, in, out;
  Rng rng{1};
  Tensor x = gaussian_tensor({batch, in}, rng);
  Tensor w = gaussian_tensor({in, out}, rng);
  Tensor dy = gaussian_tensor({batch, out}, rng);
  Tensor y{{batch, out}}, dw{{in, out}}, dx{{batch, in}};
  void set_items(benchmark::State& state) const {
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch * in * out));
  }
};

void dense_shapes(benchmark::internal::Benchmark* b) {
  b->Args({32, 64, 96})->Args({32, 96, 64})->Args({2, 1024, 100});
}

void BM_MatMul(benchmark::State& state) {
  DenseProducts p(state);
  for (auto _ : state) {
    ops::matmul(p.x, p.w, p.y);
    benchmark::DoNotOptimize(p.y.data());
    benchmark::ClobberMemory();
  }
  p.set_items(state);
}
BENCHMARK(BM_MatMul)->Args({64, 64, 64})->Args({128, 128, 128})->Apply(dense_shapes);

void BM_MatMulTN(benchmark::State& state) {
  DenseProducts p(state);
  for (auto _ : state) {
    ops::matmul_tn(p.x, p.dy, p.dw);
    benchmark::DoNotOptimize(p.dw.data());
    benchmark::ClobberMemory();
  }
  p.set_items(state);
}
BENCHMARK(BM_MatMulTN)->Apply(dense_shapes);

void BM_MatMulNT(benchmark::State& state) {
  DenseProducts p(state);
  for (auto _ : state) {
    ops::matmul_nt(p.dy, p.w, p.dx);
    benchmark::DoNotOptimize(p.dx.data());
    benchmark::ClobberMemory();
  }
  p.set_items(state);
}
BENCHMARK(BM_MatMulNT)->Apply(dense_shapes);

// One worker task, Model::gradient_at, args (model, batch): 0 is
// resnet32_lite on 64 features and 10 classes (switch-straggler), 1 is the
// linear 1024 -> 100 model (topk-wide, socket-wide).
void BM_GradientStep(benchmark::State& state) {
  const bool linear = state.range(0) == 1;
  const auto b = static_cast<std::size_t>(state.range(1));
  SyntheticSpec spec = small_spec();
  if (linear) {
    spec = SyntheticSpec::cifar100_like();
    spec.feature_dim = 1024;
    spec.train_size = 256;
    spec.test_size = 64;
  }
  const auto split = make_synthetic(spec);
  const ModelArch arch = linear ? ModelArch::kLinear : ModelArch::kResNet32Lite;
  Rng rng(2);
  Model model = make_model(arch, spec.feature_dim, spec.num_classes, rng);
  Tensor x({b, spec.feature_dim});
  std::vector<int> y;
  std::vector<std::uint32_t> idx(b);
  for (std::size_t i = 0; i < b; ++i) idx[i] = static_cast<std::uint32_t>(i);
  split.train.gather(idx, x, y);
  std::vector<float> params = model.get_params();
  std::vector<float> grad(params.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.gradient_at(params, x, y, grad));
  }
  state.SetLabel(arch_name(arch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(b));
}
BENCHMARK(BM_GradientStep)->Args({0, 32})->Args({1, 2});

void BM_PsApply(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> init(p);
  std::vector<float> grad(p);
  for (auto& v : init) v = static_cast<float>(rng.gaussian());
  for (auto& v : grad) v = static_cast<float>(rng.gaussian(0.0, 0.01));
  ShardedParameterServer ps(init, 0.9);
  for (auto _ : state) ps.apply(grad, 0.05);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_PsApply)->Arg(13000)->Arg(28000);

// The single-lock baseline the sharded parallel path is measured against:
// one mutex-guarded full-vector push on a 10M+-parameter model.
void BM_PsPushSingleLock(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  SharedParameterServer ps(std::vector<float>(p, 0.5f), 0.9, /*num_shards=*/1);
  std::vector<float> grad(p, 0.001f);
  const std::vector<std::int64_t> pulled(1, 0);
  for (auto _ : state) benchmark::DoNotOptimize(ps.push(grad, 0.05, pulled));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_PsPushSingleLock)->Arg(10'000'000);

// Sharded apply, serial: quantifies the pure partitioning overhead
// (per-shard loop + version bumps) against BM_PsApply.
void BM_PsApplySharded(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  ShardedParameterServer ps(std::vector<float>(p, 0.5f), 0.9, shards);
  std::vector<float> grad(p, 0.001f);
  for (auto _ : state) ps.apply(grad, 0.05);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_PsApplySharded)->Args({10'000'000, 8});

// Sharded apply fanned across the worker pool.  On a multi-core host this
// is the >= 2x win over BM_PsPushSingleLock for 10M+ parameters (the op is
// memory-bandwidth-bound: 2 loads + 2 stores per element); on a single-core
// container it degrades gracefully to roughly the serial number.
void BM_PsApplyParallel(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t extra = std::min<std::size_t>(shards, hw) - 1;
  ShardedParameterServer ps(std::vector<float>(p, 0.5f), 0.9, shards);
  ps.set_parallel_apply(extra);
  std::vector<float> grad(p, 0.001f);
  for (auto _ : state) ps.apply(grad, 0.05);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
  state.counters["threads"] = static_cast<double>(extra + 1);
}
BENCHMARK(BM_PsApplyParallel)->Args({10'000'000, 8})->Args({10'000'000, 16});

// The sparse fast path: a top-k(1%) CompressedPush against the sharded
// shared PS.  Only shards owning kept coordinates are locked and written —
// compare items/s against BM_PsPushSingleLock's full 10M-element sweep (the
// sparse push touches ~100k coordinates for the same logical gradient).
void BM_PsApplySparseTopK(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  SharedParameterServer ps(std::vector<float>(p, 0.5f), 0.9, shards);
  TopKCodec codec(0.01);
  Rng rng(5);
  std::vector<float> grad(p);
  for (std::size_t i = 0; i < p; ++i) grad[i] = static_cast<float>(rng.gaussian());
  const CompressedPush push = codec.encode(grad, rng);
  const std::vector<std::int64_t> pulled(shards, 0);
  for (auto _ : state) benchmark::DoNotOptimize(ps.push_compressed(push, 0.05, pulled));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(push.nnz()));
  state.counters["nnz"] = static_cast<double>(push.nnz());
}
BENCHMARK(BM_PsApplySparseTopK)->Args({10'000'000, 1})->Args({10'000'000, 8});

void BM_PsPull(benchmark::State& state) {
  const std::size_t p = 13000;
  ShardedParameterServer ps(std::vector<float>(p, 0.5f), 0.9);
  std::vector<float> out(p);
  for (auto _ : state) {
    ps.pull(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PsPull);

// Parallel pull of a large model (the worker-side snapshot copy).
void BM_PsPullParallel(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ShardedParameterServer ps(std::vector<float>(p, 0.5f), 0.9, shards);
  ps.set_parallel_apply(std::min<std::size_t>(shards, hw) - 1);
  std::vector<float> out(p);
  for (auto _ : state) {
    ps.pull(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_PsPullParallel)->Args({10'000'000, 8});

// End-to-end live protocol switch on real threads: a tiny BSP -> ASP
// schedule, including thread spawn, the per-round barriers, and the drain-
// barrier transition.  Tracks the fixed cost of the switch machinery so a
// regression in the drain path (e.g. an accidental serialization) shows up
// in the BENCH_threaded.json trajectory.
void BM_ThreadedProtocolSwitch(benchmark::State& state) {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 256;
  spec.test_size = 64;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  const DataSplit split = make_synthetic(spec);
  Rng rng(7);
  const Model proto = make_model(ModelArch::kLinear, 16, 4, rng);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(8);
  cfg.num_workers = 2;
  cfg.batch_size = 8;
  cfg.steps_per_worker = 24;
  cfg.num_ps_shards = 4;
  for (auto _ : state) {
    const ThreadedTrainResult r = threaded_train(proto, split.train, cfg);
    benchmark::DoNotOptimize(r.total_updates);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 24 * 2);
}
BENCHMARK(BM_ThreadedProtocolSwitch)->Unit(benchmark::kMillisecond);

// End-to-end elastic crash recovery on real threads: an ASP run whose
// worker 1 crashes halfway, with background snapshots every 8 updates.
// Covers the whole membership path — AsyncSnapshotter cadence captures,
// the drain-barrier quiesce, snapshot restore under the shard locks,
// thread retire + respawn — so a regression in the recovery machinery
// (e.g. a snapshot walk that starts blocking pushes) shows up in the
// BENCH_threaded.json trajectory next to the protocol-switch cost.
void BM_ThreadedCrashRecovery(benchmark::State& state) {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 256;
  spec.test_size = 64;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  const DataSplit split = make_synthetic(spec);
  Rng rng(7);
  const Model proto = make_model(ModelArch::kLinear, 16, 4, rng);
  ThreadedTrainConfig cfg;
  cfg.protocol = Protocol::kAsp;
  cfg.num_workers = 2;
  cfg.batch_size = 8;
  cfg.steps_per_worker = 24;
  cfg.num_ps_shards = 4;
  cfg.elastic.plan = MembershipPlan::crash(1, 12);
  cfg.elastic.snapshot_interval = 8;
  for (auto _ : state) {
    const ThreadedTrainResult r = threaded_train(proto, split.train, cfg);
    benchmark::DoNotOptimize(r.total_updates);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * (24 + 12));
}
BENCHMARK(BM_ThreadedCrashRecovery)->Unit(benchmark::kMillisecond);

// Observability cost on the threaded runtime: the same tiny BSP -> ASP
// switch run as BM_ThreadedProtocolSwitch, with obs off (/0, the default
// every other benchmark runs under) vs metrics + tracing armed (/1).  The
// /0:/1 ratio is the overhead claim in docs/ARCHITECTURE.md; /0 regressing
// against BM_ThreadedProtocolSwitch would mean the disabled-path guard
// itself got expensive.
void BM_ThreadedObsOverhead(benchmark::State& state) {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 256;
  spec.test_size = 64;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  const DataSplit split = make_synthetic(spec);
  Rng rng(7);
  const Model proto = make_model(ModelArch::kLinear, 16, 4, rng);
  ThreadedTrainConfig cfg;
  cfg.schedule = SwitchSchedule::bsp_to_asp(8);
  cfg.num_workers = 2;
  cfg.batch_size = 8;
  cfg.steps_per_worker = 24;
  cfg.num_ps_shards = 4;
  const bool obs_on = state.range(0) != 0;
  for (auto _ : state) {
    if (obs_on) {
      state.PauseTiming();
      obs::enable_tracing();  // fresh buffer every iteration: no cap drops
      obs::enable_metrics();
      state.ResumeTiming();
    }
    const ThreadedTrainResult r = threaded_train(proto, split.train, cfg);
    benchmark::DoNotOptimize(r.total_updates);
  }
  obs::disable_all();
  obs::tracer().clear();
  obs::metrics().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 24 * 2);
}
BENCHMARK(BM_ThreadedObsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < 1024; ++i)
      q.schedule(VTime::from_us(1000 - (i % 97)),
                 (i % 2) ? SimEventKind::kPushArrive : SimEventKind::kPullDone, i % 16);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_EventQueue);

// A 32-entry grid of tiny full simulations (4 protocols x 8 seeds), the
// SweepRunner's unit of work.  Serial vs. parallel pins the sweep executor's
// scaling in BENCH_sim.json: on an N-core host the parallel variant should
// approach N x the serial items/s (each sim is independent and allocation-
// heavy, so it falls short of linear); on a 1-core box the two match.
std::vector<RunRequest> sweep_bench_grid() {
  std::vector<RunRequest> grid;
  const Protocol protocols[] = {Protocol::kBsp, Protocol::kAsp, Protocol::kSsp,
                                Protocol::kKAsync};
  for (int i = 0; i < 32; ++i) {
    RunRequest req;
    req.workload.arch = ModelArch::kLinear;
    req.workload.data = SyntheticSpec::cifar10_like();
    req.workload.data.num_classes = 3;
    req.workload.data.feature_dim = 16;
    req.workload.data.train_size = 1024;
    req.workload.data.test_size = 512;
    req.workload.total_steps = 48;
    req.workload.hyper.batch_size = 16;
    req.workload.eval_interval = 32;
    req.cluster.num_workers = 4;
    req.cluster.compute_per_batch = VTime::from_ms(20.0);
    req.cluster.reference_batch = 16;
    req.policy = SyncSwitchPolicy::pure(protocols[i % 4]);
    req.seed = 1 + static_cast<std::uint64_t>(i / 4);
    grid.push_back(std::move(req));
  }
  return grid;
}

void BM_SimSweepSerial(benchmark::State& state) {
  const std::vector<RunRequest> grid = sweep_bench_grid();
  const SweepRunner runner({.jobs = 1});
  for (auto _ : state) {
    const auto outcomes = runner.run(grid);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_SimSweepSerial)->Unit(benchmark::kMillisecond);

void BM_SimSweepParallel(benchmark::State& state) {
  const std::vector<RunRequest> grid = sweep_bench_grid();
  const SweepRunner runner({.jobs = 0});  // all hardware cores
  for (auto _ : state) {
    const auto outcomes = runner.run(grid);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
  state.counters["threads"] =
      static_cast<double>(runner.effective_jobs(grid.size()));
}
BENCHMARK(BM_SimSweepParallel)->Unit(benchmark::kMillisecond);

void BM_CodecTopK(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  TopKCodec codec(0.01);
  Rng rng(5);
  std::vector<float> grad(p);
  for (std::size_t i = 0; i < p; ++i) grad[i] = static_cast<float>(rng.gaussian());
  std::vector<float> scratch(p);
  for (auto _ : state) {
    scratch = grad;
    benchmark::DoNotOptimize(codec.transform(scratch, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_CodecTopK)->Arg(13000)->Arg(130000);

// Gradient shapes for the bank encode bench.  kGaussian: unit Gaussian.
// kRank2: what topk-wide pushes, the batch-2 gradient of a linear-softmax
// model (two outer products plus the bias) over 100 classes, so p must be
// (features + 1) * 100 (gradient_at throws ShapeError otherwise).
// kOvershoot: unit Gaussian except that the positions the top-k threshold
// estimate samples hold huge magnitudes, so its bound admits fewer than k
// candidates and every encode takes the retry pass.
enum class BankInput { kGaussian, kRank2, kOvershoot };

std::vector<std::vector<float>> bank_inputs(BankInput input, std::size_t p, Rng& rng) {
  std::vector<std::vector<float>> grads(4, std::vector<float>(p));
  if (input == BankInput::kRank2) {
    SyntheticSpec spec = SyntheticSpec::cifar100_like();
    spec.feature_dim = p / static_cast<std::size_t>(spec.num_classes) - 1;
    spec.train_size = 256;
    spec.test_size = 64;
    const auto split = make_synthetic(spec);
    Model model = make_model(ModelArch::kLinear, spec.feature_dim, spec.num_classes, rng);
    const std::vector<float> params = model.get_params();
    Tensor x({2, spec.feature_dim});
    std::vector<int> y;
    for (std::size_t s = 0; s < grads.size(); ++s) {
      const std::vector<std::uint32_t> batch = {static_cast<std::uint32_t>(2 * s),
                                                static_cast<std::uint32_t>(2 * s + 1)};
      split.train.gather(batch, x, y);
      model.gradient_at(params, x, y, grads[s]);
    }
    return grads;
  }
  for (auto& g : grads) {
    for (float& v : g) v = static_cast<float>(rng.gaussian());
    if (input == BankInput::kOvershoot) {
      const std::vector<std::uint32_t> sample = TopKCodec::threshold_sample(p);
      for (std::size_t q = 0; q < sample.size(); ++q)
        g[sample[q]] = (rng.bernoulli(0.5) ? -1.0f : 1.0f) * (1e6f + static_cast<float>(q));
    }
  }
  return grads;
}

// One worker's push on the top-k 1% path: CompressorBank::encode with error
// feedback (carry in, sparse encode, carry out), cycling through a few
// gradients so the residual keeps a realistic spread.
void BM_CodecTopKBankEncode(benchmark::State& state, BankInput input) {
  const auto p = static_cast<std::size_t>(state.range(0));
  CompressorBank bank(std::make_shared<TopKCodec>(0.01), 1, /*error_feedback=*/true);
  Rng rng(5);
  const std::vector<std::vector<float>> grads = bank_inputs(input, p, rng);
  std::size_t step = 0;
  for (auto _ : state) {
    const CompressedPush push = bank.encode(0, grads[step++ % grads.size()], rng);
    benchmark::DoNotOptimize(push.indices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}

void BM_CodecTopKBankEncode(benchmark::State& state) {
  BM_CodecTopKBankEncode(state, BankInput::kGaussian);
}
BENCHMARK(BM_CodecTopKBankEncode)->Arg(102500);
BENCHMARK_CAPTURE(BM_CodecTopKBankEncode, rank2, BankInput::kRank2)->Arg(102500);
BENCHMARK_CAPTURE(BM_CodecTopKBankEncode, overshoot, BankInput::kOvershoot)->Arg(102500);

void BM_CodecTernGrad(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  TernGradCodec codec;
  Rng rng(5);
  std::vector<float> grad(p);
  for (std::size_t i = 0; i < p; ++i) grad[i] = static_cast<float>(rng.gaussian());
  std::vector<float> scratch(p);
  for (auto _ : state) {
    scratch = grad;
    benchmark::DoNotOptimize(codec.transform(scratch, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_CodecTernGrad)->Arg(13000);

void BM_CodecQsgd(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  QsgdCodec codec(15);
  Rng rng(5);
  std::vector<float> grad(p);
  for (std::size_t i = 0; i < p; ++i) grad[i] = static_cast<float>(rng.gaussian());
  std::vector<float> scratch(p);
  for (auto _ : state) {
    scratch = grad;
    benchmark::DoNotOptimize(codec.transform(scratch, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_CodecQsgd)->Arg(13000);

void BM_BatchNormForwardBackward(benchmark::State& state) {
  BatchNorm bn(96);
  Rng rng(5);
  Tensor x({64, 96});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());
  Tensor dy({64, 96}, 0.01f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn.forward(x));
    benchmark::DoNotOptimize(bn.backward(dy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 96);
}
BENCHMARK(BM_BatchNormForwardBackward);

void BM_CheckpointRoundTrip(benchmark::State& state) {
  Checkpoint ckpt;
  ckpt.global_step = 1234;
  ckpt.params.assign(13000, 0.25f);
  ckpt.velocity.assign(13000, -0.5f);
  for (auto _ : state) {
    const auto bytes = ckpt.serialize();
    benchmark::DoNotOptimize(Checkpoint::deserialize(bytes));
  }
}
BENCHMARK(BM_CheckpointRoundTrip);

// One ASP update over a real socket with no compute: an in-process
// ps_server session and one SocketTransport doing pull + dense push, so the
// time is the frames, the kernel copies and the session's PS apply.  Arg 0
// is the parameter count (a 100-class linear model, so a multiple of 100;
// 102,500 is the socket-wide benchmark's 410 KB frame); arg 1 picks the
// endpoint, 0 = unix socket, 1 = tcp loopback.
void BM_NetPullPush(benchmark::State& state) {
  PsServerConfig cfg;
  cfg.listen = state.range(1) == 0
                   ? "unix:/tmp/ss_bm_net_" + std::to_string(::getpid()) + ".sock"
                   : "tcp:127.0.0.1:0";
  cfg.num_workers = 1;
  cfg.steps_per_worker = 1;
  cfg.data = SyntheticSpec::cifar100_like();
  cfg.data.feature_dim = static_cast<std::size_t>(state.range(0)) / 100 - 1;
  cfg.data.train_size = 256;
  cfg.data.test_size = 128;
  std::promise<std::string> listening;
  cfg.on_listening = [&listening](const std::string& ep) { listening.set_value(ep); };
  std::thread server([&cfg] { (void)run_ps_server(cfg); });

  AssignmentMsg a;
  SocketTransport tx(listening.get_future().get(), a);
  std::vector<float> params(a.num_params);
  const std::vector<float> grad(a.num_params, 1e-6f);
  std::vector<std::int64_t> versions;
  for (auto _ : state) {
    tx.pull_with_versions(params, versions);
    benchmark::DoNotOptimize(tx.push(grad, 0.01, versions));
  }
  (void)tx.drain_arrive(1);
  tx.bye();
  server.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(a.num_params * sizeof(float)));
}
BENCHMARK(BM_NetPullPush)->Args({102500, 0})->Args({102500, 1})->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
