#include "elastic/async_snapshotter.h"

#include <chrono>
#include <utility>

#include "common/error.h"

namespace ss {

void SnapshotStore::put(Checkpoint ckpt) {
  const std::lock_guard<std::mutex> lock(mu_);
  latest_ = std::move(ckpt);
  ++count_;
}

std::optional<Checkpoint> SnapshotStore::latest() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

std::int64_t SnapshotStore::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::int64_t SnapshotStore::latest_step() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return latest_ ? latest_->global_step : -1;
}

AsyncSnapshotter::AsyncSnapshotter(CaptureFn capture, ProgressFn progress,
                                   std::int64_t interval, SnapshotStore& store)
    : capture_(std::move(capture)),
      progress_(std::move(progress)),
      interval_(interval),
      store_(store),
      next_due_(interval) {
  if (!capture_ || !progress_)
    throw ConfigError("AsyncSnapshotter: capture and progress functions are required");
  if (interval_ < 0) throw ConfigError("AsyncSnapshotter: interval must be >= 0");
  if (interval_ > 0) thread_ = std::thread([this] { loop(); });
}

AsyncSnapshotter::~AsyncSnapshotter() { stop(); }

void AsyncSnapshotter::capture_locked() {
  Checkpoint ckpt = capture_();
  // Re-arm the cadence relative to what was just captured so an explicit
  // snapshot does not trigger an immediate redundant cadence one.
  next_due_ = ckpt.global_step + interval_;
  store_.put(std::move(ckpt));
}

void AsyncSnapshotter::snapshot_now() {
  const std::lock_guard<std::mutex> lock(ps_mu_);
  capture_locked();
}

std::optional<std::int64_t> AsyncSnapshotter::restore_latest(const RestoreFn& restore) {
  const std::lock_guard<std::mutex> lock(ps_mu_);
  const std::optional<Checkpoint> snap = store_.latest();
  if (!snap) return std::nullopt;
  const std::int64_t lost = progress_() - snap->global_step;
  restore(*snap);
  if (interval_ > 0) capture_locked();
  return lost;
}

void AsyncSnapshotter::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void AsyncSnapshotter::loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  // Poll the progress counter at a cadence far below any realistic snapshot
  // interval; the wait doubles as the stop signal.
  while (!stop_cv_.wait_for(lock, std::chrono::microseconds(200), [&] { return stop_; })) {
    lock.unlock();
    {
      const std::lock_guard<std::mutex> ps_lock(ps_mu_);
      if (progress_() >= next_due_) capture_locked();
    }
    lock.lock();
  }
}

}  // namespace ss
