#include "elastic/async_snapshotter.h"

#include <chrono>
#include <utility>

#include "common/error.h"

namespace ss {

AsyncSnapshotter::AsyncSnapshotter(CaptureFn capture, ProgressFn progress, std::int64_t interval)
    : capture_(std::move(capture)),
      progress_(std::move(progress)),
      interval_(interval),
      next_due_(interval) {
  if (!capture_ || !progress_)
    throw ConfigError("AsyncSnapshotter: capture and progress functions are required");
  if (interval_ < 0) throw ConfigError("AsyncSnapshotter: interval must be >= 0");
  if (interval_ > 0) thread_ = std::thread([this] { loop(); });
}

AsyncSnapshotter::~AsyncSnapshotter() { stop(); }

void AsyncSnapshotter::capture_locked() {
  latest_ = capture_();
  ++count_;
  // Re-arm the cadence relative to what was just captured so an explicit
  // snapshot does not trigger an immediate redundant cadence one.
  next_due_ = latest_->global_step + interval_;
}

void AsyncSnapshotter::snapshot_now() {
  const std::lock_guard<std::mutex> lock(ps_mu_);
  capture_locked();
}

std::optional<std::int64_t> AsyncSnapshotter::restore_latest(const RestoreFn& restore) {
  const std::lock_guard<std::mutex> lock(ps_mu_);
  if (!latest_) return std::nullopt;
  const std::int64_t lost = progress_() - latest_->global_step;
  restore(*latest_);
  if (interval_ > 0) capture_locked();
  return lost;
}

std::int64_t AsyncSnapshotter::count() const {
  const std::lock_guard<std::mutex> lock(ps_mu_);
  return count_;
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
