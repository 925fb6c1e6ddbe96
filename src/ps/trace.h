// Execution tracing for the simulator: fan telemetry out to several sinks,
// and record a training run's per-worker task timeline and PS update/eval
// stream on a virtual-clock obs::WallTracer, which exports it as Chrome
// trace-event JSON (chrome://tracing, Perfetto, or speedscope all read it).
//
// The paper's evaluation is built on exactly this kind of telemetry (task
// throughput per worker feeds the straggler detector, Figure 9's profiler);
// the trace makes a run's schedule inspectable: BSP barrier waves, ASP
// free-running workers, straggler slow-downs and evictions are all visible
// on the timeline.  The sim records in the threaded runtime's vocabulary
// and track layout, so a sim trace and a threaded trace of one scenario
// differ only in their clock.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/tracer.h"
#include "ps/sim_runtime.h"

namespace ss {

/// Forwards every observation to multiple sinks, in order (e.g. profiler +
/// straggler detector + trace sink).  Sinks are not owned and must outlive
/// this.
class FanoutSink final : public MetricsSink {
 public:
  explicit FanoutSink(std::vector<MetricsSink*> sinks);

  void on_task(const TaskObservation& obs) override;
  void on_update(const UpdateObservation& obs) override;
  void on_eval(std::int64_t global_step, VTime time, double test_accuracy) override;

 private:
  std::vector<MetricsSink*> sinks_;
};

/// Records observations on an armed virtual-clock tracer (at most
/// `max_events`; the tracer counts what it drops).  Track 0 is ps/control,
/// track w+1 is worker w.  Each task is a `step` span; each PS update an
/// `update` instant (protocol, step, loss, staleness), preceded by a
/// `protocol_switch` instant (from, to) where the protocol changes; each
/// evaluation a `test_accuracy` counter sample.
class TraceSink final : public MetricsSink {
 public:
  explicit TraceSink(std::size_t max_events = 1 << 20);

  void on_task(const TaskObservation& obs) override;
  void on_update(const UpdateObservation& obs) override;
  void on_eval(std::int64_t global_step, VTime time, double test_accuracy) override;

  [[nodiscard]] const obs::WallTracer& tracer() const noexcept { return tracer_; }

 private:
  obs::WallTracer tracer_{"virtual"};
  int named_workers_ = 0;  ///< worker tracks labelled so far
  std::optional<Protocol> protocol_;  ///< the previous update's
};

}  // namespace ss
