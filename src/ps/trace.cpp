#include "ps/trace.h"

#include <string>

#include "common/error.h"

namespace ss {

FanoutSink::FanoutSink(std::vector<MetricsSink*> sinks) : sinks_(std::move(sinks)) {
  for (const MetricsSink* s : sinks_)
    if (s == nullptr) throw ConfigError("FanoutSink: null sink");
}

void FanoutSink::on_task(const TaskObservation& obs) {
  for (MetricsSink* s : sinks_) s->on_task(obs);
}

void FanoutSink::on_update(const UpdateObservation& obs) {
  for (MetricsSink* s : sinks_) s->on_update(obs);
}

void FanoutSink::on_eval(std::int64_t global_step, VTime time, double test_accuracy) {
  for (MetricsSink* s : sinks_) s->on_eval(global_step, time, test_accuracy);
}

TraceSink::TraceSink(std::size_t max_events) {
  tracer_.enable(max_events);
  tracer_.set_track_name(0, "ps/control");
}

void TraceSink::on_task(const TaskObservation& task) {
  for (; named_workers_ <= task.worker; ++named_workers_)
    tracer_.set_track_name(named_workers_ + 1, "worker " + std::to_string(named_workers_));
  tracer_.complete(task.worker + 1, "step", (task.completed_at - task.task_duration).us(),
                   task.task_duration.us(),
                   {obs::arg("images", static_cast<std::int64_t>(task.images))});
}

void TraceSink::on_update(const UpdateObservation& update) {
  const std::string protocol = protocol_name(update.protocol);
  if (protocol_ && *protocol_ != update.protocol)
    tracer_.instant(0, "protocol_switch", update.time.us(),
                    {obs::arg("from", protocol_name(*protocol_)), obs::arg("to", protocol)});
  protocol_ = update.protocol;
  tracer_.instant(0, "update", update.time.us(),
                  {obs::arg("protocol", protocol), obs::arg("step", update.global_step),
                   obs::arg("loss", update.train_loss), obs::arg("staleness", update.staleness)});
}

void TraceSink::on_eval(std::int64_t, VTime time, double test_accuracy) {
  tracer_.counter("test_accuracy", time.us(), test_accuracy);
}

}  // namespace ss
