#include "stream/kafka_spout.hpp"

#include "common/byte_io.hpp"

namespace netalytics::stream {

KafkaSpout::KafkaSpout(mq::Cluster& cluster, std::string group, std::string topic,
                       std::size_t poll_batch, common::FaultPlan* faults,
                       std::size_t task)
    : cluster_(cluster),
      consumer_(cluster, std::move(group)),
      topic_(std::move(topic)),
      task_(task),
      poll_batch_(poll_batch == 0 ? 1 : poll_batch),
      faults_(faults) {
  owned_metrics_ = std::make_unique<common::MetricsRegistry>();
  bind_metrics(*owned_metrics_, "stream.spout");
}

void KafkaSpout::bind_metrics(common::MetricsRegistry& registry,
                              const std::string& prefix,
                              common::StageTracer* tracer,
                              common::TraceRecorder* recorder,
                              common::DropLedger* ledger) {
  emitted_ = &registry.counter(prefix + ".emitted");
  poll_failures_ = &registry.counter(prefix + ".poll_failures");
  lag_ = &registry.gauge(prefix + ".lag");
  // Absolute gauge, so every task of a spout group needs its own (the
  // shared counters above accumulate correctly across tasks; a shared
  // gauge would let one task's set() hide another's buffered backlog and
  // break engine.reconcile()).
  buffered_records_ = &registry.gauge(prefix + ".task" + std::to_string(task_) +
                                      ".buffered_records");
  tracer_ = tracer;
  recorder_ = recorder;
  ledger_ = ledger;
  if (&registry != owned_metrics_.get()) owned_metrics_.reset();
}

bool KafkaSpout::next_tuple(Collector& out, common::Timestamp now) {
  if (buffer_.empty()) {
    if (faults_ != nullptr && faults_->should_fail(kFaultSpoutPoll)) {
      // Transient fetch failure: nothing is consumed, offsets are
      // untouched, the broker keeps the data for the next poll.
      poll_failures_->inc();
      if (ledger_ != nullptr) {
        ledger_->add(common::DropCause::consume_poll_failure);
      }
      return false;
    }
    auto batch = consumer_.poll_batch(topic_, poll_batch_);
    for (auto& r : batch.records) {
      buffered_records_value_ += r.records;
      buffer_.push_back(std::move(r));
    }
    buffered_records_->set(static_cast<std::int64_t>(buffered_records_value_));
    // Consumer lag after the fetch: what the brokers still hold for this
    // topic beyond what we just pulled (retention-based depth).
    lag_->set(static_cast<std::int64_t>(cluster_.depth(topic_)));
  }
  if (buffer_.empty()) return false;

  const mq::FetchedRecord& msg = buffer_.front();
  if (tracer_ != nullptr) {
    tracer_->stamp(common::StageTracer::Stage::consume, now, msg.append_ts);
  }
  if (recorder_ != nullptr) {
    for (const std::uint64_t trace : msg.traces) {
      recorder_->stamp(trace, common::TraceStage::consume, msg.append_ts, now);
    }
  }
  out.emit(Tuple{{std::string(common::as_string_view(msg.payload))}});
  buffered_records_value_ -= msg.records;
  buffered_records_->set(static_cast<std::int64_t>(buffered_records_value_));
  buffer_.pop_front();
  emitted_->inc();
  return true;
}

}  // namespace netalytics::stream
