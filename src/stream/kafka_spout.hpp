// The spout linking the stream engine to the aggregation layer (§5.3):
// fetches one topic of the mq cluster through a consumer-group member
// (mq::Consumer::poll_batch) and emits each record's payload as a
// [payload:string] tuple for the parsing bolt. Pull-based, so when the
// processors fall behind, data accumulates in the brokers — the behaviour
// the feedback-sampling loop reacts to.
#pragma once

#include <deque>
#include <string>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "mq/consumer.hpp"
#include "stream/topology.hpp"

namespace netalytics::stream {

/// Fault site: an armed "stream.spout.poll" makes a poll fail transiently —
/// the spout reports no tuple and the data waits in the brokers, exactly
/// like a dropped fetch against a real Kafka; the next poll picks it up.
inline constexpr std::string_view kFaultSpoutPoll = "stream.spout.poll";

class KafkaSpout final : public Spout {
 public:
  /// The spout's consumer joins `group` as a coordinator member
  /// (mq/group.hpp): N spout tasks sharing one group name split the
  /// topic's partitions deterministically — the task-index order they are
  /// constructed in is their member-rank order — and a lone spout owns
  /// every partition. `task` distinguishes this instance's absolute gauges
  /// (buffered_records) when several tasks bind the same metrics prefix.
  KafkaSpout(mq::Cluster& cluster, std::string group, std::string topic,
             std::size_t poll_batch = 64, common::FaultPlan* faults = nullptr,
             std::size_t task = 0);

  bool next_tuple(Collector& out, common::Timestamp now) override;

  std::uint64_t messages_emitted() const noexcept { return emitted_->value(); }
  std::uint64_t poll_failures() const noexcept { return poll_failures_->value(); }

  /// Re-home counters into `registry` under `prefix` ("<prefix>.emitted",
  /// ".poll_failures", a ".lag" gauge: messages buffered in the brokers
  /// for this topic, refreshed at every poll, and ".task<i>.buffered_records":
  /// the parser records sitting in *this task's* local buffer — per-task
  /// because it is an absolute gauge, while the counters are shared across
  /// all tasks of a spout group). When `tracer` is
  /// given, each emitted message stamps the consume stage (broker append ->
  /// spout poll); `recorder` gets per-trace consume spans; `ledger` gets
  /// failed polls (consume_poll_failure — bookkeeping, the data retries).
  /// Bind before the first next_tuple.
  void bind_metrics(common::MetricsRegistry& registry, const std::string& prefix,
                    common::StageTracer* tracer = nullptr,
                    common::TraceRecorder* recorder = nullptr,
                    common::DropLedger* ledger = nullptr);

  /// Parser records held in the local poll buffer (in-flight for
  /// engine.reconcile()).
  std::uint64_t buffered_records() const noexcept { return buffered_records_value_; }

  /// The spout's group member identity — mq-level churn tests leave() /
  /// rejoin() through this; the engine-level equivalent drives churn via
  /// the cluster's coordinator directly.
  mq::Consumer& consumer() noexcept { return consumer_; }

 private:
  mq::Cluster& cluster_;
  mq::Consumer consumer_;
  std::string topic_;
  std::size_t task_ = 0;
  std::size_t poll_batch_;
  common::FaultPlan* faults_;
  // FetchedRecord: the zero-copy fetch result, so nothing per-message
  // (topic strings included) is allocated between broker log and tuple
  // emission.
  std::deque<mq::FetchedRecord> buffer_;
  // Counters live in the bound (or owned fallback) registry.
  std::unique_ptr<common::MetricsRegistry> owned_metrics_;
  common::Counter* emitted_ = nullptr;
  common::Counter* poll_failures_ = nullptr;
  common::Gauge* lag_ = nullptr;
  common::Gauge* buffered_records_ = nullptr;
  std::uint64_t buffered_records_value_ = 0;
  common::StageTracer* tracer_ = nullptr;
  common::TraceRecorder* recorder_ = nullptr;
  common::DropLedger* ledger_ = nullptr;
};

}  // namespace netalytics::stream
