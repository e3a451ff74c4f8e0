// Output interface (§5.2): "reorganizes processed data in a specific format
// and outputs the message via a TCP socket or Kafka producer". Records are
// grouped by topic and shipped in batches to cut per-tuple overhead
// ("NetAlytics further reduces the overhead of transmitting data tuples by
// aggregating tuples produced by all parsers and having the monitor send
// them in batches", §3.1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "nf/parser.hpp"
#include "nf/record.hpp"

namespace netalytics::nf {

/// What a shipped batch carries besides its serialized bytes: the record
/// count (exact drop accounting downstream works in records, not batches)
/// and the trace ids of the sampled records inside it. Views are only valid
/// for the duration of the sink call.
struct BatchInfo {
  std::size_t records = 0;
  /// Virtual ship time; 0 = unknown (a flush() without a time).
  common::Timestamp ship_time = 0;
  std::span<const std::uint64_t> traces;
};

/// Downstream of the monitor: the core layer wires this to an mq producer.
/// The monitor calls it on its caller's thread. The topic view is only
/// valid for the duration of the call.
using BatchSink = std::function<void(std::string_view topic,
                                     std::vector<std::byte> payload,
                                     const BatchInfo& info)>;

/// Per-parser-instance batching stage (each parser instance owns one);
/// shipped records, bytes and batches are counted in the registry counters
/// bind_counters() hands in.
class OutputInterface final : public RecordSink {
 public:
  OutputInterface(BatchSink sink, std::size_t batch_records = 64);

  void emit(Record record) override;

  /// Ship all partially-filled batches. `now` (virtual time) stamps the
  /// emit-stage latency of the shipped records; 0 means "time unknown",
  /// which skips the stamp.
  void flush(common::Timestamp now = 0);

  /// Route batching-delay stamps into `tracer` (emit stage). The tracer
  /// must outlive this interface.
  void set_tracer(common::StageTracer* tracer) noexcept { tracer_ = tracer; }

  /// Route per-trace emit spans into `recorder` (must outlive this
  /// interface). Null disables span recording.
  void set_trace_recorder(common::TraceRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Provenance context for subsequently emitted records: the monitor sets
  /// this to the current packet's trace id (0 = untraced) before running
  /// the parser, so every record the parser emits inherits it.
  void set_current_trace(std::uint64_t trace) noexcept {
    current_trace_ = trace;
  }

  /// Mirror ship() accounting into registry counters that outlive this
  /// interface (all parser instances of a monitor share the same three).
  /// Null pointers are allowed and skipped.
  void bind_counters(common::Counter* records, common::Counter* bytes,
                     common::Counter* batches) noexcept {
    records_ctr_ = records;
    bytes_ctr_ = bytes;
    batches_ctr_ = batches;
  }

  /// Records emitted so far, including ones still pending in open batches
  /// (the bound records counter lags this by the pending count: it counts
  /// at ship()).
  std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  void ship(std::string_view topic, std::vector<Record>& batch,
            common::Timestamp ship_time);

  BatchSink sink_;
  common::StageTracer* tracer_ = nullptr;
  common::TraceRecorder* recorder_ = nullptr;
  std::uint64_t current_trace_ = 0;
  std::vector<std::uint64_t> trace_scratch_;  // reused per ship()
  common::Counter* records_ctr_ = nullptr;
  common::Counter* bytes_ctr_ = nullptr;
  common::Counter* batches_ctr_ = nullptr;
  std::size_t batch_records_;
  std::map<std::string, std::vector<Record>, std::less<>> pending_;
  std::uint64_t emitted_ = 0;
};

}  // namespace netalytics::nf
