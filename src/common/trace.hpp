// Trace provenance & drop accounting (see DESIGN.md): the answer to "a
// packet entered a monitor — did it become a result tuple, and if
// not, which stage dropped it and why?". Two complementary mechanisms:
//
//  * TraceRecorder — a sampled flight recorder. A deterministic 1/N of
//    ingested packets get a 64-bit trace id stamped at the monitor and
//    carried through record serialization, mq messages and stream tuples;
//    every hand-off emits a virtual-time TraceSpan into a lock-free
//    per-thread span buffer. collect() merges and content-sorts the spans,
//    so two identical virtual-time runs collect identical spans;
//    obs::ChromeTraceExporter is their text form.
//
//  * DropLedger — unsampled, always-on conservation accounting. Every
//    discard site in the pipeline increments a per-cause counter in the
//    registry ("<prefix>.<stage>.<cause>"), which is what lets
//    engine.reconcile() prove packets_in == tuples_out + Σ(drops) exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"

namespace netalytics::common {

/// Pipeline hand-off points a trace id passes through, in pipeline order.
enum class TraceStage : std::uint8_t {
  ingest,   // packet admitted by the monitor (decode + sampler passed)
  emit,     // parser record left the monitor in a shipped batch
  produce,  // producer delivered the record's message to a broker
  consume,  // spout polled the message out of the broker
  execute,  // a stream bolt executed a tuple carrying this trace
  deliver,  // result tuple reached the query's sink
};
inline constexpr std::size_t kTraceStageCount = 6;
std::string_view trace_stage_name(TraceStage s) noexcept;

/// One virtual-time interval of one trace at one stage.
struct TraceSpan {
  std::uint64_t trace = 0;
  TraceStage stage = TraceStage::ingest;
  Timestamp start = 0;
  Timestamp end = 0;

  bool operator==(const TraceSpan&) const = default;
};

/// Sampled span collector. stamp() is wait-free on the hot path: each
/// thread owns a fixed-capacity slab (single writer, no CAS; the slab head
/// is published with a release store so collect() on another thread reads
/// fully-written spans). A full slab drops further spans and counts them —
/// flight-recorder semantics with deterministic content: collect() sorts by
/// (trace, stage, start, end), never by arrival interleaving.
class TraceRecorder {
 public:
  struct Config {
    /// 1-in-N packets get a trace id; 0 disables tracing entirely (stamp()
    /// and sample() become no-ops), 1 traces every packet.
    std::uint64_t sample_denominator = 0;
    /// Spans retained per recording thread before new spans are dropped.
    std::size_t capacity_per_thread = 4096;
  };

  // Two constructors instead of `Config config = {}`: a nested aggregate's
  // default member initializers are not usable until the enclosing class is
  // complete, so the brace-init default argument would not compile.
  TraceRecorder();
  explicit TraceRecorder(Config config);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const noexcept { return config_.sample_denominator != 0; }
  const Config& config() const noexcept { return config_; }

  /// Deterministic sampling decision: keyed on a hash of the packet's flow
  /// hash and timestamp, so identical virtual runs trace identical packets.
  bool sample(std::uint64_t key) const noexcept {
    const auto d = config_.sample_denominator;
    return d != 0 && (d == 1 || mix64(key ^ kSampleSalt) % d == 0);
  }

  /// Trace id for a sampled packet; nonzero and deterministic.
  static std::uint64_t trace_id(std::uint64_t flow_hash, Timestamp ts) noexcept {
    const std::uint64_t id = mix64(flow_hash ^ mix64(ts ^ kIdSalt));
    return id == 0 ? 1 : id;
  }

  /// Begin a trace for an admitted packet (ingest span stamped) and return
  /// its id, or 0 when the packet is not sampled.
  std::uint64_t begin(std::uint64_t flow_hash, Timestamp ts) noexcept;

  /// Record one span. No-op when disabled or trace == 0.
  void stamp(std::uint64_t trace, TraceStage stage, Timestamp start,
             Timestamp end) noexcept;

  /// All recorded spans, content-sorted (deterministic across runs).
  std::vector<TraceSpan> collect() const;
  std::size_t span_count() const;
  /// Spans rejected because a thread's slab filled up.
  std::uint64_t dropped_spans() const;

 private:
  struct Slab;
  Slab* local_slab() const;

  static constexpr std::uint64_t kSampleSalt = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t kIdSalt = 0xc2b2ae3d27d4eb4fULL;

  Config config_;
  std::uint64_t recorder_id_;  // process-unique; keys the thread-local cache
  mutable std::mutex slabs_mutex_;
  mutable std::vector<std::unique_ptr<Slab>> slabs_;
};

/// Named causes for every way the pipeline discards (or defers) data, in
/// pipeline order. The first block are loss causes that appear in the
/// reconciliation sum; the last two are bookkeeping causes (a failed poll
/// retries, a window eviction happens after aggregation consumed the data)
/// that the ledger still surfaces for operators.
enum class DropCause : std::uint8_t {
  ingest_ring_overflow,      // monitor ingress full (packets)
  ingest_decode_error,       // frame failed to decode (packets)
  sample_rejected,           // flow sampler dropped it (packets)
  parse_error,               // parser threw (packet-dispatches)
  parse_no_output,           // parsed fine, emitted no record (packet-dispatches)
  produce_buffer_overflow,   // producer send-buffer full (records)
  produce_retries_exhausted, // abandoned after max_attempts (records)
  broker_retention,          // evicted unread by capacity/age retention (records)
  consume_poll_failure,      // spout poll failed; data retries (events)
  stream_window_eviction,    // windowed bolt shed state (entries)
};
inline constexpr std::size_t kDropCauseCount = 10;
/// "<stage>.<cause>", e.g. "ingest.ring_overflow".
std::string_view drop_cause_name(DropCause c) noexcept;
/// True for causes that appear in the reconciliation conservation sum.
bool drop_cause_is_loss(DropCause c) noexcept;

/// The unsampled half of provenance: per-cause discard counters resolved in
/// a registry under "<prefix>.<stage>.<cause>". add() is one relaxed atomic
/// add, so the ledger is always on.
class DropLedger {
 public:
  DropLedger(MetricsRegistry& registry, const std::string& prefix = "drop");

  void add(DropCause c, std::uint64_t n = 1) noexcept {
    counters_[static_cast<std::size_t>(c)]->inc(n);
  }
  std::uint64_t value(DropCause c) const noexcept {
    return counters_[static_cast<std::size_t>(c)]->value();
  }
  /// Sum over loss causes only (the reconciliation term).
  std::uint64_t total_losses() const noexcept;

 private:
  Counter* counters_[kDropCauseCount];
};

}  // namespace netalytics::common
