// The NetAlytics monitor (§5.1-5.2, Fig. 3): Collector -> per-parser SPSC
// descriptor queues -> parser workers -> output interface. Design pillars
// from the paper, all present here:
//   * zero-copy: queues carry refcounted packet descriptors, never bytes;
//   * lockless: the hot path uses SPSC rings only;
//   * multi-level queuing: an RX ring feeds per-worker rings, one ring and
//     one parser instance per worker thread;
//   * batching: bursts at every ring hop and batched record output;
//   * sampling: flow-hash sampling drops early, before any parser work.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/spsc_ring.hpp"
#include "net/packet.hpp"
#include "nf/output.hpp"
#include "nf/parser.hpp"
#include "nf/sampler.hpp"

namespace netalytics::nf {

/// Fault sites the monitor checks when a FaultPlan is installed:
/// - nf.ring.overflow:   the RX ring pretends to be full (packet dropped,
///   counted in rx_dropped) — in inject() and inline process().
/// - nf.worker.overflow: a worker ring pretends to be full (counted in
///   worker_dropped) — in dispatch().
/// - nf.parser.throw:    the parser throws mid-packet; the monitor catches,
///   counts parser_errors, and keeps going.
inline constexpr std::string_view kFaultRxOverflow = "nf.ring.overflow";
inline constexpr std::string_view kFaultWorkerOverflow = "nf.worker.overflow";
inline constexpr std::string_view kFaultParserThrow = "nf.parser.throw";

struct ParserSpec {
  std::string name;
  std::size_t workers = 1;  // worker threads (and parser instances)
};

struct MonitorConfig {
  std::vector<ParserSpec> parsers;
  std::size_t rx_ring_capacity = 8192;
  std::size_t output_batch_records = 64;
  double sample_rate = 1.0;

  /// Registry the monitor's counters live in. Null = the monitor owns a
  /// private registry (standalone use); the engine always binds its own and
  /// prefixes per query/monitor ("q<id>.mon<j>").
  common::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "nf.monitor";
  /// Optional per-query pipeline tracer; forwarded to every worker's output
  /// interface for emit-stage (batching delay) stamps.
  common::StageTracer* tracer = nullptr;
  /// Optional trace-provenance recorder: a deterministic 1-in-N of admitted
  /// packets get a trace id stamped at ingest and carried onto the records
  /// their parsers emit.
  common::TraceRecorder* trace_recorder = nullptr;
  /// Optional drop ledger: every discard the monitor makes (ring overflow,
  /// decode failure, sampler rejection, worker overflow, parser error,
  /// parse with no output) is attributed to its cause.
  common::DropLedger* drop_ledger = nullptr;
};

/// Thin typed view over the monitor's registry counters. The numbers live
/// in the MetricsRegistry; this struct is a convenience copy for tests and
/// reports, not a parallel store.
struct MonitorStats {
  std::uint64_t rx_packets = 0;       // packets offered to the monitor
  std::uint64_t rx_dropped = 0;       // RX ring full
  std::uint64_t decode_failed = 0;    // frames that failed to decode
  std::uint64_t sampled_out = 0;      // dropped by the flow sampler
  std::uint64_t dispatched = 0;       // descriptors enqueued to workers
  std::uint64_t worker_dropped = 0;   // worker ring full
  std::uint64_t parsed = 0;           // packets run through a parser
  std::uint64_t records = 0;          // records emitted (all workers)
  std::uint64_t record_bytes = 0;     // serialized record bytes shipped
  std::uint64_t raw_bytes = 0;        // raw bytes of parsed packets
  std::uint64_t parser_errors = 0;    // packets whose parser threw (survived)
};

/// A software NF monitor. Two execution modes:
///  - threaded: start()/stop() spawn the collector and worker threads and
///    packets are delivered with inject() (used by throughput benches);
///  - inline: process() runs collect+parse on the caller's thread (used by
///    deterministic simulations and tests).
class Monitor {
 public:
  Monitor(MonitorConfig config, BatchSink sink);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // ---- threaded mode ----
  void start();
  /// Stop threads, drain rings, flush outputs.
  void stop();
  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  /// Offer a packet to the RX ring; false = dropped (ring full).
  bool inject(net::PacketPtr pkt) noexcept;

  // ---- inline mode ----
  /// Decode/sample/parse one raw frame synchronously on this thread (the
  /// raw-bytes ingress: replay and standalone use).
  void process(std::span<const std::byte> frame, common::Timestamp ts);
  /// Sample/parse one packet already decoded upstream — the fabric entry a
  /// mirror port calls, so the monitor never decodes a mirrored frame again.
  /// `pkt.timestamp` is the arrival time.
  void process(const net::DecodedPacket& pkt);
  /// Run aggregating parsers' periodic flush (inline mode).
  void tick(common::Timestamp now);
  /// Flush parser state and pending output batches (inline mode).
  void close(common::Timestamp now);

  MonitorStats stats() const;
  double sample_rate() const noexcept { return sampler_.rate(); }
  /// Feedback-driven sampling hook (§4.2).
  void set_sample_rate(double rate) noexcept { sampler_.set_rate(rate); }
  void on_backpressure() noexcept { sampler_.decrease(); }

  /// Install (or clear) a chaos plan. Call before start()/first process().
  void install_faults(common::FaultPlan* plan) noexcept { faults_ = plan; }

  const MonitorConfig& config() const noexcept { return config_; }

 private:
  struct WorkItem {
    net::PacketPtr pkt;
    net::DecodedPacket decoded;  // spans reference pkt's buffer
    std::uint64_t trace = 0;     // provenance id (0 = untraced)
  };

  struct Worker {
    std::unique_ptr<PacketParser> parser;
    std::unique_ptr<common::SpscRing<WorkItem>> ring;
    std::unique_ptr<OutputInterface> output;
    std::thread thread;
  };

  struct ParserGroup {
    std::string name;
    std::vector<std::unique_ptr<Worker>> workers;
  };

  void collector_loop();
  void worker_loop(Worker& w);
  /// Fan one decoded packet out to every parser group (flow-id dispatch).
  void dispatch(const net::PacketPtr& pkt, const net::DecodedPacket& decoded,
                std::uint64_t trace);
  /// Run one packet through a parser, absorbing (and counting) anything it
  /// throws — injected or real — so one bad packet never kills a worker.
  /// `trace` tags the records this packet produces (0 = untraced).
  void parse_guarded(Worker& w, const net::DecodedPacket& decoded,
                     std::size_t raw_size, std::uint64_t trace);
  /// Inline ingress shared by both process() entries: count the packet and
  /// consult the RX-overflow fault site. False = dropped.
  bool admit(common::Timestamp ts) noexcept;
  /// Inline sample -> trace -> parse of one admitted, decoded packet.
  void parse_inline(const net::DecodedPacket& pkt);
  void drop(common::DropCause cause, common::Counter& counter) noexcept {
    counter.inc();
    if (config_.drop_ledger != nullptr) config_.drop_ledger->add(cause);
  }

  MonitorConfig config_;
  BatchSink sink_;
  common::FaultPlan* faults_ = nullptr;
  FlowSampler sampler_;
  common::SpscRing<net::PacketPtr> rx_ring_;
  std::vector<ParserGroup> groups_;

  std::atomic<bool> running_{false};
  std::atomic<bool> collector_done_{false};
  std::thread collector_thread_;

  // Counters live in the bound (or owned fallback) registry; the monitor
  // keeps resolved pointers so the hot path stays one relaxed add.
  std::unique_ptr<common::MetricsRegistry> owned_metrics_;
  common::MetricsRegistry* metrics_ = nullptr;
  common::Counter* rx_packets_ = nullptr;
  common::Counter* rx_dropped_ = nullptr;
  common::Counter* decode_failed_ = nullptr;
  common::Counter* sampled_out_ = nullptr;
  common::Counter* dispatched_ = nullptr;
  common::Counter* worker_dropped_ = nullptr;
  common::Counter* parser_errors_ = nullptr;
  common::Counter* parsed_ = nullptr;
  common::Counter* parse_no_output_ = nullptr;
  common::Counter* parse_with_output_ = nullptr;
  common::Counter* extra_records_ = nullptr;
  common::Counter* tick_records_ = nullptr;
  common::Counter* raw_bytes_ = nullptr;
  common::Counter* records_ = nullptr;
  common::Counter* record_bytes_ = nullptr;
  common::Counter* batches_ = nullptr;
  common::Gauge* rx_depth_ = nullptr;            // threaded mode ring depth
  common::HistogramMetric* parse_time_ = nullptr;  // wall-clock, threaded mode
};

}  // namespace netalytics::nf
