// The NetAlytics monitor (§5.1-5.2, Fig. 3): decode -> flow sampler ->
// per-parser instances -> output interface, run to completion on the
// caller's thread. Design pillars from the paper, as they stand here:
//   * decode once: the fabric hands the monitor the DecodedPacket it
//     already made, so a mirrored frame is never decoded again;
//   * flow-id dispatch: a parser with N instances hashes each packet's
//     bidirectional flow to one of them, so per-flow state stays with one
//     instance;
//   * batching: records leave in per-topic batches;
//   * sampling: flow-hash sampling drops early, before any parser work.
// The paper's DPDK collector feeding per-core parser threads through SPSC
// rings is not reproduced: a monitor scales by running more monitors (one
// per rack on one deterministic pump), as D-STREAMON does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "nf/output.hpp"
#include "nf/parser.hpp"
#include "nf/sampler.hpp"

namespace netalytics::nf {

/// Fault sites the monitor checks when a FaultPlan is installed:
/// - nf.ring.overflow: ingress pretends to be full (packet dropped, counted
///   in rx_dropped) — in both process() entries.
/// - nf.parser.throw:  the parser throws mid-packet; the monitor catches,
///   counts parser_errors, and keeps going.
inline constexpr std::string_view kFaultRxOverflow = "nf.ring.overflow";
inline constexpr std::string_view kFaultParserThrow = "nf.parser.throw";

struct ParserSpec {
  std::string name;
  std::size_t workers = 1;  // parser instances, chosen per packet by flow hash
};

struct MonitorConfig {
  std::vector<ParserSpec> parsers;
  std::size_t output_batch_records = 64;
  double sample_rate = 1.0;

  /// Registry the monitor's counters live in. Null = the monitor owns a
  /// private registry (standalone use); the engine always binds its own and
  /// prefixes per query/monitor ("q<id>.mon<j>").
  common::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "nf.monitor";
  /// Optional per-query pipeline tracer; forwarded to every parser
  /// instance's output interface for emit-stage (batching delay) stamps.
  common::StageTracer* tracer = nullptr;
  /// Optional trace-provenance recorder: a deterministic 1-in-N of admitted
  /// packets get a trace id stamped at ingest and carried onto the records
  /// their parsers emit.
  common::TraceRecorder* trace_recorder = nullptr;
  /// Optional drop ledger: every discard the monitor makes (ingress
  /// overflow, decode failure, sampler rejection, parser error, parse with
  /// no output) is attributed to its cause.
  common::DropLedger* drop_ledger = nullptr;
};

/// Thin typed view over the monitor's registry counters. The numbers live
/// in the MetricsRegistry; this struct is a convenience copy for tests and
/// reports, not a parallel store.
struct MonitorStats {
  std::uint64_t rx_packets = 0;       // packets offered to the monitor
  std::uint64_t rx_dropped = 0;       // ingress overflow
  std::uint64_t decode_failed = 0;    // frames that failed to decode
  std::uint64_t sampled_out = 0;      // dropped by the flow sampler
  std::uint64_t dispatched = 0;       // packets handed to a parser group
  std::uint64_t parsed = 0;           // packets run through a parser
  std::uint64_t records = 0;          // records emitted (all instances)
  std::uint64_t record_bytes = 0;     // serialized record bytes shipped
  std::uint64_t raw_bytes = 0;        // raw bytes of parsed packets
  std::uint64_t parser_errors = 0;    // packets whose parser threw (survived)
};

/// A software NF monitor. Every call runs on the caller's thread, so runs
/// under virtual time are deterministic.
class Monitor {
 public:
  Monitor(MonitorConfig config, BatchSink sink);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Decode/sample/parse one raw frame (the raw-bytes ingress: replay and
  /// standalone use).
  void process(std::span<const std::byte> frame, common::Timestamp ts);
  /// Sample/parse one packet already decoded upstream — the fabric entry a
  /// mirror port calls, so the monitor never decodes a mirrored frame again.
  /// `pkt.timestamp` is the arrival time.
  void process(const net::DecodedPacket& pkt);
  /// Run aggregating parsers' periodic flush.
  void tick(common::Timestamp now);
  /// Flush parser state and pending output batches.
  void close(common::Timestamp now);

  MonitorStats stats() const;
  double sample_rate() const noexcept { return sampler_.rate(); }
  /// Feedback-driven sampling hook (§4.2).
  void set_sample_rate(double rate) noexcept { sampler_.set_rate(rate); }
  void on_backpressure() noexcept { sampler_.decrease(); }

  /// Install (or clear) a chaos plan. Call before the first process().
  void install_faults(common::FaultPlan* plan) noexcept { faults_ = plan; }

  const MonitorConfig& config() const noexcept { return config_; }

 private:
  struct Instance {
    std::unique_ptr<PacketParser> parser;
    std::unique_ptr<OutputInterface> output;
  };

  struct ParserGroup {
    std::string name;
    std::vector<Instance> instances;
  };

  /// Run one packet through a parser, absorbing (and counting) anything it
  /// throws — injected or real — so one bad packet never kills the monitor.
  /// `trace` tags the records this packet produces (0 = untraced).
  void parse_guarded(Instance& in, const net::DecodedPacket& decoded,
                     std::uint64_t trace);
  /// Ingress shared by both process() entries: count the packet and consult
  /// the RX-overflow fault site. False = dropped.
  bool admit(common::Timestamp ts) noexcept;
  /// Sample -> trace -> parse of one admitted, decoded packet.
  void parse_admitted(const net::DecodedPacket& pkt);
  void drop(common::DropCause cause, common::Counter& counter) noexcept {
    counter.inc();
    if (config_.drop_ledger != nullptr) config_.drop_ledger->add(cause);
  }

  MonitorConfig config_;
  BatchSink sink_;
  common::FaultPlan* faults_ = nullptr;
  FlowSampler sampler_;
  std::vector<ParserGroup> groups_;

  // Counters live in the bound (or owned fallback) registry; the monitor
  // keeps resolved pointers so the hot path stays one relaxed add.
  std::unique_ptr<common::MetricsRegistry> owned_metrics_;
  common::MetricsRegistry* metrics_ = nullptr;
  common::Counter* rx_packets_ = nullptr;
  common::Counter* rx_dropped_ = nullptr;
  common::Counter* decode_failed_ = nullptr;
  common::Counter* sampled_out_ = nullptr;
  common::Counter* dispatched_ = nullptr;
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
};

}  // namespace netalytics::nf
