#include "nf/monitor.hpp"

#include <stdexcept>

#include "common/hash.hpp"
#include "net/decode.hpp"

namespace netalytics::nf {

Monitor::Monitor(MonitorConfig config, BatchSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      sampler_(config_.sample_rate) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<common::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const std::string& p = config_.metrics_prefix;
  rx_packets_ = &metrics_->counter(p + ".rx_packets");
  rx_dropped_ = &metrics_->counter(p + ".rx_dropped");
  decode_failed_ = &metrics_->counter(p + ".decode_failed");
  sampled_out_ = &metrics_->counter(p + ".sampled_out");
  dispatched_ = &metrics_->counter(p + ".dispatched");
  parser_errors_ = &metrics_->counter(p + ".parser_errors");
  parsed_ = &metrics_->counter(p + ".parsed");
  parse_no_output_ = &metrics_->counter(p + ".parse_no_output");
  parse_with_output_ = &metrics_->counter(p + ".parse_with_output");
  extra_records_ = &metrics_->counter(p + ".extra_records");
  tick_records_ = &metrics_->counter(p + ".tick_records");
  raw_bytes_ = &metrics_->counter(p + ".raw_bytes");
  records_ = &metrics_->counter(p + ".records");
  record_bytes_ = &metrics_->counter(p + ".record_bytes");
  batches_ = &metrics_->counter(p + ".batches");
  groups_.reserve(config_.parsers.size());
  for (const auto& spec : config_.parsers) {
    ParserGroup group;
    group.name = spec.name;
    const std::size_t instances = spec.workers == 0 ? 1 : spec.workers;
    group.instances.reserve(instances);
    for (std::size_t i = 0; i < instances; ++i) {
      Instance in;
      in.parser = ParserRegistry::instance().make(spec.name);
      in.output =
          std::make_unique<OutputInterface>(sink_, config_.output_batch_records);
      in.output->set_tracer(config_.tracer);
      in.output->set_trace_recorder(config_.trace_recorder);
      in.output->bind_counters(records_, record_bytes_, batches_);
      group.instances.push_back(std::move(in));
    }
    groups_.push_back(std::move(group));
  }
}

void Monitor::parse_guarded(Instance& in, const net::DecodedPacket& decoded,
                            std::uint64_t trace) {
  in.output->set_current_trace(trace);
  const std::uint64_t before = in.output->emitted();
  try {
    if (faults_ != nullptr &&
        faults_->should_fail(kFaultParserThrow, decoded.timestamp)) {
      throw std::runtime_error("injected parser fault");
    }
    in.parser->on_packet(decoded, *in.output);
    parsed_->inc();
    raw_bytes_->inc(decoded.frame.size());
    const std::uint64_t emitted = in.output->emitted() - before;
    if (emitted == 0) {
      // Parsed cleanly but produced nothing — a sink for conservation
      // accounting, distinct from an error.
      drop(common::DropCause::parse_no_output, *parse_no_output_);
    } else {
      parse_with_output_->inc();
      // Fan-out beyond one record per packet-dispatch; reconcile subtracts
      // this so packets and records stay comparable.
      if (emitted > 1) extra_records_->inc(emitted - 1);
    }
  } catch (const std::exception&) {
    // Parsers meet garbage at cloud scale; a throw costs one packet, never
    // the monitor. The count surfaces in MonitorStats::parser_errors.
    drop(common::DropCause::parse_error, *parser_errors_);
    // Anything emitted before the throw is surplus relative to the packet
    // we just wrote off as lost.
    const std::uint64_t emitted = in.output->emitted() - before;
    if (emitted != 0) extra_records_->inc(emitted);
  }
  in.output->set_current_trace(0);
}

bool Monitor::admit(common::Timestamp ts) noexcept {
  rx_packets_->inc();
  if (faults_ != nullptr && faults_->should_fail(kFaultRxOverflow, ts)) {
    drop(common::DropCause::ingest_ring_overflow, *rx_dropped_);
    return false;
  }
  return true;
}

void Monitor::process(std::span<const std::byte> frame, common::Timestamp ts) {
  if (!admit(ts)) return;
  auto decoded = net::decode_packet(frame);
  if (!decoded) {
    drop(common::DropCause::ingest_decode_error, *decode_failed_);
    return;
  }
  decoded->timestamp = ts;
  parse_admitted(*decoded);
}

void Monitor::process(const net::DecodedPacket& pkt) {
  if (admit(pkt.timestamp)) parse_admitted(pkt);
}

void Monitor::parse_admitted(const net::DecodedPacket& pkt) {
  if (!sampler_.keep(pkt.bidirectional_flow_hash)) {
    drop(common::DropCause::sample_rejected, *sampled_out_);
    return;
  }
  std::uint64_t trace = 0;
  if (config_.trace_recorder != nullptr) {
    trace = config_.trace_recorder->begin(pkt.bidirectional_flow_hash,
                                          pkt.timestamp);
  }
  for (auto& group : groups_) {
    // Flow-id dispatch: both directions of a connection land on the same
    // instance, so per-flow parser state never splits.
    const std::size_t idx =
        group.instances.size() == 1
            ? 0
            : common::hash_to_bucket(pkt.bidirectional_flow_hash,
                                     group.instances.size());
    parse_guarded(group.instances[idx], pkt, trace);
    dispatched_->inc();
  }
}

void Monitor::tick(common::Timestamp now) {
  for (auto& group : groups_) {
    for (auto& in : group.instances) {
      const std::uint64_t before = in.output->emitted();
      in.parser->on_tick(now, *in.output);
      // Records emitted here come from aggregation windows, not from any one
      // packet; reconcile subtracts them from the record stream.
      const std::uint64_t emitted = in.output->emitted() - before;
      if (emitted != 0) tick_records_->inc(emitted);
      // Ship partially-filled batches so downstream latency is bounded by
      // the tick interval even at low record rates.
      in.output->flush(now);
    }
  }
}

void Monitor::close(common::Timestamp now) {
  for (auto& group : groups_) {
    for (auto& in : group.instances) {
      const std::uint64_t before = in.output->emitted();
      in.parser->on_close(now, *in.output);
      const std::uint64_t emitted = in.output->emitted() - before;
      if (emitted != 0) tick_records_->inc(emitted);
      in.output->flush(now);
    }
  }
}

MonitorStats Monitor::stats() const {
  MonitorStats s;
  s.rx_packets = rx_packets_->value();
  s.rx_dropped = rx_dropped_->value();
  s.decode_failed = decode_failed_->value();
  s.sampled_out = sampled_out_->value();
  s.dispatched = dispatched_->value();
  s.parser_errors = parser_errors_->value();
  s.parsed = parsed_->value();
  s.raw_bytes = raw_bytes_->value();
  s.records = records_->value();
  s.record_bytes = record_bytes_->value();
  return s;
}

}  // namespace netalytics::nf
