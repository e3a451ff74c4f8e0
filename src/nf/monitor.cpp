#include "nf/monitor.hpp"

#include <chrono>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "net/decode.hpp"

namespace netalytics::nf {

namespace {

constexpr std::size_t kWorkerRingCapacity = 4096;
/// Packets a collector or worker pops from its ring per bulk pop.
constexpr std::size_t kBurstSize = 32;
/// Wall-clock interval between a threaded worker's parser on_tick calls
/// (aggregating parsers flush here).
constexpr common::Duration kWorkerTickInterval = 100 * common::kMillisecond;

}  // namespace

Monitor::Monitor(MonitorConfig config, BatchSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      sampler_(config_.sample_rate),
      rx_ring_(config_.rx_ring_capacity) {
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
  worker_dropped_ = &metrics_->counter(p + ".worker_dropped");
  parser_errors_ = &metrics_->counter(p + ".parser_errors");
  parsed_ = &metrics_->counter(p + ".parsed");
  parse_no_output_ = &metrics_->counter(p + ".parse_no_output");
  parse_with_output_ = &metrics_->counter(p + ".parse_with_output");
  extra_records_ = &metrics_->counter(p + ".extra_records");
  tick_records_ = &metrics_->counter(p + ".tick_records");
  raw_bytes_ = &metrics_->counter(p + ".raw_bytes");
  rx_depth_ = &metrics_->gauge(p + ".rx_ring_depth");
  parse_time_ = &metrics_->histogram(p + ".parse_time");
  records_ = &metrics_->counter(p + ".records");
  record_bytes_ = &metrics_->counter(p + ".record_bytes");
  batches_ = &metrics_->counter(p + ".batches");
  groups_.reserve(config_.parsers.size());
  for (const auto& spec : config_.parsers) {
    ParserGroup group;
    group.name = spec.name;
    const std::size_t workers = spec.workers == 0 ? 1 : spec.workers;
    for (std::size_t w = 0; w < workers; ++w) {
      auto worker = std::make_unique<Worker>();
      worker->parser = ParserRegistry::instance().make(spec.name);
      worker->ring =
          std::make_unique<common::SpscRing<WorkItem>>(kWorkerRingCapacity);
      worker->output =
          std::make_unique<OutputInterface>(sink_, config_.output_batch_records);
      worker->output->set_tracer(config_.tracer);
      worker->output->set_trace_recorder(config_.trace_recorder);
      worker->output->bind_counters(records_, record_bytes_, batches_);
      group.workers.push_back(std::move(worker));
    }
    groups_.push_back(std::move(group));
  }
}

Monitor::~Monitor() {
  if (running()) stop();
}

void Monitor::start() {
  if (running()) return;
  collector_done_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& group : groups_) {
    for (auto& worker : group.workers) {
      worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
    }
  }
  collector_thread_ = std::thread([this] { collector_loop(); });
}

void Monitor::stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  if (collector_thread_.joinable()) collector_thread_.join();
  for (auto& group : groups_) {
    for (auto& worker : group.workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
}

bool Monitor::inject(net::PacketPtr pkt) noexcept {
  rx_packets_->inc();
  if (faults_ != nullptr &&
      faults_->should_fail(kFaultRxOverflow, pkt ? pkt->timestamp() : 0)) {
    drop(common::DropCause::ingest_ring_overflow, *rx_dropped_);
    return false;
  }
  if (!rx_ring_.try_push(std::move(pkt))) {
    drop(common::DropCause::ingest_ring_overflow, *rx_dropped_);
    return false;
  }
  rx_depth_->add(1);
  return true;
}

void Monitor::dispatch(const net::PacketPtr& pkt, const net::DecodedPacket& decoded,
                       std::uint64_t trace) {
  for (auto& group : groups_) {
    // Flow-id dispatch: both directions of a connection land on the same
    // worker, so per-flow parser state is single-threaded by construction.
    const std::size_t idx =
        group.workers.size() == 1
            ? 0
            : common::hash_to_bucket(decoded.bidirectional_flow_hash,
                                     group.workers.size());
    Worker& w = *group.workers[idx];
    if (faults_ != nullptr &&
        faults_->should_fail(kFaultWorkerOverflow, decoded.timestamp)) {
      drop(common::DropCause::parse_worker_overflow, *worker_dropped_);
      continue;
    }
    WorkItem item{pkt, decoded, trace};
    if (w.ring->try_push(std::move(item))) {
      dispatched_->inc();
    } else {
      drop(common::DropCause::parse_worker_overflow, *worker_dropped_);
    }
  }
}

void Monitor::parse_guarded(Worker& w, const net::DecodedPacket& decoded,
                            std::size_t raw_size, std::uint64_t trace) {
  w.output->set_current_trace(trace);
  const std::uint64_t before = w.output->emitted();
  try {
    if (faults_ != nullptr &&
        faults_->should_fail(kFaultParserThrow, decoded.timestamp)) {
      throw std::runtime_error("injected parser fault");
    }
    w.parser->on_packet(decoded, *w.output);
    parsed_->inc();
    raw_bytes_->inc(raw_size);
    const std::uint64_t emitted = w.output->emitted() - before;
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
    // the worker. The count surfaces in MonitorStats::parser_errors.
    drop(common::DropCause::parse_error, *parser_errors_);
    // Anything emitted before the throw is surplus relative to the packet
    // we just wrote off as lost.
    const std::uint64_t emitted = w.output->emitted() - before;
    if (emitted != 0) extra_records_->inc(emitted);
  }
  w.output->set_current_trace(0);
}

void Monitor::collector_loop() {
  std::vector<net::PacketPtr> burst(kBurstSize);
  while (true) {
    const std::size_t n = rx_ring_.try_pop_bulk(burst);
    if (n == 0) {
      if (!running()) {
        collector_done_.store(true, std::memory_order_release);
        return;  // RX drained after stop
      }
      std::this_thread::yield();
      continue;
    }
    rx_depth_->add(-static_cast<std::int64_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      net::PacketPtr& pkt = burst[i];
      auto decoded = net::decode_packet(pkt->bytes());
      if (!decoded) {
        drop(common::DropCause::ingest_decode_error, *decode_failed_);
        pkt.reset();
        continue;
      }
      decoded->timestamp = pkt->timestamp();
      if (!sampler_.keep(decoded->bidirectional_flow_hash)) {
        drop(common::DropCause::sample_rejected, *sampled_out_);
        pkt.reset();
        continue;
      }
      std::uint64_t trace = 0;
      if (config_.trace_recorder != nullptr) {
        trace = config_.trace_recorder->begin(decoded->bidirectional_flow_hash,
                                              decoded->timestamp);
      }
      dispatch(pkt, *decoded, trace);
      pkt.reset();
    }
  }
}

void Monitor::worker_loop(Worker& w) {
  std::vector<WorkItem> burst(kBurstSize);
  common::Timestamp last_tick = common::wall_now_ns();
  while (true) {
    const std::size_t n = w.ring->try_pop_bulk(burst);
    if (n == 0) {
      if (collector_done_.load(std::memory_order_acquire)) break;
      const common::Timestamp now = common::wall_now_ns();
      if (now - last_tick >= kWorkerTickInterval) {
        w.parser->on_tick(now, *w.output);
        w.output->flush();
        last_tick = now;
      }
      std::this_thread::yield();
      continue;
    }
    // Wall-clock parse-time histogram: threaded mode only, so the virtual-
    // time (inline) paths stay clock-free and deterministic.
    const common::Timestamp t0 = common::wall_now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      WorkItem& item = burst[i];
      parse_guarded(w, item.decoded, item.pkt->size(), item.trace);
      item.pkt.reset();
    }
    const common::Timestamp t1 = common::wall_now_ns();
    if (t1 > t0) parse_time_->observe((t1 - t0) / n);
  }
  w.parser->on_close(common::wall_now_ns(), *w.output);
  w.output->flush();
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
  parse_inline(*decoded);
}

void Monitor::process(const net::DecodedPacket& pkt) {
  if (admit(pkt.timestamp)) parse_inline(pkt);
}

void Monitor::parse_inline(const net::DecodedPacket& pkt) {
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
    const std::size_t idx =
        group.workers.size() == 1
            ? 0
            : common::hash_to_bucket(pkt.bidirectional_flow_hash,
                                     group.workers.size());
    Worker& w = *group.workers[idx];
    parse_guarded(w, pkt, pkt.frame.size(), trace);
    dispatched_->inc();
  }
}

void Monitor::tick(common::Timestamp now) {
  for (auto& group : groups_) {
    for (auto& worker : group.workers) {
      const std::uint64_t before = worker->output->emitted();
      worker->parser->on_tick(now, *worker->output);
      // Records emitted here come from aggregation windows, not from any one
      // packet; reconcile subtracts them from the record stream.
      const std::uint64_t emitted = worker->output->emitted() - before;
      if (emitted != 0) tick_records_->inc(emitted);
      // Ship partially-filled batches so downstream latency is bounded by
      // the tick interval even at low record rates.
      worker->output->flush(now);
    }
  }
}

void Monitor::close(common::Timestamp now) {
  for (auto& group : groups_) {
    for (auto& worker : group.workers) {
      const std::uint64_t before = worker->output->emitted();
      worker->parser->on_close(now, *worker->output);
      const std::uint64_t emitted = worker->output->emitted() - before;
      if (emitted != 0) tick_records_->inc(emitted);
      worker->output->flush(now);
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
  s.worker_dropped = worker_dropped_->value();
  s.parser_errors = parser_errors_->value();
  s.parsed = parsed_->value();
  s.raw_bytes = raw_bytes_->value();
  s.records = records_->value();
  s.record_bytes = record_bytes_->value();
  return s;
}

}  // namespace netalytics::nf
