#include "fed/parent.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/prometheus.hpp"
#include "stream/tuple.hpp"

namespace netalytics::fed {

namespace {

std::string key_of(const nf::Record& r, std::size_t field) {
  if (field >= r.fields.size()) return "<missing>";
  return stream::format_value(r.fields[field]);
}

}  // namespace

ParentNode::ParentNode(std::vector<Link*> links, ParentConfig cfg)
    : cfg_(std::move(cfg)),
      slots_(links.size()),
      fanin_(links.empty() ? 1 : links.size(), cfg_.top_k),
      store_(tsdb::StoreConfig{}) {
  if (links.empty()) {
    throw std::invalid_argument("ParentNode: at least one child link");
  }
  for (std::size_t i = 0; i < links.size(); ++i) slots_[i].link = links[i];
}

void ParentNode::pump(common::Timestamp now) {
  now_ = now;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    // A reconnected link starts at a frame boundary; discard any partial
    // frame left over from the dropped connection.
    if (slot.link->stats().connects != slot.seen_connects) {
      slot.seen_connects = slot.link->stats().connects;
      slot.parser.reset();
    }
    if (!slot.link->connected()) slot.stats.connected = false;
    const auto bytes = slot.link->drain_up();
    if (!bytes.empty()) slot.parser.feed(bytes);
    while (true) {
      try {
        const auto frame = slot.parser.next();
        if (!frame) break;
        apply_frame(i, *frame, now);
      } catch (const std::out_of_range&) {
        // A bad length prefix or type byte, or a payload that does not
        // decode (truncated, or a count its bytes cannot hold).
        reject_malformed(i);
      }
      if (!slot.link->connected()) break;  // refused HELLO or bad frame
    }
    if (slot.stats.connected && slot.stats.applied != slot.last_acked) {
      const Ack ack{.child_index = static_cast<std::uint32_t>(i),
                    .high_watermark = slot.stats.applied};
      if (slot.link->send_down(encode(ack), now)) {
        slot.last_acked = slot.stats.applied;
      }
    }
  }
  if (store_.enabled()) store_.capture(now, registry_.snapshot());
}

void ParentNode::reject_malformed(std::size_t child) {
  Slot& slot = slots_[child];
  slot.stats.malformed_frames += 1;
  slot.stats.connected = false;
  registry_.counter("fleet.child" + std::to_string(child) +
                    ".parent.malformed_frames").inc();
  slot.link->drop();
  slot.parser.reset();
}

void ParentNode::apply_frame(std::size_t child, const Frame& frame,
                             common::Timestamp now) {
  Slot& slot = slots_[child];
  switch (frame.type) {
    case MsgType::hello: {
      const Hello h = decode_hello(frame.payload);
      if (h.magic != kMagic || h.version != kProtocolVersion ||
          h.child_index != child) {
        slot.stats.refused += 1;
        slot.link->drop();  // version rules: refuse by RST
        return;
      }
      slot.stats.node_name = h.node_name;
      const Welcome w{.version = kProtocolVersion,
                      .child_index = static_cast<std::uint32_t>(child),
                      .high_watermark = slot.stats.applied};
      if (slot.link->send_down(encode(w), now)) {
        slot.stats.connected = true;
        slot.stats.handshakes += 1;
        slot.last_acked = slot.stats.applied;  // WELCOME doubles as an ACK
      }
      return;
    }
    case MsgType::records: {
      const RecordsFrameView rf = view_records(frame.payload);
      slot.stats.record_frames += 1;
      apply_records(child, rf);
      return;
    }
    case MsgType::metrics: {
      const MetricsFrame mf = decode_metrics(frame.payload);
      slot.stats.metrics_frames += 1;
      apply_metrics(child, mf);
      return;
    }
    case MsgType::bye: {
      (void)decode_bye(frame.payload);
      slot.stats.byes += 1;
      slot.stats.connected = false;
      return;
    }
    default:
      return;  // children never send WELCOME/ACK; tolerate and skip
  }
}

void ParentNode::apply_records(std::size_t child, const RecordsFrameView& rf) {
  Slot& slot = slots_[child];
  const std::uint64_t end = rf.offset + rf.batch.size();
  if (end <= slot.stats.applied) {
    // Whole frame below the watermark: a replay or duplicated frame.
    slot.stats.duplicate_records += rf.batch.size();
    return;
  }
  if (rf.offset > slot.stats.applied) {
    // Offset gap: the child overflowed its replay buffer and shed frames
    // it could no longer replicate. Charge the loss; exactness for these
    // records is given up (and visible in reconcile()).
    slot.stats.lost_records += rf.offset - slot.stats.applied;
  } else {
    slot.stats.duplicate_records += slot.stats.applied - rf.offset;
  }
  // Only the records past the watermark are built.
  std::uint64_t offset = rf.offset;
  for (const nf::RecordRef& ref : rf.batch) {
    if (offset++ < slot.stats.applied) continue;
    nf::Record r = nf::to_record(rf.batch.topic(), ref);
    fanin_.add(child, key_of(r, cfg_.key_field), 1);
    slot.records.push_back(std::move(r));
  }
  slot.stats.applied = end;
}

void ParentNode::apply_metrics(std::size_t child, const MetricsFrame& mf) {
  // Samples carry absolute values, so application is idempotent: counters
  // max-merge (a replayed older frame can never regress the merged value),
  // gauges are last-writer-wins within the per-connection frame order.
  const std::string prefix =
      "fleet.child" + std::to_string(child) + ".";
  for (const auto& c : mf.counters) {
    auto& counter = registry_.counter(prefix + c.name);
    const std::uint64_t cur = counter.value();
    if (c.value > cur) counter.inc(c.value - cur);
  }
  for (const auto& g : mf.gauges) {
    registry_.gauge(prefix + g.name).set(g.value);
  }
}

std::vector<nf::Record> ParentNode::all_records() const {
  std::vector<nf::Record> out;
  for (const auto& slot : slots_) {
    out.insert(out.end(), slot.records.begin(), slot.records.end());
  }
  return out;
}

std::uint64_t ParentNode::total_records_applied() const noexcept {
  std::uint64_t n = 0;
  for (const auto& slot : slots_) n += slot.stats.applied;
  return n;
}

std::string ParentNode::export_metrics() const {
  const obs::PrometheusExporter exporter(cfg_.export_options);
  return exporter.export_snapshot(registry_.snapshot());
}

tsdb::RangeResult ParentNode::query_range(const tsdb::RangeQuery& q) const {
  const auto head = registry_.snapshot();
  return store_.query_range(q, tsdb::LiveHead{now_, &head});
}

}  // namespace netalytics::fed
