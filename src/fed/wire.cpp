#include "fed/wire.hpp"

#include <stdexcept>

#include "common/byte_io.hpp"

namespace netalytics::fed {

namespace {

/// Wrap an encoded payload body in the frame header. The length prefix
/// covers the type byte plus the body.
std::vector<std::byte> frame(MsgType type, const common::ByteWriter& body) {
  common::ByteWriter header;
  header.u32(static_cast<std::uint32_t>(body.size() + 1));
  header.u8(static_cast<std::uint8_t>(type));
  std::vector<std::byte> bytes = header.take();
  const auto view = body.view();
  bytes.insert(bytes.end(), view.begin(), view.end());
  return bytes;
}

}  // namespace

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::hello: return "HELLO";
    case MsgType::welcome: return "WELCOME";
    case MsgType::metrics: return "METRICS";
    case MsgType::records: return "RECORDS";
    case MsgType::ack: return "ACK";
    case MsgType::bye: return "BYE";
  }
  return "?";
}

std::vector<std::byte> encode(const Hello& m) {
  common::ByteWriter w;
  w.u32(m.magic);
  w.u16(m.version);
  w.u32(m.child_index);
  w.u64(m.next_offset);
  w.str(m.node_name);
  return frame(MsgType::hello, w);
}

Hello decode_hello(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  Hello m;
  m.magic = r.u32();
  m.version = r.u16();
  m.child_index = r.u32();
  m.next_offset = r.u64();
  m.node_name = r.str();
  return m;
}

std::vector<std::byte> encode(const Welcome& m) {
  common::ByteWriter w;
  w.u16(m.version);
  w.u32(m.child_index);
  w.u64(m.high_watermark);
  return frame(MsgType::welcome, w);
}

Welcome decode_welcome(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  Welcome m;
  m.version = r.u16();
  m.child_index = r.u32();
  m.high_watermark = r.u64();
  return m;
}

std::vector<std::byte> encode(const MetricsFrame& m) {
  common::ByteWriter w;
  w.u64(m.tick);
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& c : m.counters) {
    w.str(c.name);
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& g : m.gauges) {
    w.str(g.name);
    w.u64(static_cast<std::uint64_t>(g.value));
  }
  return frame(MsgType::metrics, w);
}

MetricsFrame decode_metrics(std::span<const std::byte> payload) {
  // A sample is at least an empty name (its length prefix) and a value.
  constexpr std::size_t kMinSampleBytes = 4 + 8;
  common::ByteReader r(payload);
  MetricsFrame m;
  m.tick = r.u64();
  const std::size_t nc = r.bounded_count(r.u32(), kMinSampleBytes);
  m.counters.reserve(nc);
  for (std::size_t i = 0; i < nc; ++i) {
    CounterSample c;
    c.name = r.str();
    c.value = r.u64();
    m.counters.push_back(std::move(c));
  }
  const std::size_t ng = r.bounded_count(r.u32(), kMinSampleBytes);
  m.gauges.reserve(ng);
  for (std::size_t i = 0; i < ng; ++i) {
    GaugeSample g;
    g.name = r.str();
    g.value = static_cast<std::int64_t>(r.u64());
    m.gauges.push_back(std::move(g));
  }
  return m;
}

std::vector<std::byte> encode(const RecordsFrame& m) {
  common::ByteWriter w;
  w.u64(m.offset);
  w.u64(m.tick);
  w.bytes(nf::serialize_batch(m.records));
  return frame(MsgType::records, w);
}

RecordsFrameView view_records(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  const std::uint64_t offset = r.u64();
  const common::Timestamp tick = r.u64();
  return {offset, tick, nf::RecordBatchView(r.bytes())};
}

RecordsFrame decode_records(std::span<const std::byte> payload) {
  const RecordsFrameView v = view_records(payload);
  RecordsFrame m;
  m.offset = v.offset;
  m.tick = v.tick;
  m.records.reserve(v.batch.size());
  for (const nf::RecordRef& r : v.batch) {
    m.records.push_back(nf::to_record(v.batch.topic(), r));
  }
  return m;
}

std::vector<std::byte> encode(const Ack& m) {
  common::ByteWriter w;
  w.u32(m.child_index);
  w.u64(m.high_watermark);
  return frame(MsgType::ack, w);
}

Ack decode_ack(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  Ack m;
  m.child_index = r.u32();
  m.high_watermark = r.u64();
  return m;
}

std::vector<std::byte> encode(const Bye& m) {
  common::ByteWriter w;
  w.u32(m.child_index);
  w.u64(m.final_offset);
  return frame(MsgType::bye, w);
}

Bye decode_bye(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  Bye m;
  m.child_index = r.u32();
  m.final_offset = r.u64();
  return m;
}

void FrameParser::feed(std::span<const std::byte> bytes) {
  // Compact the consumed prefix before growing, so long sessions do not
  // accumulate dead bytes.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  const std::span<const std::byte> avail{buf_.data() + pos_, buf_.size() - pos_};
  if (avail.size() < 4) return std::nullopt;
  const std::uint32_t len = common::load_le32(avail, 0);
  if (len == 0 || len > kMaxFramePayload) {
    throw std::out_of_range("fed::FrameParser: bad frame length");
  }
  if (avail.size() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const auto raw_type = static_cast<std::uint8_t>(avail[4]);
  if (raw_type < static_cast<std::uint8_t>(MsgType::hello) ||
      raw_type > static_cast<std::uint8_t>(MsgType::bye)) {
    throw std::out_of_range("fed::FrameParser: unknown message type");
  }
  Frame f;
  f.type = static_cast<MsgType>(raw_type);
  f.payload.assign(avail.begin() + 5, avail.begin() + 4 + len);
  pos_ += 4 + static_cast<std::size_t>(len);
  return f;
}

void FrameParser::reset() noexcept {
  buf_.clear();
  pos_ = 0;
}

}  // namespace netalytics::fed
