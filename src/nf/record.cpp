#include "nf/record.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/byte_io.hpp"

namespace netalytics::nf {

namespace {

enum class FieldTag : std::uint8_t { i64 = 0, u64 = 1, f64 = 2, str = 3 };

// Batch layout byte. Batches are built per topic (the output interface and
// the federation child both batch per topic), so the topic string is
// written once, ahead of the records.
inline constexpr std::uint8_t kUniformTopicLayout = 1;

// Set on the layout byte when a trace trailer (count + [index, trace id]
// pairs for every traced record) follows the records. Untraced batches are
// byte-identical to the pre-trace format.
inline constexpr std::uint8_t kTraceTrailerFlag = 0x80;

// Smallest encodings, which bound every decoded count by the bytes left:
// a record is id + timestamp + field count; a field is a tag and at least a
// string length prefix; a trace trailer entry is an index and an id.
inline constexpr std::size_t kMinRecordBytes = 8 + 8 + 2;
inline constexpr std::size_t kMinFieldBytes = 1 + 4;
inline constexpr std::size_t kTraceEntryBytes = 4 + 8;

void write_record(common::ByteWriter& w, const Record& r) {
  w.u64(r.id);
  w.u64(r.timestamp);
  w.u16(static_cast<std::uint16_t>(r.fields.size()));
  for (const auto& f : r.fields) {
    std::visit(
        [&w](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::int64_t>) {
            w.u8(static_cast<std::uint8_t>(FieldTag::i64));
            w.u64(static_cast<std::uint64_t>(v));
          } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            w.u8(static_cast<std::uint8_t>(FieldTag::u64));
            w.u64(v);
          } else if constexpr (std::is_same_v<T, double>) {
            w.u8(static_cast<std::uint8_t>(FieldTag::f64));
            w.f64(v);
          } else {
            w.u8(static_cast<std::uint8_t>(FieldTag::str));
            w.str(v);
          }
        },
        f);
  }
}

Record read_record(common::ByteReader& r, const std::string& topic) {
  Record rec;
  rec.topic = topic;
  rec.id = r.u64();
  rec.timestamp = r.u64();
  const std::size_t n = r.bounded_count(r.u16(), kMinFieldBytes);
  rec.fields.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (static_cast<FieldTag>(r.u8())) {
      case FieldTag::i64:
        rec.fields.emplace_back(static_cast<std::int64_t>(r.u64()));
        break;
      case FieldTag::u64:
        rec.fields.emplace_back(r.u64());
        break;
      case FieldTag::f64:
        rec.fields.emplace_back(r.f64());
        break;
      case FieldTag::str:
        rec.fields.emplace_back(r.str());
        break;
      default:
        throw std::out_of_range("Record: unknown field tag");
    }
  }
  return rec;
}

}  // namespace

std::vector<std::byte> serialize_batch(std::span<const Record> records) {
  const std::string_view topic =
      records.empty() ? std::string_view{} : std::string_view{records[0].topic};
  if (!std::all_of(records.begin(), records.end(),
                   [&](const Record& r) { return r.topic == topic; })) {
    throw std::invalid_argument("serialize_batch: records of mixed topics");
  }
  const std::uint32_t traced = static_cast<std::uint32_t>(std::count_if(
      records.begin(), records.end(),
      [](const Record& r) { return r.trace != 0; }));
  common::ByteWriter w;
  w.u8(traced != 0 ? kUniformTopicLayout | kTraceTrailerFlag
                   : kUniformTopicLayout);
  w.str(topic);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& rec : records) write_record(w, rec);
  if (traced != 0) {
    w.u32(traced);
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      if (records[i].trace == 0) continue;
      w.u32(i);
      w.u64(records[i].trace);
    }
  }
  return w.take();
}

std::vector<Record> deserialize_batch(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  const std::uint8_t raw_layout = r.u8();
  const bool has_traces = (raw_layout & kTraceTrailerFlag) != 0;
  if ((raw_layout & ~kTraceTrailerFlag) != kUniformTopicLayout) {
    throw std::out_of_range("Record batch: unknown layout");
  }
  const std::string topic = r.str();
  const std::size_t n = r.bounded_count(r.u32(), kMinRecordBytes);
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(read_record(r, topic));
  if (has_traces) {
    const std::size_t traced = r.bounded_count(r.u32(), kTraceEntryBytes);
    for (std::size_t i = 0; i < traced; ++i) {
      const std::uint32_t index = r.u32();
      const std::uint64_t trace = r.u64();
      if (index >= out.size()) {
        throw std::out_of_range("Record batch: trace index out of range");
      }
      out[index].trace = trace;
    }
  }
  return out;
}

}  // namespace netalytics::nf
