#include "nf/record.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

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

// Unchecked little-endian loads for RecordBatchView's iteration, which
// only reads bytes its constructor already bounds-checked.
template <class T>
T load(const std::byte* at) noexcept {
  T v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

// The encoded size of the field starting at `at` (its tag included).
std::size_t field_bytes(const std::byte* at) noexcept {
  if (static_cast<FieldTag>(*at) != FieldTag::str) return 1 + 8;
  return 1 + 4 + load<std::uint32_t>(at + 1);
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

RecordBatchView::RecordBatchView(std::span<const std::byte> payload) {
  common::ByteReader r(payload);
  const std::uint8_t raw_layout = r.u8();
  const bool has_traces = (raw_layout & kTraceTrailerFlag) != 0;
  if ((raw_layout & ~kTraceTrailerFlag) != kUniformTopicLayout) {
    throw std::out_of_range("Record batch: unknown layout");
  }
  topic_ = r.str_view();
  count_ = r.bounded_count(r.u32(), kMinRecordBytes);
  records_ = payload.data() + r.position();
  for (std::size_t i = 0; i < count_; ++i) {
    (void)r.u64();  // id
    (void)r.u64();  // timestamp
    const std::size_t fields = r.bounded_count(r.u16(), kMinFieldBytes);
    for (std::size_t f = 0; f < fields; ++f) {
      switch (static_cast<FieldTag>(r.u8())) {
        case FieldTag::i64:
        case FieldTag::u64:
        case FieldTag::f64:
          (void)r.u64();
          break;
        case FieldTag::str:
          (void)r.str_view();
          break;
        default:
          throw std::out_of_range("Record: unknown field tag");
      }
    }
  }
  trailer_ = payload.data() + r.position();
  trailer_end_ = trailer_;
  if (!has_traces) return;
  const std::size_t traced = r.bounded_count(r.u32(), kTraceEntryBytes);
  trailer_ = payload.data() + r.position();
  std::size_t next_index = 0;  // indices must rise strictly
  for (std::size_t i = 0; i < traced; ++i) {
    const std::uint32_t index = r.u32();
    (void)r.u64();  // trace id
    if (index < next_index || index >= count_) {
      throw std::out_of_range("Record batch: trace index out of range");
    }
    next_index = std::size_t{index} + 1;
  }
  trailer_end_ = payload.data() + r.position();
}

RecordBatchView::iterator RecordBatchView::begin() const noexcept {
  return iterator(this, 0, records_);
}

RecordBatchView::iterator RecordBatchView::end() const noexcept {
  return iterator(this, count_, nullptr);
}

RecordBatchView::iterator::iterator(const RecordBatchView* view,
                                    std::size_t index,
                                    const std::byte* at) noexcept
    : view_(view), index_(index), at_(at), trace_(view->trailer_) {
  if (index_ < view_->count_) decode();
}

void RecordBatchView::iterator::decode() noexcept {
  current_.id = load<std::uint64_t>(at_);
  current_.timestamp = load<std::uint64_t>(at_ + 8);
  const std::size_t fields = load<std::uint16_t>(at_ + 16);
  const std::byte* const first = at_ + kMinRecordBytes;  // past the header
  const std::byte* p = first;
  for (std::size_t f = 0; f < fields; ++f) p += field_bytes(p);
  current_.fields.begin_ = first;
  current_.fields.end_ = p;
  current_.fields.count_ = fields;
  next_ = p;
  current_.trace = 0;
  if (trace_ != view_->trailer_end_ &&
      load<std::uint32_t>(trace_) == index_) {
    current_.trace = load<std::uint64_t>(trace_ + 4);
    trace_ += kTraceEntryBytes;
  }
}

RecordBatchView::iterator& RecordBatchView::iterator::operator++() noexcept {
  at_ = next_;
  if (++index_ < view_->count_) decode();
  return *this;
}

FieldRef RecordBatchView::Fields::iterator::operator*() const noexcept {
  switch (static_cast<FieldTag>(*at_)) {
    case FieldTag::i64:
      return static_cast<std::int64_t>(load<std::uint64_t>(at_ + 1));
    case FieldTag::u64:
      return load<std::uint64_t>(at_ + 1);
    case FieldTag::f64:
      return load<double>(at_ + 1);
    default:  // FieldTag::str: the constructor rejected every other tag
      return std::string_view(reinterpret_cast<const char*>(at_ + 5),
                              load<std::uint32_t>(at_ + 1));
  }
}

RecordBatchView::Fields::iterator&
RecordBatchView::Fields::iterator::operator++() noexcept {
  at_ += field_bytes(at_);
  return *this;
}

void RecordBatchView::Fields::append_to(std::vector<FieldValue>& out) const {
  for (const FieldRef f : *this) {
    std::visit(
        [&out](auto v) {
          if constexpr (std::is_same_v<decltype(v), std::string_view>) {
            out.emplace_back(std::in_place_type<std::string>, v);
          } else {
            out.emplace_back(v);
          }
        },
        f);
  }
}

Record to_record(std::string_view topic, const RecordRef& r) {
  Record rec;
  rec.topic = topic;
  rec.id = r.id;
  rec.timestamp = r.timestamp;
  rec.fields.reserve(r.fields.size());
  r.fields.append_to(rec.fields);
  rec.trace = r.trace;
  return rec;
}

std::vector<Record> deserialize_batch(std::span<const std::byte> payload) {
  const RecordBatchView batch(payload);
  std::vector<Record> out;
  out.reserve(batch.size());
  for (const RecordRef& r : batch) out.push_back(to_record(batch.topic(), r));
  return out;
}

}  // namespace netalytics::nf
