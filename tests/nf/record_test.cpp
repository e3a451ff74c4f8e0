#include "nf/record.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "stream/bolts.hpp"

namespace netalytics::nf {
namespace {

Record sample_record() {
  Record r;
  r.topic = "http_get";
  r.id = 0xabcdef;
  r.timestamp = 123456789;
  r.fields = {std::int64_t{-5}, std::uint64_t{42}, 2.5, std::string("hello")};
  return r;
}

TEST(Record, SerializeDeserializeRoundTrip) {
  const std::vector<Record> batch = {sample_record(), sample_record()};
  const auto payload = serialize_batch(batch);
  const auto out = deserialize_batch(payload);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], batch[0]);
  EXPECT_EQ(out[1], batch[1]);
}

TEST(Record, EmptyBatch) {
  const auto payload = serialize_batch({});
  EXPECT_TRUE(deserialize_batch(payload).empty());
}

TEST(Record, RecordWithNoFields) {
  Record r;
  r.topic = "t";
  const std::vector<Record> batch = {r};
  const auto out = deserialize_batch(serialize_batch(batch));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].fields.empty());
}

TEST(Record, CorruptPayloadThrows) {
  const Record r = sample_record();
  auto payload = serialize_batch({&r, 1});
  payload.resize(payload.size() / 2);
  EXPECT_THROW(deserialize_batch(payload), std::out_of_range);
}

TEST(Record, UnknownFieldTagThrows) {
  Record r;
  r.topic = "t";
  r.fields = {std::uint64_t{1}};
  auto payload = serialize_batch({&r, 1});
  // The field tag byte lives after layout(1) + topic(4+1) + count(4) +
  // id(8) + ts(8) + nfields(2) = 28.
  payload[28] = std::byte{0xff};
  EXPECT_THROW(deserialize_batch(payload), std::out_of_range);
}

TEST(Record, CountsBeyondThePayloadAreRejectedBeforeAllocating) {
  // A 15-byte batch claiming 2^32-1 records: rejected by the count bound,
  // not by a bad_alloc from reserving room for them.
  common::ByteWriter hostile;
  hostile.u8(1);  // uniform-topic layout
  hostile.str("");
  hostile.u32(0xffffffffu);
  hostile.u32(0);
  hostile.u16(0);
  EXPECT_THROW(deserialize_batch(hostile.view()), std::out_of_range);

  // A record claiming 65535 fields with none behind it.
  Record r;
  r.topic = "t";
  auto fields = serialize_batch({&r, 1});
  fields[fields.size() - 2] = std::byte{0xff};
  fields[fields.size() - 1] = std::byte{0xff};
  EXPECT_THROW(deserialize_batch(fields), std::out_of_range);

  // A trace trailer claiming more entries than it carries.
  r.trace = 9;
  auto traced = serialize_batch({&r, 1});
  traced.resize(traced.size() - 12);  // drop the one [index, id] entry
  EXPECT_THROW(deserialize_batch(traced), std::out_of_range);
}

TEST(Record, UnknownBatchLayoutThrows) {
  // 2 (a topic per record) was never emitted by any encoder and is as
  // unknown as any other byte.
  const Record r = sample_record();
  for (const std::byte layout : {std::byte{0x77}, std::byte{2}}) {
    auto payload = serialize_batch({&r, 1});
    payload[0] = layout;
    EXPECT_THROW(deserialize_batch(payload), std::out_of_range);
  }
}

TEST(Record, SerializedSizeMatchesBatchOverhead) {
  // Batches hoist the topic: layout byte + topic once + count, then records
  // without their topic strings, so each further record adds only its own
  // bytes.
  const Record r = sample_record();
  const auto single = serialize_batch({&r, 1});
  const std::vector<Record> pair = {r, r};
  const std::size_t header = 1 + 4 + r.topic.size() + 4;
  EXPECT_EQ(serialize_batch(pair).size() - single.size(),
            single.size() - header);
}

TEST(Record, MixedTopicBatchIsRejected) {
  // One batch carries one topic; a mixed span is a caller bug, not a
  // second wire layout.
  Record a = sample_record();
  Record b = sample_record();
  b.topic = "other";
  const std::vector<Record> batch = {a, b};
  EXPECT_THROW(serialize_batch(batch), std::invalid_argument);
}

TEST(Record, DataReductionVersusRawPacket) {
  // The core efficiency claim (§3.1): a tuple is miniscule compared to the
  // packet it was derived from. A typical http_get record must be well
  // under a 512-byte packet.
  Record r;
  r.topic = "http_get";
  r.id = 0x123456789abcdef0;
  r.timestamp = 1;
  r.fields = {std::string("request"), std::string("/index.html")};
  EXPECT_LT(serialize_batch({&r, 1}).size(), 80u);
}

TEST(Record, FieldAccessHelpers) {
  const Record r = sample_record();
  EXPECT_EQ(as_i64(r.fields[0]), -5);
  EXPECT_EQ(as_u64(r.fields[1]), 42u);
  EXPECT_DOUBLE_EQ(as_f64(r.fields[2]), 2.5);
  EXPECT_EQ(as_str(r.fields[3]), "hello");
  EXPECT_THROW(as_str(r.fields[0]), std::bad_variant_access);
}

// ---- RecordBatchView: differential and mutation test ------------------------
//
// Seeded batches cover every field tag, empty and long strings, zero-record
// and zero-field records, and trace trailers with none, some and all
// records traced. Each batch and a fixed budget of mutants of it (byte
// flips, truncations, false record / field / string / trailer counts and
// false trailer indices) go through three readers that must agree with a
// reference decoder written from the layout: RecordBatchView,
// deserialize_batch, and the stream's ParsingBolt. Every input either
// decodes to the reference's records or is rejected with
// std::out_of_range, and a rejected batch makes ParsingBolt emit nothing.

/// The batch layout, decoded the plain way: layout byte (1, bit 0x80 = trace
/// trailer), topic, u32 record count, records of [u64 id, u64 ts, u16 field
/// count, fields of [u8 tag, u64 or u32-prefixed string]], then the trailer
/// [u32 count, [u32 index, u64 trace]...] with strictly rising indices.
/// std::nullopt where the layout rules reject the bytes.
std::optional<std::vector<Record>> reference_decode(std::span<const std::byte> bytes) {
  try {
    common::ByteReader r(bytes);
    const std::uint8_t layout = r.u8();
    if ((layout & 0x7f) != 1) return std::nullopt;
    const std::string topic = r.str();
    const std::uint32_t n = r.u32();
    std::vector<Record> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      Record rec;
      rec.topic = topic;
      rec.id = r.u64();
      rec.timestamp = r.u64();
      const std::uint16_t nf = r.u16();
      for (std::uint16_t f = 0; f < nf; ++f) {
        switch (r.u8()) {
          case 0: rec.fields.emplace_back(static_cast<std::int64_t>(r.u64())); break;
          case 1: rec.fields.emplace_back(r.u64()); break;
          case 2: rec.fields.emplace_back(r.f64()); break;
          case 3: rec.fields.emplace_back(r.str()); break;
          default: return std::nullopt;
        }
      }
      out.push_back(std::move(rec));
    }
    if ((layout & 0x80) != 0) {
      const std::uint32_t traced = r.u32();
      std::int64_t last = -1;
      for (std::uint32_t i = 0; i < traced; ++i) {
        const std::uint32_t index = r.u32();
        const std::uint64_t trace = r.u64();
        if (static_cast<std::int64_t>(index) <= last || index >= out.size()) {
          return std::nullopt;
        }
        last = index;
        out[index].trace = trace;
      }
    }
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;  // ran past the end
  }
}

std::string random_string(common::Rng& rng) {
  const std::size_t len = rng.bernoulli(0.2)   ? 0
                          : rng.bernoulli(0.3) ? rng.uniform(40, 300)  // past SSO
                                               : rng.uniform(1, 15);
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>(rng.uniform(0, 255));
  return s;
}

FieldValue random_field(common::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0: return static_cast<std::int64_t>(rng.next_u64());
    case 1: return rng.next_u64();
    case 2: return rng.uniform_real(-1e12, 1e12);
    default: return random_string(rng);
  }
}

enum class Traced { none, some, all };

std::vector<Record> random_batch(common::Rng& rng, std::size_t records, Traced traced) {
  const std::string topic = rng.bernoulli(0.1) ? std::string() : "topic" + random_string(rng);
  std::vector<Record> batch(records);
  for (auto& r : batch) {
    r.topic = topic;
    r.id = rng.next_u64();
    r.timestamp = rng.next_u64();
    const std::size_t fields = rng.bernoulli(0.15) ? 0 : rng.uniform(1, 6);
    for (std::size_t f = 0; f < fields; ++f) r.fields.push_back(random_field(rng));
    if (traced == Traced::all || (traced == Traced::some && rng.bernoulli(0.4))) {
      r.trace = rng.uniform(1, ~std::uint64_t{0});
    }
  }
  return batch;
}

/// Byte offsets of every count and index field in a serialized batch, read
/// from the records it was built from.
struct CountSites {
  std::size_t record_count = 0;
  std::vector<std::size_t> field_counts;   // u16
  std::vector<std::size_t> string_lengths; // u32
  std::optional<std::size_t> trailer_count;
  std::vector<std::size_t> trailer_indices;  // u32
};

CountSites count_sites(const std::vector<Record>& batch) {
  CountSites s;
  const std::string topic = batch.empty() ? std::string() : batch[0].topic;
  s.record_count = 1 + 4 + topic.size();
  std::size_t at = s.record_count + 4;
  std::size_t traced = 0;
  for (const auto& r : batch) {
    s.field_counts.push_back(at + 16);
    at += 18;
    for (const auto& f : r.fields) {
      if (const auto* str = std::get_if<std::string>(&f)) {
        s.string_lengths.push_back(at + 1);
        at += 1 + 4 + str->size();
      } else {
        at += 1 + 8;
      }
    }
    traced += r.trace != 0 ? 1 : 0;
  }
  if (traced != 0) {
    s.trailer_count = at;
    for (std::size_t i = 0; i < traced; ++i) s.trailer_indices.push_back(at + 4 + 12 * i);
  }
  return s;
}

void put_u32(std::vector<std::byte>& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) b[at + i] = static_cast<std::byte>(v >> (8 * i));
}

void put_u16(std::vector<std::byte>& b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::byte>(v & 0xff);
  b[at + 1] = static_cast<std::byte>(v >> 8);
}

/// A false count near the true one, or a hostile one.
std::uint32_t false_count(common::Rng& rng, std::uint32_t truth) {
  switch (rng.uniform(0, 3)) {
    case 0: return truth + 1;
    case 1: return truth - 1;
    case 2: return static_cast<std::uint32_t>(rng.uniform(0, 64));
    default: return 0xffffffffu - static_cast<std::uint32_t>(rng.uniform(0, 3));
  }
}

std::uint32_t get_u32(const std::vector<std::byte>& b, std::size_t at) {
  return common::load_le32(b, at);
}

std::vector<std::vector<std::byte>> mutants(const std::vector<Record>& batch,
                                            const std::vector<std::byte>& bytes,
                                            common::Rng& rng) {
  std::vector<std::vector<std::byte>> out;
  // Truncation at every length of a small batch, a sample of a large one.
  if (bytes.size() <= 256) {
    for (std::size_t n = 0; n < bytes.size(); ++n) out.emplace_back(bytes.begin(), bytes.begin() + n);
  } else {
    for (int i = 0; i < 32; ++i) {
      out.emplace_back(bytes.begin(), bytes.begin() + rng.uniform(0, bytes.size() - 1));
    }
  }
  for (int i = 0; i < 24; ++i) {  // byte flips, one to three per mutant
    auto m = bytes;
    for (std::uint64_t k = rng.uniform(1, 3); k > 0; --k) {
      m[rng.uniform(0, m.size() - 1)] ^= static_cast<std::byte>(rng.uniform(1, 255));
    }
    out.push_back(std::move(m));
  }
  const CountSites sites = count_sites(batch);
  auto with_u32 = [&](std::size_t at) {
    auto m = bytes;
    put_u32(m, at, false_count(rng, get_u32(bytes, at)));
    out.push_back(std::move(m));
  };
  for (int i = 0; i < 4; ++i) with_u32(sites.record_count);
  for (const std::size_t at : sites.field_counts) {
    auto m = bytes;
    put_u16(m, at, static_cast<std::uint16_t>(false_count(rng, common::load_le16(bytes, at))));
    out.push_back(std::move(m));
  }
  for (const std::size_t at : sites.string_lengths) with_u32(at);
  if (sites.trailer_count) {
    for (int i = 0; i < 4; ++i) with_u32(*sites.trailer_count);
  }
  for (const std::size_t at : sites.trailer_indices) {
    with_u32(at);
    auto m = bytes;  // an index that repeats or goes back
    put_u32(m, at, static_cast<std::uint32_t>(rng.uniform(0, batch.size())));
    out.push_back(std::move(m));
  }
  return out;
}

bool equal_field(const FieldRef& got, const FieldValue& want) {
  return std::visit(
      [&want](auto v) {
        using T = decltype(v);
        if constexpr (std::is_same_v<T, std::string_view>) {
          return std::holds_alternative<std::string>(want) && std::get<std::string>(want) == v;
        } else if constexpr (std::is_same_v<T, double>) {
          // Bitwise, so a flipped byte that makes a NaN still compares.
          return std::holds_alternative<double>(want) &&
                 std::memcmp(&v, &std::get<double>(want), sizeof v) == 0;
        } else {
          return std::holds_alternative<T>(want) && std::get<T>(want) == v;
        }
      },
      got);
}

bool same_bits(const FieldValue& a, const FieldValue& b) {
  if (a.index() != b.index()) return false;
  if (const auto* d = std::get_if<double>(&a)) {
    return std::memcmp(d, &std::get<double>(b), sizeof *d) == 0;
  }
  return a == b;
}

/// Checks one input against the reference; returns whether it decoded.
bool check_one(std::span<const std::byte> bytes) {
  const std::optional<std::vector<Record>> want = reference_decode(bytes);

  // RecordBatchView: rejects exactly what the reference rejects, and yields
  // the reference's records otherwise.
  std::optional<RecordBatchView> view;
  try {
    view.emplace(bytes);
  } catch (const std::out_of_range&) {
  }
  EXPECT_EQ(view.has_value(), want.has_value());
  if (view && want) {
    EXPECT_EQ(view->size(), want->size());
    std::size_t i = 0;
    for (const RecordRef& r : *view) {
      if (i >= want->size()) break;
      const Record& w = (*want)[i++];
      EXPECT_EQ(view->topic(), w.topic);
      EXPECT_EQ(r.id, w.id);
      EXPECT_EQ(r.timestamp, w.timestamp);
      EXPECT_EQ(r.trace, w.trace);
      EXPECT_EQ(r.fields.size(), w.fields.size());
      std::size_t f = 0;
      for (const FieldRef field : r.fields) {
        if (f >= w.fields.size()) break;
        EXPECT_TRUE(equal_field(field, w.fields[f++])) << "record " << i << " field " << f;
      }
    }
    EXPECT_EQ(i, want->size());
  }

  // deserialize_batch: the owning loop over the view.
  std::optional<std::vector<Record>> owned;
  try {
    owned = deserialize_batch(bytes);
  } catch (const std::out_of_range&) {
  }
  EXPECT_EQ(owned.has_value(), want.has_value());
  if (owned && want && owned->size() == want->size()) {
    for (std::size_t i = 0; i < owned->size(); ++i) {
      const Record& a = (*owned)[i];
      const Record& b = (*want)[i];
      EXPECT_TRUE(a.topic == b.topic && a.id == b.id && a.timestamp == b.timestamp &&
                  a.trace == b.trace && a.fields.size() == b.fields.size());
      for (std::size_t f = 0; f < std::min(a.fields.size(), b.fields.size()); ++f) {
        EXPECT_TRUE(same_bits(a.fields[f], b.fields[f]));
      }
    }
  }

  // ParsingBolt: one tuple [id, ts, fields...] per record, or nothing.
  stream::ParsingBolt bolt;
  struct Capture final : stream::Collector {
    void emit(stream::Tuple t) override { tuples.push_back(std::move(t)); }
    std::vector<stream::Tuple> tuples;
  } out;
  bool rejected = false;
  try {
    bolt.execute(stream::Tuple{{std::string(common::as_string_view(bytes))}}, out);
  } catch (const std::out_of_range&) {
    rejected = true;
  }
  EXPECT_EQ(rejected, !want.has_value());
  if (!want) {
    EXPECT_TRUE(out.tuples.empty());
  } else if (out.tuples.size() == want->size()) {
    for (std::size_t i = 0; i < want->size(); ++i) {
      const stream::Tuple& t = out.tuples[i];
      const Record& w = (*want)[i];
      if (t.size() != 2 + w.fields.size()) {
        ADD_FAILURE() << "tuple " << i << " has " << t.size() << " values";
        continue;
      }
      EXPECT_EQ(stream::as_u64(t.at(0)), w.id);
      EXPECT_EQ(stream::as_u64(t.at(1)), w.timestamp);
      EXPECT_EQ(t.trace, w.trace);
      for (std::size_t f = 0; f < w.fields.size(); ++f) {
        EXPECT_TRUE(same_bits(t.at(2 + f), w.fields[f]));
      }
    }
  } else {
    ADD_FAILURE() << "ParsingBolt emitted " << out.tuples.size() << " of " << want->size();
  }
  return want.has_value();
}

TEST(RecordBatchView, MatchesTheReferenceOnBatchesAndTheirMutants) {
  common::Rng rng(0x5eed0022);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  const Traced modes[] = {Traced::none, Traced::some, Traced::all};
  for (int round = 0; round < 120; ++round) {
    const std::size_t records = round % 10 == 0 ? 0 : rng.uniform(1, round % 3 == 0 ? 2 : 9);
    const std::vector<Record> batch = random_batch(rng, records, modes[round % 3]);
    const auto bytes = serialize_batch(batch);
    // The clean batch decodes to exactly what was serialized.
    ASSERT_TRUE(check_one(bytes));
    ASSERT_EQ(deserialize_batch(bytes), batch);
    for (const auto& m : mutants(batch, bytes, rng)) {
      (check_one(m) ? decoded : rejected) += 1;
      if (::testing::Test::HasFailure()) return;  // one report is enough
    }
  }
  // The budget must exercise both outcomes.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(RecordBatchView, CoversEveryFieldShape) {
  // The corner cases the random rounds may miss, checked explicitly.
  Record r;
  r.topic = "t";
  r.id = 1;
  r.fields = {std::int64_t{-1}, std::uint64_t{2}, 3.5, std::string(),
              std::string(1000, 'L')};
  Record empty;
  empty.topic = "t";
  empty.trace = 7;
  const std::vector<Record> batch = {r, empty, r};
  const auto bytes = serialize_batch(batch);
  const RecordBatchView view(bytes);
  ASSERT_EQ(view.size(), 3u);
  std::vector<std::uint64_t> traces;
  for (const RecordRef& ref : view) traces.push_back(ref.trace);
  EXPECT_EQ(traces, (std::vector<std::uint64_t>{0, 7, 0}));
  const auto head = view.begin();
  const RecordRef& first = *head;
  ASSERT_EQ(first.fields.size(), 5u);
  auto it = first.fields.begin();
  EXPECT_EQ(std::get<std::int64_t>(*it++), -1);
  EXPECT_EQ(std::get<std::uint64_t>(*it++), 2u);
  EXPECT_EQ(std::get<double>(*it++), 3.5);
  EXPECT_EQ(std::get<std::string_view>(*it++), "");
  EXPECT_EQ(std::get<std::string_view>(*it++).size(), 1000u);
  EXPECT_EQ(it, first.fields.end());
  EXPECT_TRUE(check_one(bytes));
  // A long string is read in place, not copied.
  const auto sv = std::get<std::string_view>(*std::next(first.fields.begin(), 4));
  EXPECT_GE(reinterpret_cast<const std::byte*>(sv.data()), bytes.data());
  EXPECT_LT(reinterpret_cast<const std::byte*>(sv.data()), bytes.data() + bytes.size());
}

TEST(RecordBatchView, TraceIndicesMustRise) {
  // serialize_batch writes trailer indices in record order; a trailer that
  // repeats or goes back is not a batch any encoder wrote.
  Record r;
  r.topic = "t";
  r.trace = 5;
  const std::vector<Record> batch = {r, r};
  auto bytes = serialize_batch(batch);
  const std::size_t second_index = bytes.size() - 12;
  put_u32(bytes, second_index, 0);  // [0, 0]
  EXPECT_THROW(RecordBatchView{bytes}, std::out_of_range);
  EXPECT_FALSE(check_one(bytes));
}

}  // namespace
}  // namespace netalytics::nf
