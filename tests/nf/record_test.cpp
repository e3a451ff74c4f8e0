#include "nf/record.hpp"

#include <gtest/gtest.h>

#include "common/byte_io.hpp"

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

}  // namespace
}  // namespace netalytics::nf
