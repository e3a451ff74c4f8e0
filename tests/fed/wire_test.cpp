// Wire-format unit tests (docs/FEDERATION.md): every message type round-
// trips through encode/decode, the FrameParser reassembles frames from
// arbitrary fragmentation, and corrupt streams (oversized length prefix,
// unknown type byte, truncated payload) throw instead of desynchronizing.
#include "fed/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace netalytics::fed {
namespace {

/// Parse exactly one frame out of a complete encoded frame.
Frame parse_one(const std::vector<std::byte>& bytes) {
  FrameParser p;
  p.feed(bytes);
  auto f = p.next();
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(p.buffered(), 0u);
  return *f;
}

TEST(FedWire, HelloRoundTrip) {
  const Hello in{.magic = kMagic,
                 .version = kProtocolVersion,
                 .child_index = 3,
                 .next_offset = 12345,
                 .node_name = "child3"};
  const Frame f = parse_one(encode(in));
  EXPECT_EQ(f.type, MsgType::hello);
  EXPECT_EQ(decode_hello(f.payload), in);
}

TEST(FedWire, WelcomeAckByeRoundTrip) {
  const Welcome w{.version = kProtocolVersion,
                  .child_index = 1,
                  .high_watermark = 999};
  Frame f = parse_one(encode(w));
  EXPECT_EQ(f.type, MsgType::welcome);
  EXPECT_EQ(decode_welcome(f.payload), w);

  const Ack a{.child_index = 2, .high_watermark = 77};
  f = parse_one(encode(a));
  EXPECT_EQ(f.type, MsgType::ack);
  EXPECT_EQ(decode_ack(f.payload), a);

  const Bye b{.child_index = 0, .final_offset = 42};
  f = parse_one(encode(b));
  EXPECT_EQ(f.type, MsgType::bye);
  EXPECT_EQ(decode_bye(f.payload), b);
}

TEST(FedWire, MetricsRoundTripCarriesAbsoluteValues) {
  MetricsFrame in;
  in.tick = 5 * common::kSecond;
  in.counters.push_back({"q1.mon0.rx_packets", 1000});
  in.counters.push_back({"engine.pumps", 7});
  in.gauges.push_back({"mq.broker0.depth", -3});
  const Frame f = parse_one(encode(in));
  EXPECT_EQ(f.type, MsgType::metrics);
  EXPECT_EQ(decode_metrics(f.payload), in);
}

TEST(FedWire, RecordsRoundTripPreservesFieldsAndTraceIds) {
  RecordsFrame in;
  in.offset = 640;
  in.tick = 2 * common::kSecond;
  nf::Record r;
  r.topic = "fed";
  r.id = 0;
  r.timestamp = in.tick;
  r.fields = {nf::FieldValue{std::uint64_t{11}},
              nf::FieldValue{std::int64_t{-4}}, nf::FieldValue{2.5},
              nf::FieldValue{std::string{"/hot"}}};
  r.trace = 0xdeadbeef;
  in.records.push_back(r);
  r.trace = 0;
  r.fields[3] = nf::FieldValue{std::string{"/cold"}};
  in.records.push_back(r);

  const Frame f = parse_one(encode(in));
  EXPECT_EQ(f.type, MsgType::records);
  const RecordsFrame out = decode_records(f.payload);
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.records[0].trace, 0xdeadbeefu);  // trace trailer survived
}

TEST(FedWire, ParserReassemblesFromSingleByteFeeds) {
  std::vector<std::byte> stream;
  const auto h = encode(Hello{.child_index = 1, .node_name = "c"});
  const auto a = encode(Ack{.child_index = 1, .high_watermark = 10});
  stream.insert(stream.end(), h.begin(), h.end());
  stream.insert(stream.end(), a.begin(), a.end());

  FrameParser p;
  std::vector<Frame> frames;
  for (const std::byte b : stream) {
    p.feed(std::span<const std::byte>(&b, 1));
    while (auto f = p.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::hello);
  EXPECT_EQ(frames[1].type, MsgType::ack);
  EXPECT_EQ(decode_ack(frames[1].payload).high_watermark, 10u);
}

TEST(FedWire, ParserRejectsOversizedAndUnknownFrames) {
  // Length prefix beyond kMaxFramePayload: corrupt or hostile stream.
  std::vector<std::byte> oversized(5);
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(oversized.data(), &huge, 4);  // little-endian test hosts
  oversized[4] = std::byte{1};
  FrameParser p;
  p.feed(oversized);
  EXPECT_THROW(p.next(), std::out_of_range);

  // Unknown type byte.
  std::vector<std::byte> unknown(5);
  const std::uint32_t one = 1;
  std::memcpy(unknown.data(), &one, 4);
  unknown[4] = std::byte{99};
  FrameParser q;
  q.feed(unknown);
  EXPECT_THROW(q.next(), std::out_of_range);

  // A zero-length frame (no type byte) is equally invalid.
  std::vector<std::byte> empty(4, std::byte{0});
  FrameParser r;
  r.feed(empty);
  EXPECT_THROW(r.next(), std::out_of_range);
}

TEST(FedWire, TruncatedPayloadThrowsFromDecoders) {
  const auto full = encode(Welcome{.child_index = 1, .high_watermark = 5});
  const Frame f = parse_one(full);
  const std::span<const std::byte> cut(f.payload.data(),
                                       f.payload.size() / 2);
  EXPECT_THROW(decode_welcome(cut), std::out_of_range);
}

TEST(FedWire, MetricCountsBeyondThePayloadThrow) {
  // tick, then a counter count of 2^32-1 with nothing behind it.
  std::vector<std::byte> counters(12, std::byte{0});
  for (std::size_t i = 8; i < 12; ++i) counters[i] = std::byte{0xff};
  EXPECT_THROW(decode_metrics(counters), std::out_of_range);

  // A well-formed frame whose gauge count is then inflated.
  MetricsFrame m;
  m.counters = {{"a", 1}};
  const Frame f = parse_one(encode(m));
  auto payload = f.payload;
  for (std::size_t i = payload.size() - 4; i < payload.size(); ++i) {
    payload[i] = std::byte{0xff};
  }
  EXPECT_THROW(decode_metrics(payload), std::out_of_range);
}

TEST(FedWire, ParserResetDiscardsPartialFrame) {
  const auto h = encode(Hello{.node_name = "x"});
  FrameParser p;
  p.feed(std::span<const std::byte>(h.data(), h.size() - 2));  // partial
  EXPECT_FALSE(p.next().has_value());
  p.reset();  // connection dropped; next connection starts at a boundary
  EXPECT_EQ(p.buffered(), 0u);
  const auto a = encode(Ack{.high_watermark = 1});
  p.feed(a);
  auto f = p.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::ack);
}

TEST(FedWire, MsgTypeNames) {
  EXPECT_STREQ(to_string(MsgType::hello), "HELLO");
  EXPECT_STREQ(to_string(MsgType::welcome), "WELCOME");
  EXPECT_STREQ(to_string(MsgType::metrics), "METRICS");
  EXPECT_STREQ(to_string(MsgType::records), "RECORDS");
  EXPECT_STREQ(to_string(MsgType::ack), "ACK");
  EXPECT_STREQ(to_string(MsgType::bye), "BYE");
}

}  // namespace
}  // namespace netalytics::fed
