#include "common/byte_io.hpp"

#include <gtest/gtest.h>

namespace netalytics::common {
namespace {

TEST(ByteIo, BigEndianRoundTrip16) {
  std::array<std::byte, 4> buf{};
  store_be16(buf, 1, 0xabcd);
  EXPECT_EQ(load_be16(buf, 1), 0xabcd);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[1]), 0xab);  // network order on wire
  EXPECT_EQ(static_cast<std::uint8_t>(buf[2]), 0xcd);
}

TEST(ByteIo, BigEndianRoundTrip32) {
  std::array<std::byte, 8> buf{};
  store_be32(buf, 2, 0xdeadbeef);
  EXPECT_EQ(load_be32(buf, 2), 0xdeadbeefu);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[2]), 0xde);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[5]), 0xef);
}

TEST(ByteIo, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(1234);
  w.u32(567890);
  w.u64(0x1122334455667788ULL);
  w.f64(3.25);
  w.str("hello world");
  const std::vector<std::byte> raw = {std::byte{1}, std::byte{2}};
  w.bytes(raw);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 1234);
  EXPECT_EQ(r.u32(), 567890u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello world");
  const auto got = r.bytes();
  EXPECT_EQ(std::vector<std::byte>(got.begin(), got.end()), raw);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, ReaderThrowsOnUnderflow) {
  ByteWriter w;
  w.u16(5);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16(), 5);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(ByteIo, ReaderThrowsOnTruncatedString) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow, but none do
  ByteReader r(w.view());
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(ByteIo, EmptyString) {
  ByteWriter w;
  w.str("");
  ByteReader r(w.view());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, StringViewConversion) {
  const std::string s = "abc";
  const auto bytes = as_bytes(s);
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_EQ(as_string_view(bytes), "abc");
}

}  // namespace
}  // namespace netalytics::common
