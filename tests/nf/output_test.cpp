#include "nf/output.hpp"

#include <gtest/gtest.h>

namespace netalytics::nf {
namespace {

struct CapturedBatch {
  std::string topic;
  std::vector<Record> records;
};

Record make_record(const std::string& topic, std::uint64_t id) {
  Record r;
  r.topic = topic;
  r.id = id;
  r.fields = {std::uint64_t{id * 2}};
  return r;
}

TEST(OutputInterface, BatchesByCount) {
  std::vector<CapturedBatch> batches;
  OutputInterface out(
      [&](std::string_view topic, std::vector<std::byte> payload, const BatchInfo&) {
        batches.push_back({std::string(topic), deserialize_batch(payload)});
      },
      3);

  out.emit(make_record("a", 1));
  out.emit(make_record("a", 2));
  EXPECT_TRUE(batches.empty());  // below batch size
  out.emit(make_record("a", 3));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].topic, "a");
  ASSERT_EQ(batches[0].records.size(), 3u);
  EXPECT_EQ(batches[0].records[1].id, 2u);
}

TEST(OutputInterface, TopicsBatchIndependently) {
  std::vector<CapturedBatch> batches;
  OutputInterface out(
      [&](std::string_view topic, std::vector<std::byte> payload, const BatchInfo&) {
        batches.push_back({std::string(topic), deserialize_batch(payload)});
      },
      2);
  out.emit(make_record("a", 1));
  out.emit(make_record("b", 2));
  EXPECT_TRUE(batches.empty());
  out.emit(make_record("a", 3));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].topic, "a");
}

TEST(OutputInterface, FlushShipsPartialBatches) {
  std::vector<CapturedBatch> batches;
  OutputInterface out(
      [&](std::string_view topic, std::vector<std::byte> payload, const BatchInfo&) {
        batches.push_back({std::string(topic), deserialize_batch(payload)});
      },
      100);
  out.emit(make_record("a", 1));
  out.emit(make_record("b", 2));
  out.flush();
  EXPECT_EQ(batches.size(), 2u);
  out.flush();  // nothing pending: no empty batches
  EXPECT_EQ(batches.size(), 2u);
}

TEST(OutputInterface, StatsAccumulate) {
  common::MetricsRegistry registry;
  OutputInterface out([](std::string_view, std::vector<std::byte>, const BatchInfo&) {},
                      2);
  out.bind_counters(&registry.counter("records"), &registry.counter("bytes"),
                    &registry.counter("batches"));
  out.emit(make_record("a", 1));
  out.emit(make_record("a", 2));
  out.emit(make_record("a", 3));
  out.flush();
  const auto s = registry.snapshot();
  EXPECT_EQ(s.counter_value("records"), 3u);
  EXPECT_EQ(s.counter_value("batches"), 2u);
  EXPECT_GT(s.counter_value("bytes"), 0u);
}

TEST(OutputInterface, ZeroBatchSizeBehavesAsOne) {
  int batches = 0;
  OutputInterface out(
      [&](std::string_view, std::vector<std::byte>, const BatchInfo&) { ++batches; }, 0);
  out.emit(make_record("a", 1));
  EXPECT_EQ(batches, 1);
}

TEST(OutputInterface, RecordCountArgumentMatches) {
  std::size_t last_count = 0;
  OutputInterface out(
      [&](std::string_view, std::vector<std::byte>, const BatchInfo& info) {
        last_count = info.records;
      },
      4);
  for (int i = 0; i < 4; ++i) out.emit(make_record("a", i));
  EXPECT_EQ(last_count, 4u);
}

}  // namespace
}  // namespace netalytics::nf
