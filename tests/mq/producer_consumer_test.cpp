#include <gtest/gtest.h>

#include "mq/consumer.hpp"
#include "mq/producer.hpp"

namespace netalytics::mq {
namespace {

std::vector<std::byte> payload(std::size_t n) {
  return std::vector<std::byte>(n, std::byte{0x42});
}

TEST(ProducerConsumer, EndToEndDelivery) {
  Cluster cluster(2);
  Producer producer(cluster, /*producer_id=*/7);
  Consumer consumer(cluster, "g");

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(producer.send("http_get", payload(16), i));
  }
  const auto msgs = consumer.poll_batch("http_get", 100).records;
  ASSERT_EQ(msgs.size(), 5u);
  for (const auto& m : msgs) {
    EXPECT_EQ(m.key, 7u);
    EXPECT_EQ(m.payload.size(), 16u);
  }
  EXPECT_EQ(consumer.total_consumed(), 5u);
}

TEST(Producer, StatsTrackSentAndBytes) {
  Cluster cluster(1);
  Producer producer(cluster, 1);
  producer.send("t", payload(100), 0);
  producer.send("t", payload(50), 0);
  const auto s = producer.stats();
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.bytes, 150u);
  EXPECT_EQ(s.lost, 0u);
}

TEST(Producer, BackpressureCallbackFiresOnLowBuffer) {
  BrokerConfig cfg;
  cfg.partition_capacity = 10;
  cfg.high_watermark = 0.3;
  Cluster cluster(1, cfg);
  int events = 0;
  Producer producer(cluster, 1, [&](ProduceStatus s) {
    EXPECT_EQ(s, ProduceStatus::low_buffer);
    ++events;
  });
  for (int i = 0; i < 5; ++i) producer.send("t", payload(1), 0);
  EXPECT_GT(events, 0);
  EXPECT_EQ(producer.stats().backpressure_events, static_cast<std::uint64_t>(events));
}

TEST(Producer, BlockedSendIsBufferedAndRetriedToDelivery) {
  // 1 MB/s disk, 50 ms lag cap: the second 40 KB burst at t=0 blocks, goes
  // to the send-buffer, and lands once the simulated disk catches up.
  BrokerConfig cfg;
  cfg.persist_bytes_per_sec = 1'000'000;
  Cluster cluster(1, cfg);
  int events = 0;
  Producer producer(cluster, 1, [&](ProduceStatus) { ++events; });
  EXPECT_TRUE(producer.send("t", payload(40'000), 0));
  EXPECT_TRUE(producer.send("t", payload(40'000), 0));  // buffered, not lost
  EXPECT_EQ(producer.pending(), 1u);
  EXPECT_EQ(events, 1);
  EXPECT_EQ(producer.flush(100 * common::kMillisecond), 0u);
  const auto s = producer.stats();
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.lost, 0u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_EQ(cluster.aggregate_stats().produced, 2u);
}

TEST(Producer, PermanentlyBlockedSendIsAbandonedAfterMaxAttempts) {
  // A 5 KB message can never persist within the 50 ms lag cap at 1 KB/s,
  // so every retry fails and the message is dropped after max_attempts.
  BrokerConfig cfg;
  cfg.persist_bytes_per_sec = 1000;
  Cluster cluster(1, cfg);
  RetryPolicy retry;
  retry.max_attempts = 4;
  Producer producer(cluster, 1, nullptr, retry);
  EXPECT_TRUE(producer.send("t", payload(5000), 0));  // accepted: buffered
  common::Timestamp t = 0;
  while (producer.pending() > 0) {
    t += 100 * common::kMillisecond;
    producer.flush(t);
  }
  const auto s = producer.stats();
  EXPECT_EQ(s.lost, 1u);
  EXPECT_EQ(s.sent, 0u);
  EXPECT_EQ(s.retries, 3u);  // attempts 2..4 were retries
  EXPECT_EQ(s.backpressure_events, 4u);
}

TEST(Producer, SendBufferOverflowDropsNewMessages) {
  BrokerConfig cfg;
  cfg.persist_bytes_per_sec = 1;  // everything blocks
  Cluster cluster(1, cfg);
  RetryPolicy retry;
  retry.max_buffered = 2;
  retry.max_attempts = 0;  // never abandon by attempts
  Producer producer(cluster, 1, nullptr, retry);
  EXPECT_TRUE(producer.send("t", payload(100), 0));
  EXPECT_TRUE(producer.send("t", payload(100), 0));
  EXPECT_FALSE(producer.send("t", payload(100), 0));  // buffer full
  EXPECT_EQ(producer.stats().lost, 1u);
  EXPECT_EQ(producer.pending(), 2u);
}

TEST(Consumer, SeparateGroupsIndependentOffsets) {
  Cluster cluster(1);
  Producer producer(cluster, 1);
  producer.send("t", payload(1), 0);
  Consumer a(cluster, "a");
  Consumer b(cluster, "b");
  EXPECT_EQ(a.poll_batch("t", 10).size(), 1u);
  EXPECT_EQ(b.poll_batch("t", 10).size(), 1u);
  EXPECT_EQ(a.poll_batch("t", 10).size(), 0u);
}

TEST(ProducerConsumer, MultipleProducersFuseIntoOneTopic) {
  // §3.2: the aggregation layer fuses data streams from parsers replicated
  // at different points in the network.
  Cluster cluster(3);
  Producer p1(cluster, 1), p2(cluster, 2), p3(cluster, 3);
  for (int i = 0; i < 4; ++i) {
    p1.send("tcp_conn_time", payload(8), i);
    p2.send("tcp_conn_time", payload(8), i);
    p3.send("tcp_conn_time", payload(8), i);
  }
  Consumer consumer(cluster, "storm");
  EXPECT_EQ(consumer.poll_batch("tcp_conn_time", 100).size(), 12u);
}

}  // namespace
}  // namespace netalytics::mq
