// Producer batch accumulation (BatchPolicy): record-count / byte-cap /
// linger-deadline triggers, the zero-linger pump contract, and the
// refcounted zero-copy payload handoff on poll.
#include <gtest/gtest.h>

#include "mq/consumer.hpp"
#include "mq/producer.hpp"

namespace netalytics::mq {
namespace {

std::vector<std::byte> payload(std::size_t n) {
  return std::vector<std::byte>(n, std::byte{0x42});
}

TEST(ProducerBatch, AccumulatesUntilMaxRecords) {
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 4;
  Producer producer(cluster, 1, nullptr, {}, batch);

  for (int i = 0; i < 3; ++i) EXPECT_TRUE(producer.send("t", payload(8), 0));
  EXPECT_EQ(cluster.depth("t"), 0u);  // nothing shipped yet
  EXPECT_EQ(producer.open_records(), 3u);

  EXPECT_TRUE(producer.send("t", payload(8), 0));  // 4th record fills it
  EXPECT_EQ(cluster.depth("t"), 4u);
  EXPECT_EQ(producer.open_records(), 0u);
  EXPECT_EQ(producer.stats().batches, 1u);
  EXPECT_EQ(producer.stats().sent, 4u);
}

TEST(ProducerBatch, ShipsWhenByteCapReached) {
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 100;
  batch.max_bytes = 64;
  Producer producer(cluster, 1, nullptr, {}, batch);

  producer.send("t", payload(40), 0);
  EXPECT_EQ(cluster.depth("t"), 0u);
  producer.send("t", payload(40), 0);  // 80 bytes >= 64: ships
  EXPECT_EQ(cluster.depth("t"), 2u);
}

TEST(ProducerBatch, FlushShipsOnLingerDeadline) {
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 100;
  batch.linger = 5 * common::kMillisecond;
  Producer producer(cluster, 1, nullptr, {}, batch);

  producer.send("t", payload(8), 0);  // deadline = 5 ms
  EXPECT_EQ(producer.flush(4 * common::kMillisecond), 1u);  // not due yet
  EXPECT_EQ(cluster.depth("t"), 0u);
  EXPECT_EQ(producer.flush(5 * common::kMillisecond), 0u);  // deadline hit
  EXPECT_EQ(cluster.depth("t"), 1u);
}

TEST(ProducerBatch, SendPastLingerShipsTheOldBatch) {
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 100;
  batch.linger = 5 * common::kMillisecond;
  Producer producer(cluster, 1, nullptr, {}, batch);

  producer.send("t", payload(8), 0);
  producer.send("t", payload(8), 3 * common::kMillisecond);  // joins the batch
  EXPECT_EQ(cluster.depth("t"), 0u);
  // Time has moved past the deadline: the old batch ships, this record
  // opens a fresh one.
  producer.send("t", payload(8), 6 * common::kMillisecond);
  EXPECT_EQ(cluster.depth("t"), 2u);
  EXPECT_EQ(producer.open_records(), 1u);
}

TEST(ProducerBatch, ZeroLingerAccumulatesWithinATimestep) {
  // linger = 0 is the engine's pump contract: sends sharing a virtual
  // timestamp accumulate, and flush() at that same instant ships them.
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 100;
  Producer producer(cluster, 1, nullptr, {}, batch);

  for (int i = 0; i < 5; ++i) producer.send("t", payload(8), common::kSecond);
  EXPECT_EQ(producer.open_records(), 5u);
  EXPECT_EQ(cluster.depth("t"), 0u);
  EXPECT_EQ(producer.flush(common::kSecond), 0u);
  EXPECT_EQ(cluster.depth("t"), 5u);
  EXPECT_EQ(producer.stats().batches, 1u);
}

TEST(ProducerBatch, DrainForceShipsOpenBatches) {
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 100;
  batch.linger = common::kSecond;
  Producer producer(cluster, 1, nullptr, {}, batch);

  producer.send("a", payload(8), 0);
  producer.send("b", payload(8), 0);
  EXPECT_EQ(producer.drain(0), 0u);  // long linger ignored
  EXPECT_EQ(cluster.depth("a"), 1u);
  EXPECT_EQ(cluster.depth("b"), 1u);
}

TEST(ProducerBatch, TopicsBatchIndependently) {
  Cluster cluster(1);
  BatchPolicy batch;
  batch.max_records = 2;
  Producer producer(cluster, 1, nullptr, {}, batch);

  producer.send("a", payload(8), 0);
  producer.send("b", payload(8), 0);
  EXPECT_EQ(cluster.depth("a"), 0u);
  EXPECT_EQ(cluster.depth("b"), 0u);
  producer.send("a", payload(8), 0);  // only "a" fills
  EXPECT_EQ(cluster.depth("a"), 2u);
  EXPECT_EQ(cluster.depth("b"), 0u);
}

TEST(ProducerBatch, RefusedBatchIsBufferedAndRetriedInOrder) {
  // 1 MB/s disk with a 50 ms lag cap admits one 40 KB record; the rest of
  // the batch is refused, buffered, and delivered later in send order.
  BrokerConfig cfg;
  cfg.persist_bytes_per_sec = 1'000'000;
  Cluster cluster(1, cfg);
  BatchPolicy batch;
  batch.max_records = 3;
  Producer producer(cluster, 1, nullptr, {}, batch);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(producer.send("t", payload(40'000), 0));
  }
  EXPECT_EQ(producer.pending(), 2u);  // first admitted, rest held back
  common::Timestamp t = 0;
  while (producer.pending() > 0) {
    t += 50 * common::kMillisecond;
    producer.flush(t);
    ASSERT_LT(t, common::kSecond);
  }
  EXPECT_EQ(producer.stats().lost, 0u);
  Consumer consumer(cluster, "g");
  const auto msgs = consumer.poll_batch("t", 10).records;
  ASSERT_EQ(msgs.size(), 3u);
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    EXPECT_GT(msgs[i].offset, msgs[i - 1].offset);
  }
}

TEST(ProducerBatch, PollHandsOutSharedPayloadBytes) {
  // The acceptance bar for the zero-copy path: after a poll, the consumer's
  // message and the broker's log entry reference the same bytes.
  Cluster cluster(1);
  Producer producer(cluster, 1);
  producer.send("t", payload(1024), 0);

  Consumer a(cluster, "a");
  Consumer b(cluster, "b");
  const auto ma = a.poll_batch("t", 1).records;
  const auto mb = b.poll_batch("t", 1).records;
  ASSERT_EQ(ma.size(), 1u);
  ASSERT_EQ(mb.size(), 1u);
  // Same underlying buffer, three live references: log + two consumers.
  EXPECT_EQ(ma[0].payload.data(), mb[0].payload.data());
  EXPECT_GE(ma[0].payload.use_count(), 3);
}

}  // namespace
}  // namespace netalytics::mq
