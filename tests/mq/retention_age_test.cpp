// Age-based retention (Kafka retention.ms analogue): expired messages are
// evicted on the produce path, read evictions cost nothing, unread ones are
// recorded as broker_retention losses and surface the eviction_lag gauge.
#include <gtest/gtest.h>

#include "common/trace.hpp"
#include "mq/broker.hpp"
#include "mq/cluster.hpp"
#include "mq/consumer.hpp"

namespace netalytics::mq {
namespace {

Message make_msg(const std::string& topic, std::uint64_t key,
                 std::uint64_t records = 1) {
  Message m;
  m.topic = topic;
  m.key = key;
  m.payload = std::vector<std::byte>(8, std::byte{0x7f});
  m.records = records;
  return m;
}

BrokerConfig aged(common::Duration retention) {
  BrokerConfig cfg;
  cfg.retention_age = retention;
  return cfg;
}

TEST(RetentionAge, ExpiredMessagesAreEvictedOnProduce) {
  Broker broker(aged(1000));
  ASSERT_EQ(broker.produce(make_msg("t", 1), 0), ProduceStatus::ok);
  ASSERT_EQ(broker.produce(make_msg("t", 1), 500), ProduceStatus::ok);
  // Both are younger than 1000 at now=900: nothing evicted yet.
  ASSERT_EQ(broker.produce(make_msg("t", 1), 900), ProduceStatus::ok);
  EXPECT_EQ(broker.stats().dropped_retention, 0u);
  // At now=1700 the first two (append_ts 0 and 500) have expired.
  ASSERT_EQ(broker.produce(make_msg("t", 1), 1700), ProduceStatus::ok);
  EXPECT_EQ(broker.stats().dropped_retention, 2u);
  const auto msgs = broker.poll_batch("g", "t", 10).records;
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].append_ts, 900u);
}

TEST(RetentionAge, ZeroDisablesAgeEviction) {
  Broker broker;  // default config: no retention_age
  broker.produce(make_msg("t", 1), 0);
  broker.produce(make_msg("t", 1), 1u << 30);
  EXPECT_EQ(broker.stats().dropped_retention, 0u);
  EXPECT_EQ(broker.poll_batch("g", "t", 10).size(), 2u);
}

TEST(RetentionAge, ReadEvictionsAreNotCountedAsLost) {
  common::MetricsRegistry registry;
  common::DropLedger ledger(registry, "drop");
  Broker broker(aged(1000));
  broker.set_drop_ledger(&ledger);

  broker.produce(make_msg("t", 1, /*records=*/5), 0);
  ASSERT_EQ(broker.poll_batch("g", "t", 10).size(), 1u);  // consumed before expiry
  broker.produce(make_msg("t", 1), 5000);           // expires the first one
  EXPECT_EQ(broker.stats().dropped_retention, 1u);
  EXPECT_EQ(broker.stats().evicted_unread_records, 0u);
  EXPECT_EQ(ledger.value(common::DropCause::broker_retention), 0u);
}

TEST(RetentionAge, UnreadEvictionsLandInTheLedgerInRecords) {
  common::MetricsRegistry registry;
  common::DropLedger ledger(registry, "drop");
  Broker broker(aged(1000));
  broker.set_drop_ledger(&ledger);

  broker.produce(make_msg("t", 1, /*records=*/5), 0);
  broker.produce(make_msg("t", 1, /*records=*/3), 100);
  broker.produce(make_msg("t", 1), 5000);  // both unread and expired
  EXPECT_EQ(broker.stats().dropped_retention, 2u);
  EXPECT_EQ(broker.stats().evicted_unread_records, 8u);
  EXPECT_EQ(ledger.value(common::DropCause::broker_retention), 8u);
}

TEST(RetentionAge, SlowestGroupDefinesUnread) {
  Broker broker(aged(1000));
  broker.produce(make_msg("t", 1), 0);
  broker.produce(make_msg("t", 1, /*records=*/4), 100);
  ASSERT_EQ(broker.poll_batch("fast", "t", 10).size(), 2u);
  ASSERT_EQ(broker.poll_batch("slow", "t", 1).size(), 1u);  // stops before msg 2
  broker.produce(make_msg("t", 1), 5000);  // expires both
  // Everyone read message 1; "slow" never read message 2, so only its
  // records count as lost.
  EXPECT_EQ(broker.stats().dropped_retention, 2u);
  EXPECT_EQ(broker.stats().evicted_unread_records, 4u);
}

TEST(RetentionAge, EvictionLagGaugeTracksOldestRetainedAge) {
  common::MetricsRegistry registry;
  Broker broker(aged(10'000));
  broker.bind_metrics(registry, "mq.broker0");

  broker.produce(make_msg("t", 1), 1000);
  broker.produce(make_msg("t", 1), 4000);
  const auto snap = registry.snapshot("mq.broker0.");
  std::int64_t lag = -1;
  for (const auto& g : snap.gauges) {
    if (g.name == "mq.broker0.eviction_lag") lag = g.value;
  }
  // Oldest retained message was appended at 1000; now is 4000.
  EXPECT_EQ(lag, 3000);
}

TEST(RetentionAge, UnreadRecordsReportsBacklogPerTopic) {
  Cluster cluster(2, aged(0));
  for (std::uint64_t key = 0; key < 8; ++key) {
    ASSERT_EQ(cluster.produce(make_msg("t", key, /*records=*/2), 0),
              ProduceStatus::ok);
  }
  EXPECT_EQ(cluster.unread_records("t"), 16u);
  (void)cluster.poll_batch("g", "t", 3);
  EXPECT_EQ(cluster.unread_records("t"), 10u);
  (void)cluster.poll_batch("g", "t", 100);
  EXPECT_EQ(cluster.unread_records("t"), 0u);
  EXPECT_EQ(cluster.unread_records("other"), 0u);
}

TEST(RetentionAge, GroupMemberBehindRetentionHorizonResumesAtLogHead) {
  // A group member whose inherited cursor points below the retention
  // horizon must resume at the log head: the evicted gap is charged once
  // to broker_retention, never re-delivered and never silently skipped.
  common::MetricsRegistry registry;
  common::DropLedger ledger(registry, "drop");
  Cluster cluster(1, aged(1000));
  cluster.set_drop_ledger(&ledger);

  Consumer first(cluster, "g");
  for (std::uint64_t key = 0; key < 4; ++key) {
    ASSERT_EQ(cluster.produce(make_msg("t", key, /*records=*/2), 0),
              ProduceStatus::ok);
  }
  // The member reads only part of the backlog, then stalls.
  ASSERT_EQ(first.poll_batch("t", 1).size(), 1u);

  // While the cursor lags, the unread remainder ages past retention_age
  // (evicted on the next produce). 3 messages * 2 records were unread.
  for (std::uint64_t key = 0; key < 4; ++key) {
    ASSERT_EQ(cluster.produce(make_msg("t", key, /*records=*/2), 5000),
              ProduceStatus::ok);
  }
  EXPECT_EQ(ledger.value(common::DropCause::broker_retention), 6u);

  // Rebalance: the stalled member leaves and a fresh one inherits the
  // group cursor — now older than the log head.
  first.leave();
  Consumer second(cluster, "g");
  const auto resumed = second.poll_batch("t", 100).records;
  // It resumes at the head: exactly the 4 live messages, nothing replayed.
  EXPECT_EQ(resumed.size(), 4u);
  for (const auto& m : resumed) EXPECT_EQ(m.append_ts, 5000u);
  // The accounting is closed: consumed + evicted-unread covers every
  // produced record, and no further retention charge appears on poll.
  EXPECT_EQ(ledger.value(common::DropCause::broker_retention), 6u);
  EXPECT_EQ(cluster.unread_records("t"), 0u);
}

TEST(RetentionAge, CapacityEvictionAlsoFeedsTheLedger) {
  common::MetricsRegistry registry;
  common::DropLedger ledger(registry, "drop");
  BrokerConfig cfg;
  cfg.partition_capacity = 2;
  Broker broker(cfg);
  broker.set_drop_ledger(&ledger);

  for (int i = 0; i < 5; ++i) {
    // Ring semantics: the produce always lands (backpressure may advise
    // low_buffer, but nothing blocks).
    ASSERT_NE(broker.produce(make_msg("t", 1, /*records=*/2), i),
              ProduceStatus::blocked);
  }
  // Ring semantics: 3 unread messages fell off the front.
  EXPECT_EQ(broker.stats().dropped_retention, 3u);
  EXPECT_EQ(broker.stats().evicted_unread_records, 6u);
  EXPECT_EQ(ledger.value(common::DropCause::broker_retention), 6u);
}

}  // namespace
}  // namespace netalytics::mq
