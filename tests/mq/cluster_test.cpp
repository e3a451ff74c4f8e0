#include "mq/cluster.hpp"

#include <gtest/gtest.h>

namespace netalytics::mq {
namespace {

Message make_msg(const std::string& topic, std::uint64_t key) {
  Message m;
  m.topic = topic;
  m.key = key;
  m.payload = std::vector<std::byte>(8, std::byte{1});
  return m;
}

TEST(Cluster, RoutesByKeyAcrossBrokers) {
  Cluster cluster(4);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(cluster.produce(make_msg("t", k), 0), ProduceStatus::ok);
  }
  // All brokers should hold something (100 keys over 4 brokers).
  int nonempty = 0;
  for (std::size_t b = 0; b < cluster.broker_count(); ++b) {
    nonempty += cluster.broker(b).depth("t") > 0;
  }
  EXPECT_EQ(nonempty, 4);
  EXPECT_EQ(cluster.depth("t"), 100u);
}

TEST(Cluster, SameKeyAlwaysSameBroker) {
  Cluster cluster(4);
  for (int i = 0; i < 10; ++i) cluster.produce(make_msg("t", 42), 0);
  int holders = 0;
  for (std::size_t b = 0; b < cluster.broker_count(); ++b) {
    holders += cluster.broker(b).depth("t") > 0;
  }
  EXPECT_EQ(holders, 1);  // ordering preserved for one producer
}

TEST(Cluster, PollGathersFromAllBrokers) {
  Cluster cluster(3);
  for (std::uint64_t k = 0; k < 30; ++k) cluster.produce(make_msg("t", k), 0);
  const auto msgs = cluster.poll_batch("g", "t", 100).records;
  EXPECT_EQ(msgs.size(), 30u);
  EXPECT_TRUE(cluster.poll_batch("g", "t", 100).empty());
}

TEST(Cluster, PollRespectsMaxAcrossBrokers) {
  Cluster cluster(3);
  for (std::uint64_t k = 0; k < 30; ++k) cluster.produce(make_msg("t", k), 0);
  EXPECT_EQ(cluster.poll_batch("g", "t", 7).size(), 7u);
}

TEST(Cluster, ZeroBrokersClampedToOne) {
  Cluster cluster(0);
  EXPECT_EQ(cluster.broker_count(), 1u);
  EXPECT_EQ(cluster.produce(make_msg("t", 1), 0), ProduceStatus::ok);
}

TEST(Cluster, AggregateStatsSumBrokers) {
  Cluster cluster(2);
  for (std::uint64_t k = 0; k < 10; ++k) cluster.produce(make_msg("t", k), 0);
  cluster.poll_batch("g", "t", 4);
  const auto s = cluster.aggregate_stats();
  EXPECT_EQ(s.produced, 10u);
  EXPECT_EQ(s.consumed, 4u);
  EXPECT_EQ(s.bytes_in, 80u);
}

TEST(Cluster, OccupancyIsWorstCase) {
  BrokerConfig cfg;
  cfg.partition_capacity = 10;
  Cluster cluster(2, cfg);
  // Push 6 messages with one key -> all on one broker.
  for (int i = 0; i < 6; ++i) cluster.produce(make_msg("t", 7), 0);
  EXPECT_NEAR(cluster.occupancy("t"), 0.6, 1e-9);
}

}  // namespace
}  // namespace netalytics::mq
