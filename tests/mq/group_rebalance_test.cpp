// Consumer-group membership & rebalance (mq/group.hpp): a group of N
// members must deliver exactly what one consumer would — same message
// multiset, per-key order intact — including across mid-run join/leave
// generations, because partition cursors are shared group state and every
// partition has exactly one owner per generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/byte_io.hpp"
#include "mq/cluster.hpp"
#include "mq/consumer.hpp"
#include "mq/group.hpp"

namespace netalytics::mq {
namespace {

constexpr std::size_t kBrokers = 2;
constexpr std::size_t kPartitionsPerBroker = 4;
constexpr std::size_t kKeys = 16;
constexpr std::size_t kMessages = 200;

BrokerConfig grid_config() {
  BrokerConfig cfg;
  cfg.partitions_per_topic = kPartitionsPerBroker;
  return cfg;
}

/// Message seq `i` of key `i % kKeys`; the seq rides in the payload so a
/// delivery is identifiable regardless of which member fetched it.
Message make_msg(std::uint64_t seq) {
  Message m;
  m.topic = "t";
  m.key = seq % kKeys;
  common::ByteWriter w;
  w.u64(seq);
  m.payload = w.take();
  return m;
}

void produce_all(Cluster& cluster) {
  for (std::uint64_t seq = 0; seq < kMessages; ++seq) {
    ASSERT_EQ(cluster.produce(make_msg(seq), seq), ProduceStatus::ok);
  }
}

std::uint64_t seq_of(const FetchedRecord& m) {
  return common::ByteReader(m.payload.view()).u64();
}

/// Delivery log: seqs per key, in the order they were handed out.
using PerKey = std::map<std::uint64_t, std::vector<std::uint64_t>>;

void record(PerKey& log, const FetchBatch& batch) {
  for (const auto& m : batch.records) log[m.key].push_back(seq_of(m));
}

std::size_t total(const PerKey& log) {
  std::size_t n = 0;
  for (const auto& [key, seqs] : log) n += seqs.size();
  return n;
}

/// What draining every broker directly delivers — the differential
/// baseline, read below the coordinator so it does not depend on the
/// assignment code under test.
PerKey baseline() {
  Cluster cluster(kBrokers, grid_config());
  produce_all(cluster);
  PerKey log;
  for (std::size_t b = 0; b < cluster.broker_count(); ++b) {
    for (;;) {
      const auto batch = cluster.broker(b).poll_batch("base", "t", 7);
      if (batch.empty()) break;
      record(log, batch);
    }
  }
  EXPECT_EQ(total(log), kMessages);
  return log;
}

/// Poll every member once (member-rank order), appending to `log`.
/// Returns messages fetched this round.
std::size_t poll_round(std::vector<std::unique_ptr<Consumer>>& members,
                       PerKey& log) {
  std::size_t n = 0;
  for (auto& m : members) {
    const auto batch = m->poll_batch("t", 7);
    n += batch.size();
    record(log, batch);
  }
  return n;
}

void drain(std::vector<std::unique_ptr<Consumer>>& members, PerKey& log) {
  while (poll_round(members, log) != 0) {
  }
}

TEST(GroupRebalance, AssignmentIsDeterministicDisjointAndCovering) {
  GroupCoordinator coord(kBrokers, kPartitionsPerBroker);
  std::vector<std::uint64_t> members;
  for (std::size_t n = 1; n <= 5; ++n) {
    members.push_back(coord.join("g"));
    const auto shares = coord.assignments("g");
    ASSERT_EQ(shares.size(), n);
    // Disjoint and covering: every grid slot appears exactly once.
    std::vector<TopicPartition> all;
    for (const auto& share : shares) {
      all.insert(all.end(), share.begin(), share.end());
    }
    EXPECT_EQ(all.size(), coord.partition_count());
    const auto less = [](const TopicPartition& a, const TopicPartition& b) {
      return a.broker != b.broker ? a.broker < b.broker
                                  : a.partition < b.partition;
    };
    std::sort(all.begin(), all.end(), less);
    for (std::size_t i = 0; i + 1 < all.size(); ++i) {
      EXPECT_FALSE(all[i] == all[i + 1]);
    }
    // Pure function of membership: asking twice gives the same answer.
    for (const auto id : members) {
      EXPECT_EQ(coord.assignment("g", id), coord.assignment("g", id));
    }
  }
}

TEST(GroupRebalance, JoinLeaveBumpGenerationAndShiftRanks) {
  GroupCoordinator coord(kBrokers, kPartitionsPerBroker);
  EXPECT_EQ(coord.generation("g"), 0u);
  const auto a = coord.join("g");
  const auto b = coord.join("g");
  const auto c = coord.join("g");
  EXPECT_EQ(coord.generation("g"), 3u);
  EXPECT_EQ(coord.member_count("g"), 3u);

  const auto b_share_before = coord.assignment("g", b);
  EXPECT_TRUE(coord.leave("g", a));
  EXPECT_EQ(coord.generation("g"), 4u);
  // b is rank 0 now; its share changed (handoff) and a's is empty.
  EXPECT_NE(coord.assignment("g", b), b_share_before);
  EXPECT_TRUE(coord.assignment("g", a).empty());
  EXPECT_FALSE(coord.leave("g", a));  // idempotent
  EXPECT_EQ(coord.generation("g"), 4u);
  // Member ids are never reused.
  const auto d = coord.join("g");
  EXPECT_GT(d, c);
}

TEST(GroupRebalance, GroupOfNMatchesSingleConsumerBaseline) {
  const PerKey base = baseline();
  for (const std::size_t n : {1u, 2u, 4u}) {
    Cluster cluster(kBrokers, grid_config());
    produce_all(cluster);
    std::vector<std::unique_ptr<Consumer>> members;
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(
          std::make_unique<Consumer>(cluster, "g"));
    }
    ASSERT_EQ(cluster.coordinator().member_count("g"), n);
    PerKey log;
    drain(members, log);
    // Exactly the baseline: same multiset AND same per-key order (all
    // messages of a key live in one partition, owned by one member at a
    // time, so the shared cursor preserves their order).
    EXPECT_EQ(log, base) << "group size " << n;
  }
}

TEST(GroupRebalance, MidRunJoinAndLeaveKeepDeliveryExact) {
  const PerKey base = baseline();
  Cluster cluster(kBrokers, grid_config());
  produce_all(cluster);

  std::vector<std::unique_ptr<Consumer>> members;
  members.push_back(std::make_unique<Consumer>(cluster, "g"));
  members.push_back(std::make_unique<Consumer>(cluster, "g"));
  PerKey log;
  // Partial drain at size 2, then a third member joins (generation bump:
  // partitions move to it mid-stream)...
  for (int round = 0; round < 3; ++round) poll_round(members, log);
  const std::uint64_t gen_before = cluster.coordinator().generation("g");
  members.push_back(std::make_unique<Consumer>(cluster, "g"));
  EXPECT_EQ(cluster.coordinator().generation("g"), gen_before + 1);
  for (int round = 0; round < 3; ++round) poll_round(members, log);
  // ...then the first member leaves; its partitions hand their cursors to
  // the survivors.
  members.front()->leave();
  EXPECT_EQ(cluster.coordinator().member_count("g"), 2u);
  drain(members, log);

  EXPECT_EQ(total(log), kMessages);
  EXPECT_EQ(log, base);
}

TEST(GroupRebalance, RepeatedChurnNeverSkipsOrDoubleDelivers) {
  // Heavier churn: membership changes between every poll round. The union
  // must still be exact — no offset skipped (missing seq) and none read
  // twice (duplicate seq).
  const PerKey base = baseline();
  Cluster cluster(kBrokers, grid_config());
  produce_all(cluster);

  std::vector<std::unique_ptr<Consumer>> members;
  members.push_back(std::make_unique<Consumer>(cluster, "g"));
  PerKey log;
  for (int round = 0; total(log) < kMessages && round < 200; ++round) {
    if (round % 3 == 1 && members.size() < 5) {
      members.push_back(std::make_unique<Consumer>(cluster, "g"));
    } else if (round % 3 == 2 && members.size() > 1) {
      members.erase(members.begin());  // ~Consumer leaves the group
    }
    poll_round(members, log);
  }
  EXPECT_EQ(log, base);
}

TEST(GroupRebalance, DepartedMemberFetchesNothingUntilRejoin) {
  Cluster cluster(kBrokers, grid_config());
  produce_all(cluster);
  Consumer member(cluster, "g");
  const auto id = member.member_id();
  EXPECT_GT(id, 0u);
  member.leave();
  EXPECT_EQ(member.member_id(), 0u);
  EXPECT_TRUE(member.poll_batch("t", 100).empty());
  member.rejoin();
  EXPECT_GT(member.member_id(), id);  // fresh identity, never reused
  EXPECT_FALSE(member.poll_batch("t", 100).empty());
}

TEST(GroupRebalance, PlainConsumerIsAGroupMember) {
  // Every consumer joins its group at construction: a lone consumer is a
  // group of one that owns the whole grid, and after leave() it owns
  // nothing, so it fetches nothing.
  Cluster cluster(kBrokers, grid_config());
  produce_all(cluster);
  Consumer consumer(cluster, "g");
  EXPECT_EQ(cluster.coordinator().member_count("g"), 1u);
  EXPECT_GT(consumer.member_id(), 0u);
  PerKey log;
  for (std::size_t got = 0; got < kMessages;) {
    const auto batch = consumer.poll_batch("t", 64);
    ASSERT_FALSE(batch.empty()) << "stalled after " << got;
    got += batch.size();
    record(log, batch);
  }
  EXPECT_EQ(log, baseline());

  ASSERT_EQ(cluster.produce(make_msg(kMessages), kMessages), ProduceStatus::ok);
  consumer.leave();
  EXPECT_EQ(cluster.coordinator().member_count("g"), 0u);
  EXPECT_TRUE(consumer.poll_batch("t", 64).empty());
}

TEST(GroupRebalance, MembersSplitPartitionsInsteadOfMultiplyingWork) {
  // The scaling claim itself: 4 members consume each message once between
  // them (the broker counts every fetched message; splitting keeps the
  // total at kMessages, where 4 independent groups would read 4x).
  Cluster cluster(kBrokers, grid_config());
  produce_all(cluster);
  std::vector<std::unique_ptr<Consumer>> members;
  for (int i = 0; i < 4; ++i) {
    members.push_back(std::make_unique<Consumer>(cluster, "g"));
  }
  PerKey log;
  drain(members, log);
  EXPECT_EQ(cluster.aggregate_stats().consumed, kMessages);
  // And the split was real: every member fetched something.
  for (const auto& m : members) EXPECT_GT(m->total_consumed(), 0u);
}

}  // namespace
}  // namespace netalytics::mq
