// Chaos suite for the aggregation layer: a broker goes down mid-run, polls
// get cut short, messages get re-delivered — and the producer retry/backoff
// plus offset-tracking consumers must still deliver every message exactly
// where it belongs: at-least-once, per-key order intact, duplicates
// dedupable by (key, offset).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/fault.hpp"
#include "mq/consumer.hpp"
#include "mq/producer.hpp"

namespace netalytics::mq {
namespace {

std::vector<std::byte> encode_seq(std::uint64_t v) {
  std::vector<std::byte> p(8);
  for (int i = 0; i < 8; ++i) {
    p[static_cast<std::size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
  return p;
}

std::uint64_t decode_seq(std::span<const std::byte> p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

/// 10k-message soak with broker 0 down for a 2 s window mid-run, plus
/// random delivery delay and duplication. Asserts zero loss and per-key
/// order for a given chaos seed.
void run_soak(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr std::size_t kMessages = 10'000;
  constexpr std::size_t kProducers = 8;
  constexpr common::Duration kSendGap = common::kMillisecond;
  const common::Timestamp down_from = 2 * common::kSecond;
  const common::Timestamp down_until = 4 * common::kSecond;

  Cluster cluster(2);
  common::FaultPlan plan(seed);
  cluster.install_faults(&plan);

  common::FaultSpec down;
  down.window_start = down_from;
  down.window_end = down_until;
  plan.arm("mq.broker.0.down", down);
  common::FaultSpec sometimes;
  sometimes.probability = 0.02;
  plan.arm("mq.broker.0.delay", sometimes);
  plan.arm("mq.broker.1.delay", sometimes);
  plan.arm("mq.broker.0.duplicate", sometimes);
  plan.arm("mq.broker.1.duplicate", sometimes);

  // The window lasts 2 s; backoff caps at 64 ms, so ~32 retries ride it
  // out. 200 attempts leaves a wide margin without retrying forever.
  RetryPolicy retry;
  retry.max_attempts = 200;
  retry.initial_backoff = common::kMillisecond;
  retry.multiplier = 2.0;
  retry.max_backoff = 64 * common::kMillisecond;

  std::vector<std::unique_ptr<Producer>> producers;
  for (std::size_t i = 0; i < kProducers; ++i) {
    producers.push_back(std::make_unique<Producer>(
        cluster, /*producer_id=*/i + 1, nullptr, retry));
  }
  // Both brokers must be in play for the outage to matter.
  std::set<std::size_t> routed;
  for (std::size_t i = 0; i < kProducers; ++i) routed.insert(cluster.broker_of_key(i + 1));
  ASSERT_EQ(routed.size(), 2u);

  Consumer consumer(cluster, "soak");
  struct Arrival {
    std::uint64_t offset;
    std::uint64_t seq;
  };
  std::map<std::uint64_t, std::vector<Arrival>> arrivals;  // key -> in order
  const auto drain_once = [&] {
    for (const auto& m : consumer.poll_batch("chaos", 64).records) {
      arrivals[m.key].push_back({m.offset, decode_seq(m.payload)});
    }
  };

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  common::Timestamp now = 0;
  for (std::size_t i = 0; i < kMessages; ++i) {
    const std::size_t p = i % kProducers;
    ASSERT_TRUE(producers[p]->send("chaos", encode_seq(next_seq[p]++), now));
    now += kSendGap;
    if (i % 8 == 0) drain_once();
  }

  // Recovery: keep time moving, flush retry buffers, drain the topic.
  std::size_t idle_polls = 0;
  while (idle_polls < 10) {
    now += 10 * common::kMillisecond;
    std::size_t pending = 0;
    for (auto& p : producers) pending += p->flush(now);
    const auto batch = consumer.poll_batch("chaos", 256).records;
    for (const auto& m : batch) {
      arrivals[m.key].push_back({m.offset, decode_seq(m.payload)});
    }
    idle_polls = (pending == 0 && batch.empty()) ? idle_polls + 1 : 0;
    ASSERT_LT(now, common::Timestamp{60} * common::kSecond) << "soak did not drain";
  }

  // The outage actually happened and the producers actually fought it.
  EXPECT_GT(plan.fires("mq.broker.0.down"), 0u);
  std::uint64_t retries = 0, lost = 0;
  for (const auto& p : producers) {
    retries += p->stats().retries;
    lost += p->stats().lost;
    EXPECT_EQ(p->pending(), 0u);
  }
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(lost, 0u);

  // Zero loss, per-key order, duplicates deduped by offset.
  std::size_t unique_total = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    const std::uint64_t key = p + 1;
    const auto it = arrivals.find(key);
    ASSERT_NE(it, arrivals.end()) << "key " << key << " vanished";
    std::uint64_t last_offset = 0;
    std::set<std::uint64_t> seen_offsets;
    std::uint64_t expect_seq = 0;
    for (const auto& a : it->second) {
      EXPECT_GE(a.offset, last_offset) << "per-key order violated, key " << key;
      last_offset = a.offset;
      if (!seen_offsets.insert(a.offset).second) continue;  // duplicate
      EXPECT_EQ(a.seq, expect_seq) << "gap or reorder at key " << key;
      ++expect_seq;
    }
    unique_total += seen_offsets.size();
    EXPECT_EQ(expect_seq, next_seq[p]) << "lost messages for key " << key;
  }
  EXPECT_EQ(unique_total, kMessages);

  const auto stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.produced, kMessages);
  EXPECT_GT(stats.faulted_down, 0u);
}

TEST(MqChaos, SoakSeed1) { run_soak(1); }
TEST(MqChaos, SoakSeed20260805) { run_soak(20260805); }
TEST(MqChaos, SoakSeed0xC0FFEE) { run_soak(0xC0FFEE); }

TEST(MqChaos, SoakIsDeterministicPerSeed) {
  // Same seed twice -> identical fault accounting on the cluster.
  const auto run = [](std::uint64_t seed) {
    Cluster cluster(2);
    common::FaultPlan plan(seed);
    cluster.install_faults(&plan);
    common::FaultSpec sometimes;
    sometimes.probability = 0.05;
    plan.arm("mq.broker.0.delay", sometimes);
    plan.arm("mq.broker.0.duplicate", sometimes);
    Producer producer(cluster, 1, nullptr, {});
    Consumer consumer(cluster, "g");
    std::uint64_t consumed = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      producer.send("t", encode_seq(i), i * common::kMillisecond);
      consumed += consumer.poll_batch("t", 8).size();
    }
    const auto s = cluster.aggregate_stats();
    return std::tuple{s.faulted_delay, s.faulted_duplicate, consumed};
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(MqChaos, BrokerDownWindowBlocksProduceAndPollThenRecovers) {
  Broker broker;
  common::FaultPlan plan(5);
  broker.install_faults(&plan, "mq.broker");
  common::FaultSpec down;
  down.window_start = common::kSecond;
  down.window_end = 2 * common::kSecond;
  plan.arm("mq.broker.down", down);

  const auto msg = [](std::uint64_t seq) {
    Message m;
    m.topic = "t";
    m.key = 1;
    m.payload = encode_seq(seq);
    return m;
  };
  ASSERT_EQ(broker.produce(msg(0), 0), ProduceStatus::ok);
  ASSERT_EQ(broker.produce(msg(1), 0), ProduceStatus::ok);
  ASSERT_EQ(broker.poll_batch("g", "t", 1).size(), 1u);  // offset now at 1

  // Inside the window: produce blocks, poll serves nothing, and crucially
  // the group's offset does not move.
  EXPECT_EQ(broker.produce(msg(2), common::kSecond + 1), ProduceStatus::blocked);
  EXPECT_TRUE(broker.poll_batch("g", "t", 10).empty());
  EXPECT_EQ(broker.stats().faulted_down, 2u);

  // After recovery the same poll resumes exactly where it left off.
  EXPECT_EQ(broker.produce(msg(2), 2 * common::kSecond), ProduceStatus::ok);
  const auto rest = broker.poll_batch("g", "t", 10).records;
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(decode_seq(rest[0].payload), 1u);
  EXPECT_EQ(decode_seq(rest[1].payload), 2u);
}

TEST(MqChaos, DelayedDeliveryKeepsOrder) {
  Broker broker;
  common::FaultPlan plan(3);
  broker.install_faults(&plan, "mq.broker");
  common::FaultSpec delay;
  delay.every_nth = 3;
  plan.arm("mq.broker.delay", delay);

  for (std::uint64_t i = 0; i < 10; ++i) {
    Message m;
    m.topic = "t";
    m.key = 1;
    m.payload = encode_seq(i);
    ASSERT_NE(broker.produce(std::move(m), 0), ProduceStatus::blocked);
  }
  std::vector<std::uint64_t> seqs;
  int polls = 0;
  while (seqs.size() < 10 && polls++ < 100) {
    for (const auto& m : broker.poll_batch("g", "t", 100).records) {
      seqs.push_back(decode_seq(m.payload));
    }
  }
  ASSERT_EQ(seqs.size(), 10u);
  EXPECT_GT(polls, 1);  // at least one batch really was cut short
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_GT(broker.stats().faulted_delay, 0u);
}

TEST(MqChaos, DuplicatesAreAdjacentAndShareTheOffset) {
  Broker broker;
  common::FaultPlan plan(3);
  broker.install_faults(&plan, "mq.broker");
  common::FaultSpec dup;
  dup.every_nth = 2;
  plan.arm("mq.broker.duplicate", dup);

  for (std::uint64_t i = 0; i < 6; ++i) {
    Message m;
    m.topic = "t";
    m.key = 1;
    m.payload = encode_seq(i);
    broker.produce(std::move(m), 0);
  }
  const auto msgs = broker.poll_batch("g", "t", 100).records;
  ASSERT_EQ(msgs.size(), 9u);  // 6 originals + every 2nd re-delivered
  std::set<std::uint64_t> offsets;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(msgs[i].offset, msgs[i - 1].offset);
      if (msgs[i].offset == msgs[i - 1].offset) {
        EXPECT_EQ(decode_seq(msgs[i].payload), decode_seq(msgs[i - 1].payload));
      }
    }
    offsets.insert(msgs[i].offset);
  }
  EXPECT_EQ(offsets.size(), 6u);  // dedupe by offset recovers the originals
  EXPECT_EQ(broker.stats().faulted_duplicate, 3u);
}

TEST(MqChaos, ProduceRejectionIsRetriedElsewhereInTime) {
  // Injected rejection surfaces as ProduceStatus::dropped; the producer
  // buffers and the message still lands once the site stops firing.
  Cluster cluster(1);
  common::FaultPlan plan(11);
  cluster.install_faults(&plan);
  common::FaultSpec reject;
  reject.every_nth = 1;
  reject.max_fires = 2;
  plan.arm("mq.broker.0.reject", reject);

  Producer producer(cluster, 1, nullptr, {});
  EXPECT_TRUE(producer.send("t", encode_seq(0), 0));
  EXPECT_EQ(producer.pending(), 1u);
  common::Timestamp t = 0;
  while (producer.pending() > 0) {
    t += 10 * common::kMillisecond;
    producer.flush(t);
    ASSERT_LT(t, common::kSecond);
  }
  EXPECT_EQ(producer.stats().lost, 0u);
  Consumer consumer(cluster, "g");
  ASSERT_EQ(consumer.poll_batch("t", 10).size(), 1u);
  EXPECT_EQ(cluster.aggregate_stats().faulted_reject, 2u);
}

TEST(MqChaos, MidBatchRejectKeepsAtLeastOnceAndPerKeyOrder) {
  // Rejection fires in the middle of producer batches: the broker must hold
  // back the rest of the batch for that partition (not let younger records
  // overtake the refused one), and the producer's retry buffer must land
  // everything in order — at-least-once with per-key order intact.
  constexpr std::uint64_t kMessages = 400;
  Cluster cluster(1);
  common::FaultPlan plan(7);
  cluster.install_faults(&plan);
  common::FaultSpec reject;
  reject.every_nth = 7;  // lands at varying positions inside 8-record batches
  reject.max_fires = 20;
  plan.arm("mq.broker.0.reject", reject);

  RetryPolicy retry;
  retry.max_attempts = 50;
  BatchPolicy batch;
  batch.max_records = 8;
  Producer producer(cluster, 1, nullptr, retry, batch);

  Consumer consumer(cluster, "g");
  std::vector<std::uint64_t> seqs;
  common::Timestamp now = 0;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(producer.send("t", encode_seq(i), now));
    now += common::kMillisecond;
    for (const auto& m : consumer.poll_batch("t", 32).records) {
      seqs.push_back(decode_seq(m.payload));
    }
  }
  std::size_t idle = 0;
  while (idle < 5) {
    now += 10 * common::kMillisecond;
    const std::size_t left = producer.drain(now);
    const auto msgs = consumer.poll_batch("t", 256).records;
    for (const auto& m : msgs) seqs.push_back(decode_seq(m.payload));
    idle = (left == 0 && msgs.empty()) ? idle + 1 : 0;
    ASSERT_LT(now, common::Timestamp{30} * common::kSecond) << "did not drain";
  }

  // The injection really interrupted batches, nothing was lost, and the
  // sequence came out exactly in send order (single key, no dup faults).
  EXPECT_EQ(plan.fires("mq.broker.0.reject"), 20u);
  EXPECT_EQ(producer.stats().lost, 0u);
  EXPECT_GT(producer.stats().retries, 0u);
  ASSERT_EQ(seqs.size(), kMessages);
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_EQ(seqs[i], i) << "reorder or gap at " << i;
  }
}

}  // namespace
}  // namespace netalytics::mq
