// Real-thread concurrency over the sharded broker: N producer threads with
// distinct keys hammer one topic (optionally while a consumer polls), and
// per-key order plus zero loss must hold. These are the suites the TSan
// lane (tests/run_tsan.sh) exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

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

TEST(ConcurrentBroker, ParallelBatchProducersKeepPerKeyOrder) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  constexpr std::size_t kBatch = 16;

  BrokerConfig cfg;
  cfg.partitions_per_topic = 4;
  cfg.partition_capacity = kThreads * kPerThread;  // no retention pressure
  Broker broker(cfg);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&broker, t] {
      std::uint64_t seq = 0;
      while (seq < kPerThread) {
        std::vector<Message> batch;
        for (std::size_t i = 0; i < kBatch && seq < kPerThread; ++i, ++seq) {
          Message m;
          m.topic = "t";
          m.key = t + 1;
          m.timestamp = static_cast<common::Timestamp>(seq);
          m.payload = encode_seq(seq);
          batch.push_back(std::move(m));
        }
        std::vector<ProduceStatus> statuses(batch.size());
        broker.produce_batch(batch, 0, statuses);
        for (const auto s : statuses) {
          ASSERT_TRUE(s == ProduceStatus::ok || s == ProduceStatus::low_buffer);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_EQ(broker.stats().produced, kThreads * kPerThread);

  // One group drains everything; per key, offsets must be strictly
  // increasing and the sequence numbers must come out in send order.
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      by_key;  // key -> (offset, seq) in arrival order
  std::size_t total = 0;
  for (;;) {
    const auto msgs = broker.poll_batch("g", "t", 512).records;
    if (msgs.empty()) break;
    total += msgs.size();
    for (const auto& m : msgs) by_key[m.key].emplace_back(m.offset, decode_seq(m.payload));
  }
  ASSERT_EQ(total, kThreads * kPerThread);
  ASSERT_EQ(by_key.size(), kThreads);
  for (const auto& [key, arrivals] : by_key) {
    ASSERT_EQ(arrivals.size(), kPerThread) << "key " << key;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(arrivals[i].first, arrivals[i - 1].first)
            << "offset order broken for key " << key;
      }
      EXPECT_EQ(arrivals[i].second, i) << "seq order broken for key " << key;
    }
  }
}

TEST(ConcurrentBroker, ProducersAndConsumerOverlapWithoutLoss) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 1500;

  BrokerConfig cfg;
  cfg.partitions_per_topic = 2;
  cfg.partition_capacity = kThreads * kPerThread;
  Cluster cluster(2, cfg);

  std::map<std::uint64_t, std::vector<std::uint64_t>> seqs;  // key -> seqs
  std::size_t consumed = 0;
  std::atomic<bool> done{false};
  Consumer consumer(cluster, "live");
  const auto drain = [&] {
    for (const auto& m : consumer.poll_batch("t", 256).records) {
      seqs[m.key].push_back(decode_seq(m.payload));
      ++consumed;
    }
  };

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) drain();
  });

  {
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&cluster, t] {
        // Batched producer facade, exercised concurrently with the poller.
        BatchPolicy batch;
        batch.max_records = 8;
        Producer producer(cluster, t + 1, nullptr, {}, batch);
        for (std::uint64_t seq = 0; seq < kPerThread; ++seq) {
          ASSERT_TRUE(producer.send("t", encode_seq(seq),
                                    static_cast<common::Timestamp>(seq)));
        }
        producer.drain(kPerThread);
        ASSERT_EQ(producer.pending(), 0u);
      });
    }
    for (auto& th : writers) th.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  // Pick up the tail: everything was produced, so drain until a poll
  // comes back empty.
  for (std::size_t before = consumed - 1; before != consumed;) {
    before = consumed;
    drain();
  }

  ASSERT_EQ(consumed, kThreads * kPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto& s = seqs[t + 1];
    ASSERT_EQ(s.size(), kPerThread) << "key " << t + 1;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i], i) << "per-key order broken for key " << t + 1;
    }
  }
}

}  // namespace
}  // namespace netalytics::mq
