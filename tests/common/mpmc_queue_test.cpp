#include "common/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace netalytics::common {
namespace {

TEST(MpmcQueue, BasicPushPop) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, TryPushFailsWhenFull) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(MpmcQueue, CloseDrainsRemainingItems) {
  MpmcQueue<int> q(8);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed
}

TEST(MpmcQueue, PopForTimesOut) {
  MpmcQueue<int> q(4);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
}

TEST(MpmcQueue, MultiProducerMultiConsumerConservation) {
  constexpr int kPerProducer = 20000;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  MpmcQueue<int> q(256);
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        consumed_sum += *v;
        ++consumed_count;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();

  EXPECT_EQ(consumed_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(consumed_sum.load(),
            static_cast<long long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2);
}

}  // namespace
}  // namespace netalytics::common
