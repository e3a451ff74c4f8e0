#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace netalytics::net {
namespace {

std::vector<std::byte> some_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i & 0xff);
  return v;
}

TEST(PacketPool, AllocateAndRelease) {
  PacketPool pool(4);
  EXPECT_EQ(pool.available(), 4u);
  {
    PacketPtr p = pool.allocate();
    ASSERT_TRUE(p);
    EXPECT_EQ(pool.available(), 3u);
  }
  EXPECT_EQ(pool.available(), 4u);  // destructor returned the buffer
}

TEST(PacketPool, ExhaustionReturnsEmptyHandle) {
  PacketPool pool(2);
  PacketPtr a = pool.allocate();
  PacketPtr b = pool.allocate();
  PacketPtr c = pool.allocate();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.allocation_failures(), 1u);
  a.reset();
  PacketPtr d = pool.allocate();
  EXPECT_TRUE(d);
}

TEST(PacketPool, MakePacketCopiesContent) {
  PacketPool pool(2);
  const auto bytes = some_bytes(100);
  PacketPtr p = pool.make_packet(bytes, 12345);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->size(), 100u);
  EXPECT_EQ(p->timestamp(), 12345u);
  EXPECT_EQ(std::memcmp(p->bytes().data(), bytes.data(), bytes.size()), 0);
}

TEST(PacketPool, MakePacketRejectsOversized) {
  PacketPool pool(2);
  const auto bytes = some_bytes(Packet::kMaxSize + 1);
  EXPECT_FALSE(pool.make_packet(bytes, 0));
  EXPECT_EQ(pool.available(), 2u);  // nothing leaked
}

TEST(PacketPtr, CopySharesBuffer) {
  PacketPool pool(2);
  PacketPtr a = pool.make_packet(some_bytes(10), 1);
  PacketPtr b = a;  // second reference
  EXPECT_EQ(pool.available(), 1u);
  a.reset();
  EXPECT_EQ(pool.available(), 1u);  // b still holds it
  b.reset();
  EXPECT_EQ(pool.available(), 2u);
}

TEST(PacketPtr, MoveDoesNotChangeRefcount) {
  PacketPool pool(2);
  PacketPtr a = pool.allocate();
  PacketPtr b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.available(), 1u);
  b.reset();
  EXPECT_EQ(pool.available(), 2u);
}

TEST(PacketPtr, SelfAssignmentSafe) {
  PacketPool pool(2);
  PacketPtr a = pool.allocate();
  PacketPtr& ref = a;
  a = ref;
  EXPECT_TRUE(a);
  EXPECT_EQ(pool.available(), 1u);
}

TEST(PacketPtr, CopyAssignmentReleasesOld) {
  PacketPool pool(2);
  PacketPtr a = pool.allocate();
  PacketPtr b = pool.allocate();
  EXPECT_EQ(pool.available(), 0u);
  a = b;  // a's original buffer must return to the pool
  EXPECT_EQ(pool.available(), 1u);
}

TEST(PacketPool, FullExhaustionCountsEveryFailureAndRecovers) {
  // Drain the pool completely, hammer it while dry (both allocate and
  // make_packet must fail and count), then free everything and verify the
  // pool serves its full capacity again.
  constexpr std::size_t kPoolSize = 8;
  PacketPool pool(kPoolSize);
  std::vector<PacketPtr> held;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    PacketPtr p = pool.allocate();
    ASSERT_TRUE(p);
    held.push_back(std::move(p));
  }
  EXPECT_EQ(pool.available(), 0u);

  const auto bytes = some_bytes(64);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(pool.allocate());
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(pool.make_packet(bytes, i));
  EXPECT_EQ(pool.allocation_failures(), 10u);

  held.clear();
  EXPECT_EQ(pool.available(), kPoolSize);
  held.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    PacketPtr p = pool.make_packet(bytes, i);
    ASSERT_TRUE(p);  // full capacity restored, no buffer lost to the drought
    EXPECT_EQ(p->size(), 64u);
    held.push_back(std::move(p));
  }
  EXPECT_EQ(pool.allocation_failures(), 10u);  // recovery added no failures
}

TEST(PacketPool, BoundMetricsTrackOccupancyAndFailures) {
  common::MetricsRegistry registry;
  PacketPool pool(2);
  pool.bind_metrics(registry, "net.pool");

  auto snap = registry.snapshot("net.pool.");
  ASSERT_EQ(snap.gauges.size(), 2u);  // capacity + in_use
  EXPECT_EQ(snap.gauges[0].name, "net.pool.capacity");
  EXPECT_EQ(snap.gauges[0].value, 2);

  PacketPtr a = pool.allocate();
  PacketPtr b = pool.allocate();
  EXPECT_FALSE(pool.allocate());  // dry
  snap = registry.snapshot("net.pool.");
  EXPECT_EQ(snap.gauges[1].name, "net.pool.in_use");
  EXPECT_EQ(snap.gauges[1].value, 2);
  EXPECT_EQ(snap.counter_value("net.pool.alloc_failures"), 1u);

  a.reset();
  b.reset();
  snap = registry.snapshot("net.pool.");
  EXPECT_EQ(snap.gauges[1].value, 0);  // releases decrement in_use
}

TEST(PacketPool, ConcurrentAllocReleaseConserved) {
  // Property: after all threads finish, every buffer is back in the pool.
  constexpr std::size_t kPoolSize = 64;
  PacketPool pool(kPoolSize);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 20000; ++i) {
        PacketPtr p = pool.allocate();
        if (p) {
          p->set_size(64);
          PacketPtr copy = p;  // exercise refcount cross-thread paths
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.available(), kPoolSize);
}

}  // namespace
}  // namespace netalytics::net
