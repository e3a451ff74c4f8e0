#include "stream/fanin.hpp"

#include <gtest/gtest.h>

namespace netalytics::stream {
namespace {

TEST(FanInTopK, SumsAcrossSourcesUnlikeMergeUpsert) {
  FanInTopK fanin(3, 2);
  // The same key counted independently by distinct children must *sum*:
  fanin.add(0, "url", 5);
  fanin.add(1, "url", 7);
  fanin.add(2, "url", 1);
  fanin.add(1, "other", 10);
  fanin.add(2, "small", 2);

  const Rankings global = fanin.global();
  ASSERT_EQ(global.entries().size(), 2u);
  EXPECT_EQ(global.entries()[0].key, "url");
  EXPECT_EQ(global.entries()[0].count, 13u);
  EXPECT_EQ(global.entries()[1].key, "other");
  EXPECT_EQ(global.entries()[1].count, 10u);

  // Contrast with Rankings::merge, which upserts the latest owner total.
  Rankings merged(2);
  merged.update("url", 5);
  Rankings other(2);
  other.update("url", 7);
  merged.merge(other);
  EXPECT_EQ(merged.entries()[0].count, 7u);  // upsert, not 12

  EXPECT_EQ(fanin.local(1).at("url"), 7u);
  EXPECT_EQ(fanin.total_updates(), 5u);
}

TEST(FanInTopK, RenderIsDeterministicAndRanked) {
  FanInTopK fanin(2, 10);
  fanin.add(0, "b", 2);
  fanin.add(1, "a", 2);
  fanin.add(0, "c", 9);
  const std::string first = fanin.render();
  EXPECT_EQ(first, fanin.render());
  // Equal counts break ties by key (Rankings order); c leads on count.
  EXPECT_EQ(first, "1 c 9\n2 a 2\n3 b 2\n");
}

TEST(FanInTopK, RejectsZeroSourcesAndClampsZeroK) {
  EXPECT_THROW(FanInTopK(0, 4), std::invalid_argument);
  FanInTopK one(1, 0);  // k clamps to 1
  one.add(0, "x", 1);
  one.add(0, "y", 5);
  EXPECT_EQ(one.global().entries().size(), 1u);
}

}  // namespace
}  // namespace netalytics::stream
