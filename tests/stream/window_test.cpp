#include "stream/window.hpp"

#include <gtest/gtest.h>

namespace netalytics::stream {
namespace {

TEST(RollingCounter, RejectsZeroSlots) {
  EXPECT_THROW(RollingCounter(0), std::invalid_argument);
}

TEST(RollingCounter, CountsWithinWindow) {
  RollingCounter c(3);
  c.incr("a");
  c.incr("a", 2);
  c.incr("b");
  const auto totals = c.totals();
  EXPECT_EQ(totals.at("a"), 3u);
  EXPECT_EQ(totals.at("b"), 1u);
}

TEST(RollingCounter, AdvanceExpiresOldSlots) {
  RollingCounter c(2);  // window covers current + previous slot
  c.incr("a", 10);
  c.advance();
  c.incr("a", 1);
  EXPECT_EQ(c.totals().at("a"), 11u);  // both slots still in window
  c.advance();  // the slot holding 10 is reused/zeroed
  EXPECT_EQ(c.totals().at("a"), 1u);
  c.advance();
  EXPECT_TRUE(c.totals().empty());
  EXPECT_EQ(c.key_count(), 0u);  // fully-zero keys dropped
}

TEST(RollingCounter, KeysIndependent) {
  RollingCounter c(2);
  c.incr("a");
  c.advance();
  c.incr("b");
  const auto totals = c.totals();
  EXPECT_EQ(totals.at("a"), 1u);
  EXPECT_EQ(totals.at("b"), 1u);
}

TEST(Rankings, OrdersByCountDescending) {
  Rankings r(3);
  r.update("low", 1);
  r.update("high", 100);
  r.update("mid", 50);
  ASSERT_EQ(r.entries().size(), 3u);
  EXPECT_EQ(r.entries()[0].key, "high");
  EXPECT_EQ(r.entries()[1].key, "mid");
  EXPECT_EQ(r.entries()[2].key, "low");
}

TEST(Rankings, TrimsToK) {
  Rankings r(2);
  r.update("a", 1);
  r.update("b", 2);
  r.update("c", 3);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_EQ(r.entries()[0].key, "c");
  EXPECT_EQ(r.entries()[1].key, "b");
}

TEST(Rankings, UpdateIsUpsertNotIncrement) {
  Rankings r(5);
  r.update("a", 10);
  r.update("a", 4);  // newer total replaces
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_EQ(r.entries()[0].count, 4u);
}

TEST(Rankings, ReentryAfterEviction) {
  Rankings r(2);
  r.update("a", 10);
  r.update("b", 20);
  r.update("c", 5);   // evicted immediately
  r.update("c", 30);  // now beats everyone
  EXPECT_EQ(r.entries()[0].key, "c");
}

TEST(Rankings, MergeCombines) {
  Rankings a(3), b(3);
  a.update("x", 10);
  a.update("y", 5);
  b.update("z", 7);
  b.update("x", 12);
  a.merge(b);
  ASSERT_EQ(a.entries().size(), 3u);
  EXPECT_EQ(a.entries()[0].key, "x");
  EXPECT_EQ(a.entries()[0].count, 12u);  // merged value wins
  EXPECT_EQ(a.entries()[1].key, "z");
}

TEST(Rankings, DeterministicTieBreakByKey) {
  Rankings r(3);
  r.update("b", 5);
  r.update("a", 5);
  EXPECT_EQ(r.entries()[0].key, "a");
}

TEST(Rankings, TieAtTheKthEntryBreaksByKey) {
  // A full ranking admits a newcomer that ties the last count only when
  // its key sorts first; otherwise the newcomer is dropped unranked.
  Rankings r(2);
  r.update("a", 9);
  r.update("m", 5);
  r.update("z", 5);
  EXPECT_EQ(r.entries()[1].key, "m");
  r.update("b", 5);
  EXPECT_EQ(r.entries()[1].key, "b");
  r.update("c", 4);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_EQ(r.entries()[1], (Rankings::Entry{"b", 5}));
}

TEST(Rankings, PruneZeroCountsDropsKeysTheRefreshSkipped) {
  Rankings r(3);
  r.update("a", 5);
  r.update("b", 7);
  r.zero_counts();
  r.update("a", 6);  // the next refresh carries only "a"
  r.prune_zero_counts();
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_EQ(r.entries()[0], (Rankings::Entry{"a", 6}));
}

TEST(Rankings, ZeroKClampsToOne) {
  Rankings r(0);
  r.update("a", 1);
  r.update("b", 2);
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_EQ(r.entries()[0].key, "b");
}

}  // namespace
}  // namespace netalytics::stream
