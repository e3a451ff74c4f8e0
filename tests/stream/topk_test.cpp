#include "stream/topk.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::CaptureCollector;

TEST(CountingBolt, EmitsWindowTotalsOnTick) {
  CountingBolt bolt(/*key_index=*/0, /*slots=*/2);
  CaptureCollector out;
  bolt.execute(Tuple{{std::string("a")}}, out);
  bolt.execute(Tuple{{std::string("a")}}, out);
  bolt.execute(Tuple{{std::string("b")}}, out);
  EXPECT_TRUE(out.tuples.empty());
  bolt.tick(0, out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(as_str(out.tuples[0].at(0)), "a");
  EXPECT_EQ(as_u64(out.tuples[0].at(1)), 2u);
}

TEST(CountingBolt, WindowSlides) {
  CountingBolt bolt(0, 2);
  CaptureCollector out;
  bolt.execute(Tuple{{std::string("a")}}, out);
  bolt.tick(0, out);  // a=1, advance
  out.tuples.clear();
  bolt.tick(0, out);  // a still within the 2-slot window
  ASSERT_EQ(out.tuples.size(), 1u);
  out.tuples.clear();
  bolt.tick(0, out);  // expired
  EXPECT_TRUE(out.tuples.empty());
}

TEST(RankingsBolts, LocalThenGlobalTopK) {
  IntermediateRankingsBolt local(2);
  TotalRankingsBolt total(2);
  CaptureCollector local_out, total_out;

  local.execute(Tuple{{std::string("x"), std::uint64_t{10}}}, local_out);
  local.execute(Tuple{{std::string("y"), std::uint64_t{30}}}, local_out);
  local.execute(Tuple{{std::string("z"), std::uint64_t{20}}}, local_out);
  local.tick(0, local_out);
  ASSERT_EQ(local_out.tuples.size(), 2u);  // top-2 only

  for (auto& t : local_out.tuples) total.execute(std::move(t), total_out);
  total.tick(0, total_out);
  ASSERT_EQ(total_out.tuples.size(), 2u);
  EXPECT_EQ(as_u64(total_out.tuples[0].at(0)), 1u);  // rank
  EXPECT_EQ(as_str(total_out.tuples[0].at(1)), "y");
  EXPECT_EQ(as_u64(total_out.tuples[0].at(2)), 30u);
  EXPECT_EQ(as_str(total_out.tuples[1].at(1)), "z");
}

TEST(DatabaseBolt, WritesRankingsToKvStore) {
  KvStore store;
  DatabaseBolt bolt(store);
  CaptureCollector out;
  bolt.execute(Tuple{{std::uint64_t{1}, std::string("/hot.mp4"), std::uint64_t{99}}},
               out);
  EXPECT_EQ(store.hget("topk", "/hot.mp4").value(), "99");
  EXPECT_EQ(store.get("topk:rank:1").value(), "/hot.mp4");
  ASSERT_EQ(out.tuples.size(), 1u);  // forwards input
}

TEST(UpdaterBolt, ScalesUpAboveThreshold) {
  UpdaterConfig cfg;
  cfg.upper_threshold = 100;
  cfg.lower_threshold = 10;
  cfg.backoff = 5 * common::kSecond;
  std::vector<std::string> ups, downs;
  UpdaterBolt bolt(
      cfg, [&](const std::string& k, std::uint64_t) { ups.push_back(k); },
      [&](const std::string& k, std::uint64_t) { downs.push_back(k); });
  CaptureCollector out;
  bolt.execute(Tuple{{std::uint64_t{1}, std::string("hot"), std::uint64_t{500}}}, out);
  bolt.tick(common::kSecond, out);
  ASSERT_EQ(ups.size(), 1u);
  EXPECT_EQ(ups[0], "hot");
  EXPECT_TRUE(downs.empty());
}

TEST(UpdaterBolt, BackoffSuppressesRapidActions) {
  UpdaterConfig cfg;
  cfg.upper_threshold = 100;
  cfg.backoff = 10 * common::kSecond;
  int ups = 0;
  UpdaterBolt bolt(cfg, [&](const std::string&, std::uint64_t) { ++ups; }, nullptr);
  CaptureCollector out;
  for (int i = 1; i <= 5; ++i) {
    bolt.execute(Tuple{{std::uint64_t{1}, std::string("k"), std::uint64_t{200}}}, out);
    bolt.tick(static_cast<common::Timestamp>(i) * common::kSecond, out);
  }
  EXPECT_EQ(ups, 1);  // everything else inside the backoff window
  bolt.execute(Tuple{{std::uint64_t{1}, std::string("k"), std::uint64_t{200}}}, out);
  bolt.tick(20 * common::kSecond, out);
  EXPECT_EQ(ups, 2);
}

TEST(UpdaterBolt, ScalesDownBelowLowerThreshold) {
  UpdaterConfig cfg;
  cfg.upper_threshold = 1000;
  cfg.lower_threshold = 50;
  int downs = 0;
  UpdaterBolt bolt(cfg, nullptr,
                   [&](const std::string&, std::uint64_t) { ++downs; });
  CaptureCollector out;
  bolt.execute(Tuple{{std::uint64_t{1}, std::string("cold"), std::uint64_t{5}}}, out);
  bolt.tick(common::kSecond, out);
  EXPECT_EQ(downs, 1);
}

TEST(UpdaterBolt, MiddleBandTakesNoAction) {
  UpdaterConfig cfg;
  cfg.upper_threshold = 1000;
  cfg.lower_threshold = 10;
  int actions = 0;
  UpdaterBolt bolt(
      cfg, [&](const std::string&, std::uint64_t) { ++actions; },
      [&](const std::string&, std::uint64_t) { ++actions; });
  CaptureCollector out;
  bolt.execute(Tuple{{std::uint64_t{1}, std::string("warm"), std::uint64_t{500}}}, out);
  bolt.tick(common::kSecond, out);
  EXPECT_EQ(actions, 0);
}

}  // namespace
}  // namespace netalytics::stream
