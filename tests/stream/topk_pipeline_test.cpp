// Property tests for the full Fig.-4 top-k chain (parsing -> counting ->
// local rankings -> global ranking) on the stepped executor: for random
// streams and any parallelism, the topology's global top-k must equal a
// naive exact count.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <ostream>

#include "common/rng.hpp"
#include "stream/bolts.hpp"
#include "stream/stepped.hpp"
#include "stream/topk.hpp"
#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::ListSpout;

struct Params {
  std::uint64_t seed;
  std::size_t parallelism;
  std::size_t k;
};

// gtest prints a case's parameter with this, and gtest_discover_tests
// names the ctest case by it: Sweeps/TopKPipelineTest.MatchesNaiveCount/
// seed3_par4_k5 rather than the parameter's raw bytes. (A name generator
// would leave the raw bytes in the ctest name as a "# GetParam()" suffix.)
void PrintTo(const Params& p, std::ostream* os) {
  *os << "seed" << p.seed << "_par" << p.parallelism << "_k" << p.k;
}

class TopKPipelineTest : public ::testing::TestWithParam<Params> {};

TEST_P(TopKPipelineTest, MatchesNaiveCount) {
  const auto [seed, parallelism, k] = GetParam();
  common::Rng rng(seed);

  // A skewed random key stream.
  std::vector<Tuple> tuples;
  std::map<std::string, std::uint64_t> naive;
  for (int i = 0; i < 3000; ++i) {
    // Quadratic skew so ranks are distinct with high probability.
    const auto key_id = rng.uniform(0, 30);
    const std::string key = "key" + std::to_string(key_id * key_id / 7);
    tuples.push_back(Tuple{{key}});
    ++naive[key];
  }

  TopologyBuilder b("topk-pipeline");
  b.set_spout("s",
              [&tuples] { return std::make_unique<ListSpout>(tuples); },
              {"key"});
  b.set_bolt("count",
             [] { return std::make_unique<CountingBolt>(0, 10); },
             {"key", "count"}, parallelism)
      .fields_grouping("s", {"key"});
  b.set_bolt("rank", [k] { return std::make_unique<IntermediateRankingsBolt>(k); },
             {"key", "count"}, parallelism)
      .fields_grouping("count", {"key"});
  b.set_bolt("total", [k] { return std::make_unique<TotalRankingsBolt>(k); },
             {"rank", "key", "count"})
      .global_grouping("rank");
  std::vector<Tuple> results;
  b.set_bolt("sink",
             [&results] {
               return std::make_unique<SinkBolt>(
                   [&results](const Tuple& t) { results.push_back(t); });
             },
             {})
      .global_grouping("total");

  SteppedTopology topo(b.build());
  topo.run_until_idle(0);
  topo.tick(common::kSecond);

  // Last emission cycle = final ranking (k rows).
  ASSERT_GE(results.size(), std::min(k, naive.size()));
  std::vector<Tuple> final_rows(results.end() - static_cast<std::ptrdiff_t>(
                                                    std::min(k, naive.size())),
                                results.end());

  // Naive exact top-k.
  std::vector<std::pair<std::string, std::uint64_t>> expected(naive.begin(),
                                                              naive.end());
  std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  for (std::size_t r = 0; r < final_rows.size(); ++r) {
    EXPECT_EQ(as_u64(final_rows[r].at(0)), r + 1) << "rank position";
    EXPECT_EQ(as_str(final_rows[r].at(1)), expected[r].first)
        << "seed=" << seed << " parallelism=" << parallelism << " rank=" << r;
    EXPECT_EQ(as_u64(final_rows[r].at(2)), expected[r].second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TopKPipelineTest,
    ::testing::Values(Params{1, 1, 5}, Params{2, 2, 5}, Params{3, 4, 5},
                      Params{4, 3, 10}, Params{5, 2, 3}, Params{6, 4, 1},
                      Params{7, 8, 8}));

TEST(TopKPipeline, WindowExpiryDropsStaleKeys) {
  // Counting window of 2 slots: a key counted once must leave the ranking
  // after two ticks without traffic.
  TopologyBuilder b("t");
  auto tuples = std::vector<Tuple>{Tuple{{std::string("once")}}};
  b.set_spout("s", [tuples] { return std::make_unique<ListSpout>(tuples); },
              {"key"});
  b.set_bolt("count", [] { return std::make_unique<CountingBolt>(0, 2); },
             {"key", "count"})
      .fields_grouping("s", {"key"});
  std::vector<Tuple> emissions;
  b.set_bolt("sink",
             [&emissions] {
               return std::make_unique<SinkBolt>(
                   [&emissions](const Tuple& t) { emissions.push_back(t); });
             },
             {})
      .shuffle_grouping("count");
  SteppedTopology topo(b.build());
  topo.run_until_idle(0);
  topo.tick(1);
  EXPECT_EQ(emissions.size(), 1u);  // counted in window
  topo.tick(2);
  EXPECT_EQ(emissions.size(), 2u);  // still within the 2-slot window
  topo.tick(3);
  EXPECT_EQ(emissions.size(), 2u);  // expired: no emission
}

TEST(TopKPipeline, KeyLeavesRankingsWhenItAgesOutOfTheWindow) {
  // A key seen only in window 1 of a 2-slot counting window must leave the
  // global top-k once it ages out, not stay ranked with its old count.
  class FeedSpout final : public Spout {
   public:
    explicit FeedSpout(std::deque<Tuple>& feed) : feed_(feed) {}
    bool next_tuple(Collector& out, common::Timestamp) override {
      if (feed_.empty()) return false;
      out.emit(std::move(feed_.front()));
      feed_.pop_front();
      return true;
    }

   private:
    std::deque<Tuple>& feed_;
  };
  std::deque<Tuple> feed;
  TopologyBuilder b("stale-topk");
  b.set_spout("s", [&feed] { return std::make_unique<FeedSpout>(feed); },
              {"key"});
  b.set_bolt("count", [] { return std::make_unique<CountingBolt>(0, 2); },
             {"key", "count"}, 2)
      .fields_grouping("s", {"key"});
  b.set_bolt("rank", [] { return std::make_unique<IntermediateRankingsBolt>(5); },
             {"key", "count"}, 2)
      .fields_grouping("count", {"key"});
  b.set_bolt("total", [] { return std::make_unique<TotalRankingsBolt>(5); },
             {"rank", "key", "count"})
      .global_grouping("rank");
  std::vector<Tuple> results;
  b.set_bolt("sink",
             [&results] {
               return std::make_unique<SinkBolt>(
                   [&results](const Tuple& t) { results.push_back(t); });
             },
             {})
      .global_grouping("total");
  SteppedTopology topo(b.build());

  // Feeds one window of keys, ticks, and returns that tick's ranking as
  // "key:count" in rank order.
  auto window = [&](std::vector<std::string> keys, common::Timestamp now) {
    for (auto& key : keys) feed.push_back(Tuple{{std::move(key)}});
    topo.run_until_idle(now);
    const std::size_t before = results.size();
    topo.tick(now);
    std::vector<std::string> ranking;
    for (std::size_t i = before; i < results.size(); ++i) {
      EXPECT_EQ(as_u64(results[i].at(0)), i - before + 1) << "rank position";
      ranking.push_back(as_str(results[i].at(1)) + ":" +
                        std::to_string(as_u64(results[i].at(2))));
    }
    return ranking;
  };
  using Ranking = std::vector<std::string>;
  EXPECT_EQ(window({"old", "old", "old", "new"}, 1), (Ranking{"old:3", "new:1"}));
  EXPECT_EQ(window({"new"}, 2), (Ranking{"old:3", "new:2"}));  // still windowed
  EXPECT_EQ(window({"new"}, 3), (Ranking{"new:2"}));           // aged out
  EXPECT_EQ(window({"new"}, 4), (Ranking{"new:2"}));
}

}  // namespace
}  // namespace netalytics::stream
