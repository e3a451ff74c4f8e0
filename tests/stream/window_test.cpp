#include "stream/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "stream/topk.hpp"
#include "test_util.hpp"

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
  EXPECT_EQ(c.total("a"), 3u);
  EXPECT_EQ(c.total("b"), 1u);
}

TEST(RollingCounter, AdvanceExpiresOldSlots) {
  RollingCounter c(2);  // window covers current + previous slot
  c.incr("a", 10);
  c.advance();
  c.incr("a", 1);
  EXPECT_EQ(c.total("a"), 11u);  // both slots still in window
  c.advance();  // the slot holding 10 is reused/zeroed
  EXPECT_EQ(c.total("a"), 1u);
  c.advance();
  EXPECT_EQ(c.total("a"), 0u);
  EXPECT_EQ(c.key_count(), 0u);  // fully-zero keys dropped
}

TEST(RollingCounter, KeysIndependent) {
  RollingCounter c(2);
  c.incr("a");
  c.advance();
  c.incr("b");
  EXPECT_EQ(c.total("a"), 1u);
  EXPECT_EQ(c.total("b"), 1u);
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

// ---------------------------------------------------------------------------
// Differential: the slot table (RollingCounter, and CountingBolt on top of
// it) against a naive ordered-map reference, driven by seeded random
// incr/advance sequences.

/// The reference's own key text, written out independently of
/// format_value: a string is itself, an integer its decimal digits, a
/// double "%.4f".
std::string naive_text(const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return std::to_string(*u);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4f", std::get<double>(v));
  return buf;
}

struct NaiveCounter {
  explicit NaiveCounter(std::size_t n) : slots(n) {}

  void incr(const std::string& key, std::uint64_t by, std::uint64_t trace) {
    auto it = counts.try_emplace(key, std::deque<std::uint64_t>(slots, 0)).first;
    it->second.back() += by;
    auto& t = traces[key];
    t = std::max(t, trace);
  }

  /// Returns the number of keys that left the window.
  std::size_t advance() {
    std::size_t evicted = 0;
    for (auto it = counts.begin(); it != counts.end();) {
      it->second.pop_front();
      it->second.push_back(0);
      if (std::all_of(it->second.begin(), it->second.end(),
                      [](std::uint64_t v) { return v == 0; })) {
        traces.erase(it->first);
        it = counts.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    return evicted;
  }

  std::uint64_t total(const std::string& key) const {
    const auto it = counts.find(key);
    if (it == counts.end()) return 0;
    std::uint64_t sum = 0;
    for (const auto v : it->second) sum += v;
    return sum;
  }

  /// (key, total, trace) rows in key order.
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> rows() const {
    std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> out;
    for (const auto& [key, ring] : counts) {
      out.emplace_back(key, total(key), traces.at(key));
    }
    return out;
  }

  std::size_t slots;
  std::map<std::string, std::deque<std::uint64_t>> counts;
  std::map<std::string, std::uint64_t> traces;
};

std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> table_rows(
    RollingCounter& c) {
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> out;
  c.for_each_sorted([&out](const RollingCounter::Entry& e) {
    out.emplace_back(std::string(e.key), e.total, e.trace);
  });
  return out;
}

/// One phase of a run: keys drawn from a pool of `pool` keys, the window
/// advanced with probability `advance_p` per step.
struct Phase {
  std::uint64_t pool;
  double advance_p;
  int steps;
};

// Grow to thousands of live keys (several table doublings), then churn a
// few hot keys that age out and come back, then mix the two.
constexpr Phase kPhases[] = {
    {4000, 0.0004, 6000}, {40, 0.05, 3000}, {3000, 0.02, 4000}, {12, 0.3, 1500}};

/// Key `i` of the pool: short and heap-sized strings, u64 and i64 numbers.
/// Every fifth key is the decimal string of a u64 key, and a few fixed keys
/// (u64 5, "5", i64 5, 2.5 and "2.5000") format alike in pairs: each pair
/// must count as one key.
Value pool_key(common::Rng& rng, std::uint64_t pool) {
  static const Value kAlike[] = {Value{std::uint64_t{5}}, Value{std::string("5")},
                                 Value{std::int64_t{5}}, Value{2.5},
                                 Value{std::string("2.5000")}};
  if (rng.uniform(0, 15) == 0) return kAlike[rng.uniform(0, std::size(kAlike) - 1)];
  const std::uint64_t i = rng.uniform(0, pool - 1);
  switch (i % 5) {
    case 0: return std::string("k") + std::to_string(i);
    case 1: return std::string("/content/trending/item-") + std::to_string(i);
    case 2: return std::uint64_t{i};
    case 3: return std::to_string(i - 1);  // the u64 key just below, as text
    default: return -static_cast<std::int64_t>(i);
  }
}

std::uint64_t draw_trace(common::Rng& rng) {
  return rng.uniform(0, 3) == 0 ? rng.uniform(1, 1'000'000) : 0;
}

TEST(RollingCounterDifferential, MatchesNaiveReference) {
  for (const std::size_t slots : {1u, 2u, 30u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) + " seed=" + std::to_string(seed));
      common::Rng rng(seed);
      RollingCounter table(slots);
      NaiveCounter naive(slots);
      std::size_t max_keys = 0;
      int step = 0;
      for (const Phase& phase : kPhases) {
        for (int i = 0; i < phase.steps; ++i, ++step) {
          if (rng.next_double() < phase.advance_p) {
            const std::size_t before = table.key_count();
            table.advance();
            ASSERT_EQ(before - table.key_count(), naive.advance()) << "step " << step;
            ASSERT_EQ(table_rows(table), naive.rows()) << "step " << step;
            continue;
          }
          const Value key = pool_key(rng, phase.pool);
          const std::uint64_t by = rng.uniform(1, 3);
          const std::uint64_t trace = draw_trace(rng);
          ValueText buf;
          table.incr(format_value(key, buf), by, trace);
          const std::string text = naive_text(key);
          naive.incr(text, by, trace);
          ASSERT_EQ(table.key_count(), naive.counts.size()) << "step " << step;
          ASSERT_EQ(table.total(text), naive.total(text)) << "step " << step;
          const std::string other = naive_text(pool_key(rng, phase.pool));
          ASSERT_EQ(table.total(other), naive.total(other)) << "step " << step;
          if (step % 64 == 0) {
            ASSERT_EQ(table_rows(table), naive.rows()) << "step " << step;
          }
          max_keys = std::max(max_keys, naive.counts.size());
        }
      }
      ASSERT_EQ(table_rows(table), naive.rows());
      EXPECT_GT(max_keys, 1000u);  // the index doubled past 2048 cells
    }
  }
}

TEST(RollingCounterDifferential, CountingBoltTicksMatchNaiveReference) {
  for (const std::size_t slots : {1u, 2u, 30u}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    common::Rng rng(7 + slots);
    common::MetricsRegistry registry;
    common::DropLedger ledger(registry);
    common::Gauge gauge;
    CountingBolt bolt(/*key_index=*/0, slots);
    bolt.set_drop_ledger(&ledger);
    bolt.set_window_gauge(&gauge);
    NaiveCounter naive(slots);
    testing::CaptureCollector out;
    int step = 0;
    for (const Phase& phase : kPhases) {
      for (int i = 0; i < phase.steps; ++i, ++step) {
        if (rng.next_double() < phase.advance_p) {
          out.tuples.clear();
          const std::uint64_t evicted_before =
              ledger.value(common::DropCause::stream_window_eviction);
          bolt.tick(0, out);
          std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> emitted;
          for (const Tuple& t : out.tuples) {
            emitted.emplace_back(as_str(t.at(0)), as_u64(t.at(1)), t.trace);
          }
          ASSERT_EQ(emitted, naive.rows()) << "step " << step;
          const std::size_t evicted = naive.advance();
          ASSERT_EQ(ledger.value(common::DropCause::stream_window_eviction) - evicted_before,
                    evicted)
              << "step " << step;
        } else {
          const Value key = pool_key(rng, phase.pool);
          const std::uint64_t trace = draw_trace(rng);
          bolt.execute(Tuple{{key}, trace}, out);
          naive.incr(naive_text(key), 1, trace);
        }
        ASSERT_EQ(gauge.value(), static_cast<std::int64_t>(naive.counts.size()))
            << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace netalytics::stream
