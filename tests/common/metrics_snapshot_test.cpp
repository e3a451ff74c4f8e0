// Snapshot filtering and diff-stable rendering: the contract the drop
// ledger, reconcile() and the tsdb captures all build on.
#include <gtest/gtest.h>

#include "common/metrics.hpp"

namespace netalytics::common {
namespace {

/// A registry with names spread across kinds and prefixes.
void populate(MetricsRegistry& r) {
  r.counter("q1.mon0.rx_packets").inc(100);
  r.counter("q1.producer0.sent").inc(40);
  r.counter("q10.mon0.rx_packets").inc(7);  // "q1" must not match this
  r.gauge("q1.proc0.spout0.buffered_records").set(3);
  r.gauge("mq.broker0.eviction_lag").set(2000);
  r.histogram("q1.stage.emit", {10, 100}).observe(5);
  r.histogram("q1.stage.emit", {10, 100}).observe(50);
}

TEST(SnapshotPrefix, EmptyPrefixReturnsEverything) {
  MetricsRegistry r;
  populate(r);
  const auto snap = r.snapshot();
  EXPECT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(SnapshotPrefix, PrefixIsAStringMatchNotAComponentMatch) {
  MetricsRegistry r;
  populate(r);
  // "q1" also catches "q10.*" — callers that mean the query must pass the
  // trailing dot, which is exactly what the engine does.
  EXPECT_EQ(r.snapshot("q1").counters.size(), 3u);
  const auto snap = r.snapshot("q1.");
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "q1.mon0.rx_packets");
  EXPECT_EQ(snap.counters[1].name, "q1.producer0.sent");
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(SnapshotPrefix, ExactNameIsItsOwnPrefix) {
  MetricsRegistry r;
  populate(r);
  const auto snap = r.snapshot("q1.mon0.rx_packets");
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 100u);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(SnapshotPrefix, NoMatchYieldsAnEmptySnapshot) {
  MetricsRegistry r;
  populate(r);
  const auto snap = r.snapshot("nonexistent.");
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.render().empty());
}

TEST(SnapshotRender, TwoIdenticalRunsAreByteIdentical) {
  MetricsRegistry a;
  MetricsRegistry b;
  // Register in different orders: the render must not depend on insertion
  // history, only on names and values.
  populate(a);
  b.histogram("q1.stage.emit", {10, 100}).observe(50);
  b.gauge("mq.broker0.eviction_lag").set(2000);
  b.counter("q10.mon0.rx_packets").inc(7);
  b.counter("q1.producer0.sent").inc(40);
  b.gauge("q1.proc0.spout0.buffered_records").set(3);
  b.counter("q1.mon0.rx_packets").inc(100);
  b.histogram("q1.stage.emit", {10, 100}).observe(5);

  const auto ra = a.snapshot().render();
  const auto rb = b.snapshot().render();
  EXPECT_FALSE(ra.empty());
  EXPECT_EQ(ra, rb);
}

TEST(SnapshotRender, MergesKindsInGlobalNameOrderWithCumulativeBuckets) {
  MetricsRegistry r;
  r.counter("b.count").inc(2);
  r.gauge("a.level").set(-5);
  r.histogram("c.lat", {10, 100}).observe(7);
  r.histogram("c.lat", {10, 100}).observe(1000);

  const auto text = r.snapshot().render();
  const auto a_pos = text.find("a.level -5\n");
  const auto b_pos = text.find("b.count 2\n");
  const auto c_pos = text.find("c.lat{le=\"10\"} 1\n");
  ASSERT_NE(a_pos, std::string::npos);
  ASSERT_NE(b_pos, std::string::npos);
  ASSERT_NE(c_pos, std::string::npos);
  EXPECT_LT(a_pos, b_pos);
  EXPECT_LT(b_pos, c_pos);
  // Buckets render cumulative and end in +Inf == count.
  EXPECT_NE(text.find("c.lat{le=\"100\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("c.lat{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("c.lat_count 2\n"), std::string::npos);
}

}  // namespace
}  // namespace netalytics::common
