// Snapshot filtering and insertion-order independence: the contract the drop
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
}

TEST(SnapshotRender, TwoIdenticalRunsAreByteIdentical) {
  MetricsRegistry a;
  MetricsRegistry b;
  // Register in different orders: the snapshot must not depend on
  // insertion history, only on names and values.
  populate(a);
  b.histogram("q1.stage.emit", {10, 100}).observe(50);
  b.gauge("mq.broker0.eviction_lag").set(2000);
  b.counter("q10.mon0.rx_packets").inc(7);
  b.counter("q1.producer0.sent").inc(40);
  b.gauge("q1.proc0.spout0.buffered_records").set(3);
  b.counter("q1.mon0.rx_packets").inc(100);
  b.histogram("q1.stage.emit", {10, 100}).observe(5);

  const auto sa = a.snapshot();
  EXPECT_FALSE(sa.counters.empty());
  EXPECT_EQ(sa, b.snapshot());
}

}  // namespace
}  // namespace netalytics::common
