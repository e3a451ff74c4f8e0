// Unit tests for the self-observability layer: registry identity, histogram
// bucket boundaries (Prometheus "le" semantics), snapshot prefix filtering,
// rendering, and StageTracer stamp/drop rules.
#include <gtest/gtest.h>

#include "common/metrics.hpp"

namespace netalytics::common {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(HistogramMetricTest, BucketBoundariesAreInclusiveUpperBounds) {
  HistogramMetric h({10, 20, 30});
  h.observe(0);    // -> bucket 0 (le 10)
  h.observe(10);   // boundary: still bucket 0
  h.observe(11);   // -> bucket 1 (le 20)
  h.observe(30);   // boundary: bucket 2 (le 30)
  h.observe(31);   // above the last bound -> +inf bucket
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 30 + 31);
  EXPECT_THROW(h.bucket(4), std::out_of_range);
}

TEST(HistogramMetricTest, RejectsBadBounds) {
  EXPECT_THROW(HistogramMetric({}), std::invalid_argument);
  EXPECT_THROW(HistogramMetric({5, 3}), std::invalid_argument);
}

TEST(HistogramMetricTest, DefaultLatencyBoundsCoverMicroToHundredSeconds) {
  const auto& b = default_latency_bounds();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), kMicrosecond);
  EXPECT_EQ(b.back(), 100 * kSecond);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.hits");
  Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);

  HistogramMetric& h1 = reg.histogram("x.lat", {1, 2});
  // Bounds are only consulted on creation.
  HistogramMetric& h2 = reg.histogram("x.lat", {7, 8, 9});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotFiltersByPrefixAndSortsByName) {
  MetricsRegistry reg;
  reg.counter("q1.mon0.rx").inc(3);
  reg.counter("q1.producer0.sent").inc(2);
  reg.counter("q10.mon0.rx").inc(99);
  reg.gauge("q1.mon0.depth").set(5);

  const auto all = reg.snapshot();
  EXPECT_EQ(all.counters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      all.counters.begin(), all.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));

  // The trailing dot keeps "q1." from matching "q10.*".
  const auto q1 = reg.snapshot("q1.");
  EXPECT_EQ(q1.counters.size(), 2u);
  EXPECT_EQ(q1.counter_value("q1.mon0.rx"), 3u);
  EXPECT_EQ(q1.counter_value("q10.mon0.rx"), 0u);  // filtered out
  ASSERT_EQ(q1.gauges.size(), 1u);
  EXPECT_EQ(q1.gauges[0].value, 5);
}

TEST(MetricsSnapshotTest, EqualityIsDeepAndOrderSensitive) {
  MetricsRegistry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(2);
  EXPECT_EQ(a.snapshot(), b.snapshot());
  b.counter("c").inc();
  EXPECT_NE(a.snapshot(), b.snapshot());
}

TEST(StageTracerTest, StampsLandInTheStageHistogram) {
  MetricsRegistry reg;
  StageTracer tracer(reg, "q7");
  tracer.stamp(StageTracer::Stage::emit, 1500, 500);
  EXPECT_EQ(tracer.histogram(StageTracer::Stage::emit).count(), 1u);
  EXPECT_EQ(tracer.histogram(StageTracer::Stage::emit).sum(), 1000u);
  EXPECT_EQ(tracer.histogram(StageTracer::Stage::produce).count(), 0u);
  // The histograms live in the registry under "<prefix>.stage.<name>".
  const auto snap = reg.snapshot("q7.stage.");
  EXPECT_NE(snap.find_histogram("q7.stage.emit"), nullptr);
  EXPECT_NE(snap.find_histogram("q7.stage.e2e"), nullptr);
}

TEST(StageTracerTest, UnknownOriginAndBackwardsStampsAreDroppedAndCounted) {
  MetricsRegistry reg;
  StageTracer tracer(reg, "q1");
  tracer.stamp(StageTracer::Stage::consume, 100, 0);    // unknown origin
  tracer.stamp(StageTracer::Stage::consume, 100, 200);  // backwards
  tracer.stamp(StageTracer::Stage::consume, 100, 100);  // zero latency: kept
  EXPECT_EQ(tracer.dropped_stamps(), 2u);
  EXPECT_EQ(tracer.histogram(StageTracer::Stage::consume).count(), 1u);
  EXPECT_EQ(tracer.histogram(StageTracer::Stage::consume).sum(), 0u);
}

}  // namespace
}  // namespace netalytics::common
