#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace netalytics::common {
namespace {

TEST(TraceRecorder, DisabledByDefault) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.sample(42));
  EXPECT_EQ(rec.begin(42, 1000), 0u);
  rec.stamp(7, TraceStage::emit, 0, 1);  // no-op while disabled
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(TraceRecorder, DenominatorOneTracesEveryPacket) {
  TraceRecorder rec(TraceRecorder::Config{.sample_denominator = 1});
  const std::uint64_t id = rec.begin(42, 1000);
  ASSERT_NE(id, 0u);

  rec.stamp(id, TraceStage::emit, 1000, 1500);
  rec.stamp(id, TraceStage::produce, 1500, 2000);
  const auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].stage, TraceStage::ingest);
  EXPECT_EQ(spans[1].stage, TraceStage::emit);
  EXPECT_EQ(spans[2].stage, TraceStage::produce);
  for (const auto& s : spans) EXPECT_EQ(s.trace, id);
}

TEST(TraceRecorder, SamplingIsDeterministicAndRoughlyOneInN) {
  TraceRecorder a(TraceRecorder::Config{.sample_denominator = 16});
  TraceRecorder b(TraceRecorder::Config{.sample_denominator = 16});
  std::size_t hits = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(a.sample(key), b.sample(key));
    if (a.sample(key)) ++hits;
  }
  // 1/16 of 4096 is 256; allow a generous band around it.
  EXPECT_GT(hits, 128u);
  EXPECT_LT(hits, 512u);
}

TEST(TraceRecorder, IdenticalRunsRenderIdentically) {
  const auto run = [] {
    TraceRecorder rec(TraceRecorder::Config{.sample_denominator = 2});
    for (std::uint64_t flow = 0; flow < 64; ++flow) {
      const std::uint64_t id = rec.begin(flow, 100 + flow);
      if (id == 0) continue;
      rec.stamp(id, TraceStage::emit, 100 + flow, 200 + flow);
      rec.stamp(id, TraceStage::deliver, 200 + flow, 300 + flow);
    }
    return rec.collect();
  };
  const auto first = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run());
  // Content order: each trace's spans run ingest, emit, deliver.
  EXPECT_EQ(first.front().stage, TraceStage::ingest);
  EXPECT_EQ(first.back().stage, TraceStage::deliver);
}

TEST(TraceRecorder, CollectSortsByContentAcrossThreads) {
  TraceRecorder rec(TraceRecorder::Config{.sample_denominator = 1});
  // Two threads stamp interleaved trace ids; collect() must ignore arrival
  // order entirely.
  std::thread t1([&] {
    for (std::uint64_t i = 0; i < 100; ++i) {
      rec.stamp(2 * i + 1, TraceStage::emit, i, i + 1);
    }
  });
  std::thread t2([&] {
    for (std::uint64_t i = 0; i < 100; ++i) {
      rec.stamp(2 * i + 2, TraceStage::emit, i, i + 1);
    }
  });
  t1.join();
  t2.join();
  const auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 200u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].trace, spans[i].trace);
  }
}

TEST(TraceRecorder, FullSlabDropsAndCounts) {
  TraceRecorder rec(TraceRecorder::Config{.sample_denominator = 1,
                                          .capacity_per_thread = 4});
  for (std::uint64_t i = 1; i <= 10; ++i) {
    rec.stamp(i, TraceStage::ingest, i, i);
  }
  EXPECT_EQ(rec.span_count(), 4u);
  EXPECT_EQ(rec.dropped_spans(), 6u);
}

TEST(DropLedger, CountsPerCauseAndSumsLosses) {
  MetricsRegistry registry;
  DropLedger ledger(registry, "drop");
  ledger.add(DropCause::ingest_ring_overflow, 3);
  ledger.add(DropCause::parse_error);
  ledger.add(DropCause::stream_window_eviction, 100);  // not a loss

  EXPECT_EQ(ledger.value(DropCause::ingest_ring_overflow), 3u);
  EXPECT_EQ(ledger.value(DropCause::parse_error), 1u);
  EXPECT_EQ(ledger.value(DropCause::produce_buffer_overflow), 0u);
  EXPECT_EQ(ledger.total_losses(), 4u);

  // The counters live in the registry under the prefix.
  EXPECT_EQ(registry.snapshot().counter_value("drop.ingest.ring_overflow"), 3u);
  EXPECT_EQ(ledger.value(DropCause::stream_window_eviction), 100u);
  EXPECT_EQ(ledger.value(DropCause::produce_buffer_overflow), 0u);
}

TEST(DropLedger, EveryCauseHasANameAndLossClass) {
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    const auto c = static_cast<DropCause>(i);
    EXPECT_NE(drop_cause_name(c), "unknown");
    EXPECT_NE(drop_cause_name(c).find('.'), std::string_view::npos);
  }
  EXPECT_TRUE(drop_cause_is_loss(DropCause::broker_retention));
  EXPECT_FALSE(drop_cause_is_loss(DropCause::consume_poll_failure));
  EXPECT_FALSE(drop_cause_is_loss(DropCause::stream_window_eviction));
}

}  // namespace
}  // namespace netalytics::common
