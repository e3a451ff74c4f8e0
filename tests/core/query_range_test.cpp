// Engine-level coverage of the unified historical range-query API:
// query_range() agreement with the live registry, the monitor_stats()
// shim's exactness, byte-identical renders across executor worker counts,
// percentiles over the stage histograms, result-emission capture, the
// store-disabled fallback, and the prefix-filtered metrics exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/netalytics.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

namespace netalytics::core {
namespace {

/// Emit `sessions` HTTP GET sessions into `emu` starting at `start`, one
/// per source port; `url` varies the top-k key space when needed.
void http_traffic(Emulation& emu, int sessions, common::Timestamp start,
                  const char* url = "/metrics") {
  const auto req = pktgen::http_get_request(url, "h5");
  const auto resp = pktgen::http_response(200, 128);
  for (int i = 0; i < sessions; ++i) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h1"), *emu.ip_of_name("h5"),
              static_cast<net::Port>(42000 + i), 80, 6};
    s.start = start;
    s.rtt = common::kMillisecond;
    s.server_latency = 2 * common::kMillisecond;
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(
        s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
          emu.transmit(f, ts);
        });
  }
}

constexpr std::string_view kIdentityQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)";
constexpr std::string_view kTopkQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (top-k: k=5, w=1s)";

TEST(QueryRangeTest, WholeRangeCounterSumsMatchRegistry) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kIdentityQuery, 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  http_traffic(emu, 3, common::kSecond);
  engine.pump(2 * common::kSecond);
  http_traffic(emu, 2, 2 * common::kSecond + common::kMillisecond);
  engine.pump(3 * common::kSecond);

  // Every "q1.mon*" counter's whole-range sum equals its registry value —
  // the live head closes the gap past the last capture.
  const auto res = engine.query_range({.selector = "q1.mon", .agg = Agg::sum});
  const auto snap = engine.metrics().snapshot("q1.mon");
  ASSERT_FALSE(snap.counters.empty());
  for (const auto& c : snap.counters) {
    if (c.value == 0) continue;
    bool found = false;
    for (const auto& s : res.series) {
      if (s.name != c.name) continue;
      found = true;
      ASSERT_EQ(s.points.size(), 1u) << c.name;
      EXPECT_EQ(s.points[0].value, static_cast<double>(c.value)) << c.name;
    }
    EXPECT_TRUE(found) << c.name;
  }
}

TEST(QueryRangeTest, MonitorStatsShimMatchesDirectRegistrySummation) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kIdentityQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu, 3, common::kSecond);
  engine.pump(2 * common::kSecond);

  const auto check = [&] {
    const auto stats = (*q)->monitor_stats();
    const auto snap = engine.metrics().snapshot("q1.mon");
    EXPECT_EQ(stats.rx_packets, snap.counter_value("q1.mon0.rx_packets"));
    EXPECT_EQ(stats.parsed, snap.counter_value("q1.mon0.parsed"));
    EXPECT_EQ(stats.records, snap.counter_value("q1.mon0.records"));
    EXPECT_EQ(stats.raw_bytes, snap.counter_value("q1.mon0.raw_bytes"));
    EXPECT_GT(stats.rx_packets, 0u);
  };
  check();                                // live, between captures
  engine.stop_all(3 * common::kSecond);
  check();                                // finished, counters outlive monitors
}

TEST(QueryRangeTest, StepWindowsPartitionTheCounterHistory) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kIdentityQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu, 2, common::kSecond);
  engine.pump(2 * common::kSecond);
  http_traffic(emu, 3, 2 * common::kSecond + common::kMillisecond);
  engine.pump(3 * common::kSecond);
  engine.pump(4 * common::kSecond);

  const auto res = engine.query_range({.selector = "q1.mon0.rx_packets",
                                       .step = common::kSecond,
                                       .agg = Agg::sum});
  ASSERT_EQ(res.series.size(), 1u);
  EXPECT_GE(res.series[0].points.size(), 2u);  // traffic landed in two ticks
  double total = 0;
  for (const auto& p : res.series[0].points) total += p.value;
  EXPECT_EQ(total, static_cast<double>(engine.metrics().snapshot().counter_value(
                       "q1.mon0.rx_packets")));
}

TEST(QueryRangeTest, PercentilesOverStageHistograms) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kIdentityQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu, 4, common::kSecond);
  engine.pump(2 * common::kSecond);

  // QueryHandle::query_range scopes the selector under "q<id>.".
  const auto res = (*q)->query_range({.selector = "stage", .agg = Agg::p95});
  ASSERT_FALSE(res.series.empty());
  const auto snap = engine.metrics().snapshot();
  const auto* e2e = snap.find_histogram("q1.stage.e2e");
  ASSERT_NE(e2e, nullptr);
  for (const auto& s : res.series) {
    ASSERT_EQ(s.points.size(), 1u) << s.name;
    EXPECT_GT(s.points[0].value, 0.0) << s.name;
    // Percentiles come from the fixed bucket layout: the answer must be
    // one of the histogram's upper bounds.
    EXPECT_NE(std::find(e2e->bounds.begin(), e2e->bounds.end(),
                        static_cast<std::uint64_t>(s.points[0].value)),
              e2e->bounds.end())
        << s.name;
  }
}

TEST(QueryRangeTest, TopkEmissionsLandInResultSeries) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kTopkQuery, 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  http_traffic(emu, 3, common::kSecond, "/a");
  http_traffic(emu, 2, common::kSecond + common::kMillisecond, "/b");
  engine.pump(2 * common::kSecond);
  engine.pump(3 * common::kSecond);

  ASSERT_FALSE((*q)->results().empty());
  const auto res = (*q)->query_range({.selector = "result",
                                      .agg = Agg::last});
  ASSERT_FALSE(res.series.empty());
  for (const auto& s : res.series) {
    EXPECT_EQ(s.kind, tsdb::SeriesKind::gauge) << s.name;
    EXPECT_EQ(s.name.rfind("q1.result.proc0.", 0), 0u) << s.name;
    EXPECT_GT(s.points.back().value, 0.0) << s.name;
  }
}

TEST(QueryRangeTest, RendersByteIdenticalAcrossExecutorWorkers) {
  const auto run = [](std::size_t workers) {
    Emulation emu = Emulation::make_small(4);
    EngineConfig cfg;
    cfg.processor_parallelism = 4;
    cfg.executor_workers = workers;
    NetAlytics engine(emu, cfg);
    auto q = engine.submit(kTopkQuery, 0);
    EXPECT_TRUE(q.has_value());
    http_traffic(emu, 3, common::kSecond, "/a");
    http_traffic(emu, 2, common::kSecond + common::kMillisecond, "/b");
    engine.pump(2 * common::kSecond);
    http_traffic(emu, 2, 2 * common::kSecond + common::kMillisecond, "/a");
    engine.pump(3 * common::kSecond);
    engine.stop_all(4 * common::kSecond);
    // Histories at tick resolution plus per-tick analytics emissions:
    // both renders must not depend on the executor's thread count.
    std::string out = engine
                          .query_range({.selector = "q1",
                                        .step = common::kSecond,
                                        .agg = Agg::sum})
                          .render();
    out += (*q)->query_range({.selector = "result", .agg = Agg::last}).render();
    return out;
  };
  const std::string inline_run = run(1);
  const std::string pooled_run = run(4);
  EXPECT_FALSE(inline_run.empty());
  EXPECT_EQ(inline_run, pooled_run);
}

TEST(QueryRangeTest, DisabledStoreStillAnswersFromLiveHead) {
  Emulation emu = Emulation::make_small(4);
  EngineConfig cfg;
  cfg.tsdb_store.hot_slots = 0;  // store off: no captures, no ingest
  NetAlytics engine(emu, cfg);
  auto q = engine.submit(kIdentityQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu, 3, common::kSecond);
  engine.pump(2 * common::kSecond);

  EXPECT_EQ(engine.timeseries_store().stats().captures, 0u);
  const auto stats = (*q)->monitor_stats();
  EXPECT_EQ(stats.rx_packets,
            engine.metrics().snapshot().counter_value("q1.mon0.rx_packets"));
  EXPECT_GT(stats.rx_packets, 0u);
  const auto res = engine.query_range({.selector = "q1.mon0.rx_packets"});
  ASSERT_EQ(res.series.size(), 1u);
  EXPECT_TRUE(res.exact);
}

TEST(RenderOptionsTest, UnifiedRenderShimsAgree) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kIdentityQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu, 2, common::kSecond);
  engine.pump(2 * common::kSecond);

  // The engine export filters by name prefix.
  EXPECT_FALSE(engine.export_metrics("mq.").empty());

  // A query's monitors alone: "q<id>.mon", without its stage histograms.
  const auto mon_only = engine.export_metrics("q1.mon");
  EXPECT_NE(mon_only.find("netalytics_rx_packets{monitor=\"0\",query=\"1\"} "),
            std::string::npos);
  EXPECT_EQ(mon_only.find("netalytics_stage_"), std::string::npos);
}

}  // namespace
}  // namespace netalytics::core
