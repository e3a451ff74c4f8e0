// Exact drop accounting end-to-end: reconcile() closes the conservation
// equation packets_in == tuples_out + losses + in_flight (mod record
// multiplicity) at every quiescent point — in clean runs, under duplicate
// deliveries, and through a chaos run that exercises every discard site.
#include "core/netalytics.hpp"

#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "trace_stages.hpp"

namespace netalytics::core {
namespace {

constexpr std::string_view kQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)";

/// Emit one HTTP GET session client->server through `emu`'s fabric.
void http_session(Emulation& emu, int port, common::Timestamp start,
                  const char* url = "/r") {
  pktgen::SessionSpec s;
  s.flow = {*emu.ip_of_name("h0"), *emu.ip_of_name("h5"),
            static_cast<net::Port>(30000 + port), 80, 6};
  s.start = start;
  s.rtt = common::kMillisecond;
  s.server_latency = common::kMillisecond;
  const auto req = pktgen::http_get_request(url, "h5");
  const auto resp = pktgen::http_response(200, 100);
  s.request = req;
  s.response = resp;
  pktgen::emit_tcp_session(
      s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
        emu.transmit(f, ts);
      });
}

/// Assert the report is exact, with the full term breakdown on failure.
void expect_exact(NetAlytics& engine, const QueryHandle& q) {
  const auto report = engine.reconcile(q);
  EXPECT_TRUE(report.exact())
      << report.render()
      << engine.export_metrics("q" + std::to_string(q.id()) + ".drop.")
      << engine.export_metrics("drop.");
}

TEST(TraceReconcile, CleanRunIsExactWithZeroResidualAndNoLossesInFlight) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kQuery, 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  expect_exact(engine, **q);  // trivially exact before any traffic

  for (int i = 0; i < 10; ++i) {
    http_session(emu, i, common::kSecond + i * 10 * common::kMillisecond);
  }
  engine.pump(2 * common::kSecond);
  expect_exact(engine, **q);  // mid-pipeline: in_flight absorbs the backlog
  engine.pump(3 * common::kSecond);
  expect_exact(engine, **q);

  const auto report = engine.reconcile(**q);
  EXPECT_GT(report.packets_in, 0u);
  EXPECT_GT(report.tuples_out, 0u);
  // Handshake/ack packets parse to nothing; the ledger owns every one.
  EXPECT_GT(report.losses, 0u);
  EXPECT_EQ(report.losses,
            (*q)->drop_ledger().value(common::DropCause::parse_no_output));
  EXPECT_EQ(report.in_flight, 0u);  // fully drained
  EXPECT_EQ(report.duplicated, 0u);
  EXPECT_NE(report.render().find("exact true"), std::string::npos);
}

TEST(TraceReconcile, ReconciliationSurvivesQueryStop) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(kQuery, 0);
  ASSERT_TRUE(q.has_value());
  for (int i = 0; i < 5; ++i) http_session(emu, i, common::kSecond);
  // stop_all flushes monitors and drains the topologies; the counters
  // outlive the undeployed monitors, so the books still close.
  engine.stop_all(2 * common::kSecond);
  ASSERT_TRUE((*q)->finished());
  expect_exact(engine, **q);
  EXPECT_EQ(engine.reconcile(**q).in_flight, 0u);
}

TEST(TraceReconcile, DuplicateDeliveriesStayExact) {
  Emulation emu = Emulation::make_small(4);
  common::FaultPlan plan(5);
  common::FaultSpec dup;
  dup.every_nth = 2;
  plan.arm("mq.broker.0.duplicate", dup);
  plan.arm("mq.broker.1.duplicate", dup);
  emu.install_faults(&plan);
  EngineConfig cfg;
  // One record per message: the duplicate fault triggers per delivered
  // message, so batching everything into one payload would starve it.
  cfg.monitor_output_batch = 1;
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(kQuery, 0);
  ASSERT_TRUE(q.has_value());
  for (int i = 0; i < 10; ++i) {
    http_session(emu, i, common::kSecond + i * 10 * common::kMillisecond);
  }
  engine.pump(2 * common::kSecond);
  engine.pump(3 * common::kSecond);

  const auto report = engine.reconcile(**q);
  // At-least-once redelivery inflates tuples_out; the duplicated term is
  // measured broker-side and cancels it exactly.
  EXPECT_GT(report.duplicated, 0u);
  EXPECT_GT(report.tuples_out, report.packets_in - report.losses);
  EXPECT_TRUE(report.exact()) << report.render();
}

TEST(TraceReconcile, ChaosRunAccountsForEveryDiscardSite) {
  // Every discard site at once: ingest ring overflow, parser throws, a
  // full broker outage, produce rejections, spout poll failures, and
  // age-based retention evicting unread messages. The invariant must hold
  // at every pump boundary, not just at the end.
  Emulation emu = Emulation::make_small(4);
  common::FaultPlan plan(7);
  common::FaultSpec ring;
  ring.every_nth = 7;
  plan.arm("nf.ring.overflow", ring);
  common::FaultSpec parser;
  parser.every_nth = 5;
  plan.arm("nf.parser.throw", parser);
  common::FaultSpec down;
  down.window_start = 2 * common::kSecond;
  down.window_end = 3 * common::kSecond;
  plan.arm("mq.broker.0.down", down);
  plan.arm("mq.broker.1.down", down);
  common::FaultSpec reject;
  reject.every_nth = 2;
  reject.max_fires = 4;
  plan.arm("mq.broker.0.reject", reject);
  common::FaultSpec spout;  // spouts cannot drain until disarmed below
  spout.probability = 1.0;
  plan.arm("stream.spout.poll", spout);
  emu.install_faults(&plan);

  EngineConfig cfg;
  cfg.broker.retention_age = 2 * common::kSecond;
  cfg.monitor_output_batch = 1;         // ship every record immediately
  cfg.producer_retry.max_attempts = 0;  // outlast the outage
  cfg.trace_sample_denominator = 4;     // flight recorder on during chaos
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(kQuery, 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  engine.pump(common::kSecond);
  expect_exact(engine, **q);

  // Traffic lands just before the outage; the first flush happens inside
  // the window, so every batch meets a down broker and buffers.
  for (int i = 0; i < 14; ++i) {
    http_session(engine.emulation(), i,
                 common::kSecond + i * 30 * common::kMillisecond, "/chaos");
  }
  engine.pump(2500 * common::kMillisecond);
  expect_exact(engine, **q);
  EXPECT_TRUE((*q)->results().empty());
  EXPECT_GT(plan.fires("mq.broker.0.down") + plan.fires("mq.broker.1.down"),
            0u);

  // Recovery: buffered sends land (minus a few rejections that retry),
  // but the spouts are still failing, so messages age on the brokers.
  engine.pump(3500 * common::kMillisecond);
  expect_exact(engine, **q);
  engine.pump(4500 * common::kMillisecond);
  expect_exact(engine, **q);

  // Fresh produces past the retention age evict the unread backlog.
  for (int i = 0; i < 4; ++i) {
    http_session(engine.emulation(), 100 + i,
                 5500 * common::kMillisecond + i * common::kMillisecond,
                 "/late");
  }
  engine.pump(6 * common::kSecond);
  expect_exact(engine, **q);
  EXPECT_GT(engine.drop_ledger().value(common::DropCause::broker_retention),
            0u);

  // Spouts heal; whatever survived retention drains into results.
  plan.disarm("stream.spout.poll");
  engine.pump(7 * common::kSecond);
  expect_exact(engine, **q);
  engine.pump(8 * common::kSecond);
  expect_exact(engine, **q);

  const auto report = engine.reconcile(**q);
  EXPECT_GT(report.packets_in, 0u);
  EXPECT_GT(report.tuples_out, 0u);
  EXPECT_GT(report.losses, 0u);
  const auto& ledger = (*q)->drop_ledger();
  EXPECT_GT(ledger.value(common::DropCause::ingest_ring_overflow), 0u);
  EXPECT_GT(ledger.value(common::DropCause::parse_error), 0u);
  EXPECT_GT(ledger.value(common::DropCause::consume_poll_failure), 0u);
  EXPECT_GT(plan.fires("mq.broker.0.reject"), 0u);
  // The chaos run also exercised the sampled flight recorder.
  EXPECT_GT((*q)->trace_recorder().span_count(), 0u);
}

TEST(TraceReconcile, ProvenanceCoversAllStagesAndRendersDeterministically) {
  const auto run = [] {
    Emulation emu = Emulation::make_small(4);
    EngineConfig cfg;
    cfg.trace_sample_denominator = 1;  // trace every packet
    NetAlytics engine(emu, cfg);
    auto q = engine.submit(kQuery, 0);
    EXPECT_TRUE(q.has_value());
    for (int i = 0; i < 6; ++i) {
      http_session(emu, i, common::kSecond + i * 10 * common::kMillisecond);
    }
    engine.pump(2 * common::kSecond);
    engine.pump(3 * common::kSecond);
    EXPECT_FALSE((*q)->results().empty());
    return (*q)->trace_recorder().collect();
  };
  const auto first = run();
  // Request/response packets traverse the whole pipeline: all six stages
  // present on their traces (execute is stamped by the stepped executor
  // for every bolt execution of a traced tuple). Handshake packets stop
  // at ingest.
  EXPECT_TRUE(testing::covers_pipeline(first));
  // Virtual time + content-ordered collection: the spans are a pure
  // function of the traffic.
  EXPECT_EQ(first, run());
}

TEST(TraceReconcile, DisabledTracingKeepsLedgerOn) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);  // trace_sample_denominator = 0
  auto q = engine.submit(kQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_session(emu, 0, common::kSecond);
  engine.pump(2 * common::kSecond);
  EXPECT_EQ((*q)->trace_recorder().span_count(), 0u);
  EXPECT_GT((*q)->drop_ledger().value(common::DropCause::parse_no_output), 0u);
}

TEST(TraceReconcile, TimeseriesCapturesPerTickDeltas) {
  Emulation emu = Emulation::make_small(4);
  EngineConfig cfg;
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(kQuery, 0);
  ASSERT_TRUE(q.has_value());
  http_session(emu, 0, common::kSecond);
  engine.pump(2 * common::kSecond);
  engine.pump(3 * common::kSecond);

  // The tiered store captured the per-tick history: ordered windows
  // carrying the query's counters.
  EXPECT_GE(engine.timeseries_store().stats().captures, 2u);
  const auto res = engine.query_range({.selector = "q1.mon0.rx_packets",
                                       .step = core::kTickInterval,
                                       .agg = Agg::sum});
  ASSERT_EQ(res.series.size(), 1u);
  ASSERT_FALSE(res.series[0].points.empty());
  for (std::size_t i = 1; i < res.series[0].points.size(); ++i) {
    EXPECT_LT(res.series[0].points[i - 1].t, res.series[0].points[i].t);
  }
  EXPECT_NE(res.render().find("rx_packets"), std::string::npos);
}

}  // namespace
}  // namespace netalytics::core
