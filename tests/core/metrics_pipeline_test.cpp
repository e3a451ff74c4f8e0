// Engine-level observability: registry determinism across identical
// virtual-time runs, per-stage latency reconciliation against end-to-end
// latency, the monitor_stats() compatibility shim, EngineConfig validation,
// and the ResultView consolidation of the result accessors.
#include <gtest/gtest.h>

#include "common/byte_io.hpp"
#include "core/netalytics.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

namespace netalytics::core {
namespace {

/// Emit `sessions` identical HTTP GET sessions into `emu` starting at
/// `start`, one per source port so flows stay distinct.
void http_traffic(Emulation& emu, int sessions, common::Timestamp start) {
  const auto req = pktgen::http_get_request("/metrics", "h5");
  const auto resp = pktgen::http_response(200, 128);
  for (int i = 0; i < sessions; ++i) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h1"), *emu.ip_of_name("h5"),
              static_cast<net::Port>(41000 + i), 80, 6};
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

/// One full identity-query run in virtual time; returns the engine's
/// complete metrics snapshot after stop_all.
common::MetricsSnapshot run_identity_query(std::string& results_render) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  EXPECT_TRUE(q.has_value());
  http_traffic(emu, 4, common::kSecond);
  engine.pump(2 * common::kSecond);
  engine.stop_all(3 * common::kSecond);
  results_render = (*q)->view().render(RenderOptions{.key_fields = 2});
  return engine.metrics().snapshot();
}

TEST(MetricsDeterminismTest, IdenticalVirtualRunsRenderIdenticalMetrics) {
  std::string results_a, results_b;
  const auto a = run_identity_query(results_a);
  const auto b = run_identity_query(results_b);
  EXPECT_FALSE(a.counters.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(results_a, results_b);
}

class MetricsPipelineTest : public ::testing::Test {
 protected:
  MetricsPipelineTest() : emu_(Emulation::make_small(4)), engine_(emu_) {}

  Emulation emu_;
  NetAlytics engine_;
};

TEST_F(MetricsPipelineTest, StageLatenciesSumToEndToEndWithinOneTick) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  http_traffic(emu_, 3, common::kSecond);
  engine_.pump(2 * common::kSecond);

  const auto& tracer = (*q)->tracer();
  using Stage = common::StageTracer::Stage;
  const auto& emit = tracer.histogram(Stage::emit);
  const auto& produce = tracer.histogram(Stage::produce);
  const auto& consume = tracer.histogram(Stage::consume);
  const auto& e2e = tracer.histogram(Stage::e2e);

  ASSERT_GT(e2e.count(), 0u);
  // identity preserves the record schema, so every result tuple carries its
  // packet's ingress timestamp: one e2e stamp per emitted record.
  EXPECT_EQ(emit.count(), e2e.count());
  EXPECT_EQ(tracer.dropped_stamps(), 0u);

  // The three hand-off stages chain head-to-tail from packet ingress to the
  // sink, so their total must reconcile with the e2e total to within one
  // engine tick (the slack is the batching flush inside the same pump).
  const std::uint64_t staged = emit.sum() + produce.sum() + consume.sum();
  const std::uint64_t diff =
      staged > e2e.sum() ? staged - e2e.sum() : e2e.sum() - staged;
  EXPECT_LE(diff, common::kSecond) << "staged=" << staged
                                   << " e2e=" << e2e.sum();
}

TEST_F(MetricsPipelineTest, RenderMetricsReportsCountersAndStageHistogram) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu_, 2, common::kSecond);
  engine_.pump(2 * common::kSecond);

  // Per-query exposition: monitor counters and the stage histograms, with
  // the query and monitor coordinates lifted into labels.
  const std::string qtext = (*q)->export_metrics();
  EXPECT_NE(qtext.find("netalytics_rx_packets{monitor=\"0\",query=\"1\"} "),
            std::string::npos);
  EXPECT_NE(qtext.find("netalytics_stage_e2e_count{query=\"1\"} "),
            std::string::npos);

  const auto snap = engine_.metrics().snapshot();
  EXPECT_GT(snap.counter_value("q1.mon0.rx_packets"), 0u);
  EXPECT_GT(snap.counter_value("q1.mon0.records"), 0u);
  EXPECT_GT(snap.counter_value("q1.producer0.sent"), 0u);
  EXPECT_GT(snap.counter_value("mq.broker0.produced") +
                snap.counter_value("mq.broker1.produced"),
            0u);
  EXPECT_GT(snap.counter_value("q1.proc0.spout0.emitted"), 0u);
  EXPECT_EQ(snap.counter_value("engine.queries_submitted"), 1u);
  EXPECT_GT(snap.counter_value("engine.pumps"), 0u);
  const auto* e2e = snap.find_histogram("q1.stage.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_GT(e2e->count, 0u);

  // Engine-wide exposition covers the broker layer too.
  const std::string all = engine_.export_metrics();
  EXPECT_NE(all.find("broker=\"0\""), std::string::npos);
}

TEST_F(MetricsPipelineTest, MonitorStatsShimSurvivesStop) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu_, 3, common::kSecond);
  engine_.pump(2 * common::kSecond);

  const auto live = (*q)->monitor_stats();
  EXPECT_GT(live.rx_packets, 0u);
  EXPECT_GT(live.parsed, 0u);
  EXPECT_GT(live.records, 0u);

  engine_.stop_all(3 * common::kSecond);
  ASSERT_TRUE((*q)->finished());
  // The counters live in the engine registry, not the (now undeployed)
  // monitors, so the shim keeps answering — and flushing at stop can only
  // have grown the record counters.
  const auto after = (*q)->monitor_stats();
  EXPECT_EQ(after.rx_packets, live.rx_packets);
  EXPECT_EQ(after.parsed, live.parsed);
  EXPECT_GE(after.records, live.records);
  EXPECT_EQ(engine_.metrics().snapshot().counter_value(
                "engine.queries_finished"),
            1u);
}

TEST(EngineConfigTest, ValidateRejectsImpossibleConfigs) {
  EngineConfig ok;
  EXPECT_TRUE(ok.validate().has_value());

  EngineConfig brokers = ok;
  brokers.mq_brokers = 0;
  EXPECT_FALSE(brokers.validate().has_value());
  EXPECT_EQ(brokers.validate().error().code, "config");

  EngineConfig par = ok;
  par.processor_parallelism = 0;
  EXPECT_FALSE(par.validate().has_value());
}

TEST(EngineConfigTest, ConstructorThrowsOnInvalidConfig) {
  Emulation emu = Emulation::make_small(2);
  EngineConfig bad;
  bad.mq_brokers = 0;
  EXPECT_THROW(NetAlytics(emu, bad), std::invalid_argument);
}

TEST(ResultViewTest, ViewMatchesLegacyAccessors) {
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto q = engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  http_traffic(emu, 3, common::kSecond);
  engine.pump(2 * common::kSecond);

  const QueryHandle& h = **q;
  ResultView view = h.view();
  ASSERT_FALSE(view.empty());
  EXPECT_EQ(view.size(), h.results().size());
  EXPECT_EQ(&view.all(), &h.results());
}

}  // namespace
}  // namespace netalytics::core
