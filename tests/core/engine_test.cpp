// End-to-end engine tests: a query goes in, traffic flows through the
// emulated fabric, and results come out of the stream processors — the full
// Fig. 1 pipeline in-process.
#include "core/netalytics.hpp"

#include <gtest/gtest.h>

#include "common/byte_io.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

namespace netalytics::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : emu_(Emulation::make_small(4)), engine_(emu_) {}

  /// Emit an HTTP GET session client->server through the fabric.
  void http_session(const std::string& src, const std::string& dst,
                    const std::string& url, common::Timestamp start,
                    common::Duration server_latency = common::kMillisecond) {
    pktgen::SessionSpec s;
    s.flow = {*emu_.ip_of_name(src), *emu_.ip_of_name(dst),
              static_cast<net::Port>(30000 + port_counter_++), 80, 6};
    s.start = start;
    s.rtt = common::kMillisecond;
    s.server_latency = server_latency;
    const auto req = pktgen::http_get_request(url, dst);
    const auto resp = pktgen::http_response(200, 500);
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(
        s, [this](std::span<const std::byte> f, common::Timestamp ts) {
          emu_.transmit(f, ts);
        });
  }

  Emulation emu_;
  NetAlytics engine_;
  int port_counter_ = 0;
};

TEST_F(EngineTest, SubmitRejectsBadQueries) {
  EXPECT_FALSE(engine_.submit("garbage", 0).has_value());
  EXPECT_FALSE(engine_.submit("PARSE nope TO h5:80 PROCESS (top-k)", 0).has_value());
  EXPECT_FALSE(
      engine_.submit("PARSE http_get TO ghost:80 PROCESS (top-k)", 0).has_value());
  EXPECT_TRUE(engine_.queries().empty());
}

TEST_F(EngineTest, TopKEndToEnd) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s SAMPLE * "
      "PROCESS (top-k: k=3, w=30s)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  QueryHandle* handle = *q;

  // 12 requests for /hot, 4 for /warm, 1 for /cold.
  common::Timestamp now = common::kSecond;
  for (int i = 0; i < 12; ++i) http_session("h0", "h5", "/hot", now += 10 * common::kMillisecond);
  for (int i = 0; i < 4; ++i) http_session("h1", "h5", "/warm", now += 10 * common::kMillisecond);
  http_session("h2", "h5", "/cold", now += 10 * common::kMillisecond);

  engine_.pump(2 * common::kSecond);  // first tick: counting window emits
  engine_.pump(3 * common::kSecond);

  const auto rows = handle->view().latest(1);  // latest per rank
  ASSERT_GE(rows.size(), 3u);
  EXPECT_EQ(stream::as_str(rows[0].at(1)), "/hot");
  EXPECT_EQ(stream::as_u64(rows[0].at(2)), 12u);
  EXPECT_EQ(stream::as_str(rows[1].at(1)), "/warm");
  EXPECT_EQ(stream::as_str(rows[2].at(1)), "/cold");
}

TEST_F(EngineTest, TopKWindowInMinutesKeepsAKeySeenOnce) {
  // w=2m is 120 one-second ticks (the LIMIT clause's minutes), so a URL
  // requested once at 1 s is still ranked after 10 s.
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (top-k: k=3, w=2m)", 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  http_session("h0", "h5", "/once", common::kSecond);
  for (int s = 2; s <= 10; ++s) engine_.pump(s * common::kSecond);
  const std::size_t cursor = (*q)->results().size();
  engine_.pump(11 * common::kSecond);
  engine_.pump(12 * common::kSecond);

  const auto rows = (*q)->results_since(cursor);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) EXPECT_EQ(stream::as_str(row.at(1)), "/once");
}

TEST_F(EngineTest, SubmitRejectsMalformedProcessArguments) {
  for (const char* arg : {"w=5x", "w=abc", "k=1O", "k=10s"}) {
    const std::string text =
        "PARSE http_get FROM * TO h5:80 PROCESS (top-k: " + std::string(arg) + ")";
    const auto q = engine_.submit(text, 0);
    ASSERT_FALSE(q.has_value()) << arg;
    const std::string key(arg, 1);
    EXPECT_NE(q.error().message.find(key + "="), std::string::npos)
        << q.error().to_string();
  }
  EXPECT_TRUE(engine_.queries().empty());
}

TEST_F(EngineTest, MonitorsOnlySeeMatchedTraffic) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  QueryHandle* handle = *q;

  http_session("h0", "h5", "/match", common::kSecond);
  http_session("h0", "h9", "/other", common::kSecond);  // different server

  engine_.pump(2 * common::kSecond);
  // Only the matched session's request/response records arrive.
  bool saw_match = false;
  for (const auto& t : handle->results()) {
    if (stream::as_str(t.at(2)) == "request") {
      EXPECT_EQ(stream::as_str(t.at(3)), "/match");
      saw_match = true;
    }
  }
  EXPECT_TRUE(saw_match);
}

TEST_F(EngineTest, DiffGroupMeasuresPerServerResponseTimes) {
  auto q = engine_.submit(
      "PARSE tcp_conn_time FROM * TO h5:80, h9:80 LIMIT 60s "
      "PROCESS (diff-group: group=destIP)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  QueryHandle* handle = *q;

  // h5 responds in ~10ms, h9 in ~40ms.
  common::Timestamp now = common::kSecond;
  for (int i = 0; i < 5; ++i) {
    http_session("h0", "h5", "/a", now, 10 * common::kMillisecond);
    http_session("h0", "h9", "/a", now, 40 * common::kMillisecond);
    now += 100 * common::kMillisecond;
  }
  engine_.pump(3 * common::kSecond);

  const auto rows = handle->view().latest(1);
  ASSERT_EQ(rows.size(), 2u);
  double h5_ms = 0, h9_ms = 0;
  for (const auto& row : rows) {
    const auto ip = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(0)));
    const double avg_ms = stream::as_f64(row.at(1)) / common::kMillisecond;
    if (ip == *emu_.ip_of_name("h5")) h5_ms = avg_ms;
    if (ip == *emu_.ip_of_name("h9")) h9_ms = avg_ms;
  }
  EXPECT_GT(h5_ms, 9.0);
  EXPECT_GT(h9_ms, h5_ms * 2.5);
}

TEST_F(EngineTest, TimeLimitStopsQuery) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 5s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  QueryHandle* handle = *q;
  http_session("h0", "h5", "/x", common::kSecond);
  engine_.pump(2 * common::kSecond);
  EXPECT_FALSE(handle->finished());
  engine_.pump(6 * common::kSecond);
  EXPECT_TRUE(handle->finished());
  EXPECT_EQ(engine_.orchestrator().count(), 0u);

  // Rules removed: further traffic is not monitored.
  const auto before = handle->results().size();
  http_session("h0", "h5", "/late", 7 * common::kSecond);
  engine_.pump(8 * common::kSecond);
  EXPECT_EQ(handle->results().size(), before);
}

TEST_F(EngineTest, PacketLimitStopsQuery) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 20p PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  QueryHandle* handle = *q;
  common::Timestamp now = common::kSecond;
  for (int i = 0; i < 10 && !handle->finished(); ++i) {
    http_session("h0", "h5", "/x", now);
    now += common::kSecond;
    engine_.pump(now);
  }
  EXPECT_TRUE(handle->finished());
  EXPECT_GE(handle->monitor_stats().parsed, 20u);
}

TEST_F(EngineTest, FixedSamplingDropsFlows) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s SAMPLE 0.3 PROCESS (identity)",
      0);
  ASSERT_TRUE(q.has_value());
  QueryHandle* handle = *q;
  common::Timestamp now = common::kSecond;
  for (int i = 0; i < 100; ++i) {
    http_session("h0", "h5", "/s", now += 10 * common::kMillisecond);
  }
  engine_.pump(2 * common::kSecond);
  const auto stats = handle->monitor_stats();
  EXPECT_GT(stats.sampled_out, 0u);
  // Roughly 30% of flows kept (each flow has several packets).
  const double kept = static_cast<double>(stats.parsed) /
                      static_cast<double>(stats.parsed + stats.sampled_out);
  EXPECT_NEAR(kept, 0.3, 0.15);
}

TEST_F(EngineTest, MultipleConcurrentQueries) {
  auto q1 = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (top-k: k=5)", 0);
  auto q2 = engine_.submit(
      "PARSE tcp_conn_time FROM * TO h5:80 LIMIT 60s "
      "PROCESS (diff-group: group=destIP)",
      0);
  ASSERT_TRUE(q1.has_value());
  ASSERT_TRUE(q2.has_value());

  http_session("h0", "h5", "/both", common::kSecond, 5 * common::kMillisecond);
  engine_.pump(3 * common::kSecond);

  EXPECT_FALSE((*q1)->results().empty());
  EXPECT_FALSE((*q2)->results().empty());
}

TEST_F(EngineTest, StopAllFinishesEverything) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  http_session("h0", "h5", "/x", common::kSecond);
  engine_.stop_all(2 * common::kSecond);
  EXPECT_TRUE((*q)->finished());
  // Flush-at-stop delivered the pending records.
  EXPECT_FALSE((*q)->results().empty());
}

TEST_F(EngineTest, AutoSamplingReactsToOverload) {
  // SAMPLE auto + a tiny broker: when the processors lag, pump()'s
  // feedback loop lowers the monitors' sampling rate (§4.2).
  EngineConfig cfg;
  cfg.broker.partition_capacity = 32;
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 600s SAMPLE auto "
      "PROCESS (top-k: k=5)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  EXPECT_DOUBLE_EQ((*q)->sample_rate(), 1.0);

  // Flood traffic between pumps so the broker fills before processors
  // drain (pump consumes, so the backlog must be built within one tick).
  common::Timestamp now = common::kSecond;
  int port = 20000;
  for (int burst = 0; burst < 3 && (*q)->sample_rate() >= 1.0; ++burst) {
    for (int i = 0; i < 400; ++i) {
      pktgen::SessionSpec s;
      s.flow = {*emu.ip_of_name("h0"), *emu.ip_of_name("h5"),
                static_cast<net::Port>(port++), 80, 6};
      s.start = now;
      s.rtt = common::kMillisecond;
      s.server_latency = common::kMillisecond;
      const auto req = pktgen::http_get_request("/flood", "h5");
      const auto resp = pktgen::http_response(200, 100);
      s.request = req;
      s.response = resp;
      pktgen::emit_tcp_session(
          s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
            emu.transmit(f, ts);
          });
    }
    now += common::kSecond + common::kMillisecond;
    engine.pump(now);
  }
  EXPECT_LT((*q)->sample_rate(), 1.0);
  engine.stop_all(now);
}

TEST_F(EngineTest, JoinQueryEndToEnd) {
  auto q = engine_.submit(
      "PARSE (http_get, tcp_conn_time) FROM * TO h5:80 LIMIT 60s "
      "PROCESS (join: left=value, right=event)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  http_session("h0", "h5", "/joined", common::kSecond);
  engine_.pump(2 * common::kSecond);
  // The request record joins with the connection's start event by flow id.
  // (HTTP response records carry a numeric status in "value"; skip those.)
  bool saw = false;
  for (const auto& t : (*q)->results()) {
    if (std::holds_alternative<std::string>(t.at(1)) &&
        stream::as_str(t.at(1)) == "/joined") {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(EngineTest, RenderProducesReadableRows) {
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (top-k: k=3)", 0);
  ASSERT_TRUE(q.has_value());
  http_session("h0", "h5", "/render-me", common::kSecond);
  engine_.pump(2 * common::kSecond);
  const std::string text = (*q)->view().render(RenderOptions{.key_fields = 1});
  EXPECT_NE(text.find("/render-me"), std::string::npos);
}

TEST(EngineChaos, BrokerOutageMidQueryLosesNoRecords) {
  // Kill every broker for a one-second window while a query is live: the
  // monitors' batches buffer in their producers and drain after recovery,
  // so the analytics side still sees every record (tentpole end-to-end).
  Emulation emu = Emulation::make_small(4);
  common::FaultPlan plan(21);
  common::FaultSpec down;
  down.window_start = common::kSecond;
  down.window_end = 2 * common::kSecond;
  plan.arm("mq.broker.0.down", down);
  plan.arm("mq.broker.1.down", down);
  emu.install_faults(&plan);

  EngineConfig cfg;
  cfg.monitor_output_batch = 1;       // ship every record immediately
  cfg.producer_retry.max_attempts = 0;  // outlast any outage
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();

  // Move engine time into the outage window, then emit traffic: every
  // produced batch hits a down broker and must be buffered, not lost.
  engine.pump(common::kSecond);
  int port = 0;
  for (int i = 0; i < 10; ++i) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h0"), *emu.ip_of_name("h5"),
              static_cast<net::Port>(30000 + port++), 80, 6};
    s.start = common::kSecond + static_cast<common::Timestamp>(i) * 1000;
    s.rtt = common::kMillisecond;
    const auto req = pktgen::http_get_request("/chaos", "h5");
    const auto resp = pktgen::http_response(200, 100);
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(
        s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
          emu.transmit(f, ts);
        });
  }
  engine.pump(1500 * common::kMillisecond);  // still down: nothing delivered
  EXPECT_TRUE((*q)->results().empty());
  EXPECT_GT(plan.fires("mq.broker.0.down") + plan.fires("mq.broker.1.down"), 0u);

  // Past the window the buffered sends flush and the spouts catch up.
  engine.pump(3 * common::kSecond);
  engine.pump(4 * common::kSecond);
  const auto stats = (*q)->monitor_stats();
  EXPECT_GE(stats.records, 10u);  // one request record per session, minimum
  EXPECT_EQ((*q)->results().size(), stats.records);  // nothing lost en route
}

TEST_F(EngineTest, DataReductionVersusRawTraffic) {
  // The monitors ship records that are a small fraction of the raw bytes
  // they observed (§3.1's efficiency argument).
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value());
  common::Timestamp now = common::kSecond;
  for (int i = 0; i < 50; ++i) http_session("h0", "h5", "/r", now += 1000);
  engine_.stop_all(2 * common::kSecond);
  const auto stats = (*q)->monitor_stats();
  ASSERT_GT(stats.raw_bytes, 0u);
  EXPECT_LT(stats.record_bytes * 4, stats.raw_bytes);
}

}  // namespace
}  // namespace netalytics::core
