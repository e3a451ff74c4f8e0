// Cross-module integration: full query pipelines over emulated application
// traffic, exercising multi-rack monitor placement, parallel processors,
// and every Table-1 parser end to end.
#include <gtest/gtest.h>

#include "apps/webapp.hpp"
#include "common/byte_io.hpp"
#include "core/netalytics.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

namespace netalytics::core {
namespace {

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  PipelineIntegrationTest() : emu_(Emulation::make_small(4)), engine_(emu_) {}

  void session(const std::string& src, const std::string& dst, net::Port port,
               std::span<const std::byte> req, std::span<const std::byte> resp,
               common::Timestamp start) {
    pktgen::SessionSpec s;
    s.flow = {*emu_.ip_of_name(src), *emu_.ip_of_name(dst),
              static_cast<net::Port>(42000 + counter_++), port, 6};
    s.start = start;
    s.rtt = common::kMillisecond;
    s.server_latency = 5 * common::kMillisecond;
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(
        s, [this](std::span<const std::byte> f, common::Timestamp ts) {
          emu_.transmit(f, ts);
        });
  }

  Emulation emu_;
  NetAlytics engine_;
  int counter_ = 0;
};

TEST_F(PipelineIntegrationTest, MultiRackDestinationsGetMultipleMonitors) {
  // h4 (rack 1) and h20 (rack 5): one monitor cannot cover both.
  auto q = engine_.submit(
      "PARSE http_get FROM * TO h4:80, h20:80 LIMIT 60s PROCESS (identity)", 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  EXPECT_EQ((*q)->plan().monitors.size(), 2u);

  const auto req1 = pktgen::http_get_request("/rack1", "h4");
  const auto req2 = pktgen::http_get_request("/rack5", "h20");
  const auto resp = pktgen::http_response(200, 100);
  session("h0", "h4", 80, req1, resp, common::kSecond);
  session("h0", "h20", 80, req2, resp, common::kSecond);
  engine_.pump(2 * common::kSecond);

  std::set<std::string> urls;
  for (const auto& t : (*q)->results()) {
    if (std::holds_alternative<std::string>(t.at(3))) {
      urls.insert(stream::as_str(t.at(3)));
    }
  }
  EXPECT_TRUE(urls.contains("/rack1"));
  EXPECT_TRUE(urls.contains("/rack5"));
}

TEST_F(PipelineIntegrationTest, ParallelProcessorsProduceSameTopK) {
  EngineConfig cfg;
  cfg.processor_parallelism = 3;
  Emulation emu = Emulation::make_small(4);
  NetAlytics parallel_engine(emu, cfg);
  auto q = parallel_engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s PROCESS (top-k: k=3)", 0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();

  const auto resp = pktgen::http_response(200, 64);
  int port = 30000;
  auto run_session = [&](const char* url) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h1"), *emu.ip_of_name("h5"),
              static_cast<net::Port>(port++), 80, 6};
    s.start = common::kSecond;
    s.rtt = common::kMillisecond;
    s.server_latency = common::kMillisecond;
    const auto req = pktgen::http_get_request(url, "h5");
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(
        s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
          emu.transmit(f, ts);
        });
  };
  for (int i = 0; i < 9; ++i) run_session("/nine");
  for (int i = 0; i < 5; ++i) run_session("/five");
  run_session("/one");
  parallel_engine.pump(2 * common::kSecond);

  const auto rows = (*q)->view().latest(1);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(stream::as_str(rows[0].at(1)), "/nine");
  EXPECT_EQ(stream::as_u64(rows[0].at(2)), 9u);
  EXPECT_EQ(stream::as_str(rows[1].at(1)), "/five");
  EXPECT_EQ(stream::as_str(rows[2].at(1)), "/one");
  parallel_engine.stop_all(3 * common::kSecond);
}

TEST_F(PipelineIntegrationTest, MemcachedParserEndToEnd) {
  auto q = engine_.submit(
      "PARSE memcached_get FROM * TO h9:11211 LIMIT 60s PROCESS (top-k: k=5)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  const auto resp = pktgen::memcached_value_response("user:7", 64);
  for (int i = 0; i < 4; ++i) {
    const auto req = pktgen::memcached_get_request("user:7");
    session("h1", "h9", 11211, req, resp, common::kSecond);
  }
  const auto req2 = pktgen::memcached_get_request("user:8");
  session("h1", "h9", 11211, req2, resp, common::kSecond);
  engine_.pump(2 * common::kSecond);

  const auto rows = (*q)->view().latest(1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(stream::as_str(rows[0].at(1)), "user:7");
  EXPECT_EQ(stream::as_u64(rows[0].at(2)), 4u);
}

TEST_F(PipelineIntegrationTest, MysqlLatencyThroughFullWebApp) {
  // The Sakila app multiplexes queries over one DB connection; the
  // pipeline still times each statement (§7.2).
  apps::SakilaWebApp app(emu_, {});
  auto q = engine_.submit(
      "PARSE mysql_query FROM * TO " + net::format_ipv4(app.db_ip()) +
          ":3306 LIMIT 600s PROCESS (group-avg)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();

  common::Timestamp now = common::kSecond;
  for (int burst = 0; burst < 4; ++burst) {
    app.run(now, 40, 10 * common::kMillisecond);
    now += common::kSecond + 1;
    engine_.pump(now);
  }
  engine_.stop_all(now);

  // Per-statement averages must reflect the page profiles: the heavy
  // aggregate query is slower than the simple lookup.
  double simple_ms = -1, heavy_ms = -1;
  for (const auto& row : (*q)->view().latest(1)) {
    const auto& stmt = stream::as_str(row.at(0));
    const double ms = stream::as_f64(row.at(1)) / common::kMillisecond;
    if (stmt.find("first_name FROM actor") != std::string::npos) simple_ms = ms;
    if (stmt.find("MAX(amount)") != std::string::npos) heavy_ms = ms;
  }
  ASSERT_GT(simple_ms, 0.0);
  ASSERT_GT(heavy_ms, 0.0);
  EXPECT_GT(heavy_ms, simple_ms * 10);
}

TEST_F(PipelineIntegrationTest, PktSizeGroupSumMatchesPayloadBytes) {
  auto q = engine_.submit(
      "PARSE tcp_pkt_size FROM h0:* TO h5:4000 LIMIT 60s "
      "PROCESS (group-sum: group=pair, value=bytes)",
      0);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();

  const std::string req(1000, 'q');
  const std::string resp(7000, 'r');
  session("h0", "h5", 4000, common::as_bytes(req), common::as_bytes(resp),
          common::kSecond);
  engine_.pump(2 * common::kSecond);
  engine_.stop_all(3 * common::kSecond);

  double fwd = -1, rev = -1;
  for (const auto& row : (*q)->view().latest(2)) {
    const auto src = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(0)));
    if (src == *emu_.ip_of_name("h0")) fwd = stream::as_f64(row.at(2));
    if (src == *emu_.ip_of_name("h5")) rev = stream::as_f64(row.at(2));
  }
  EXPECT_DOUBLE_EQ(fwd, 1000.0);  // exact payload byte accounting
  EXPECT_DOUBLE_EQ(rev, 7000.0);
}

}  // namespace
}  // namespace netalytics::core
