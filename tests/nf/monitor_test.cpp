#include "nf/monitor.hpp"

#include <gtest/gtest.h>

#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/generator.hpp"
#include "pktgen/payloads.hpp"

namespace netalytics::nf {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { parsers::register_builtin_parsers(); }

  struct Capture {
    std::vector<Record> records;
    BatchSink sink() {
      return [this](std::string_view, std::vector<std::byte> payload, const BatchInfo&) {
        for (auto& r : deserialize_batch(payload)) records.push_back(std::move(r));
      };
    }
  };
};

TEST_F(MonitorTest, InlineModeParsesHttpGet) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  const auto payload = pktgen::http_get_request("/a.html", "h1");
  pktgen::TcpFrameSpec spec;
  spec.flow = {net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 0, 2), 9999, 80,
               6};
  spec.payload = payload;
  const auto frame = pktgen::build_tcp_frame(spec);
  mon.process(frame, 1000);
  mon.close(2000);

  ASSERT_EQ(cap.records.size(), 1u);
  EXPECT_EQ(cap.records[0].topic, "http_get");
  EXPECT_EQ(as_str(cap.records[0].fields[0]), "request");
  EXPECT_EQ(as_str(cap.records[0].fields[1]), "/a.html");
  EXPECT_EQ(cap.records[0].timestamp, 1000u);
}

TEST_F(MonitorTest, MultipleParsersSeeSamePacket) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"tcp_flow_key", 1}, {"tcp_pkt_size", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  pktgen::TcpFrameSpec spec;
  spec.flow = {net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 0, 2), 9999, 80,
               6};
  spec.pad_to_frame_size = 128;
  mon.process(pktgen::build_tcp_frame(spec), 1);
  mon.close(2);

  // tcp_flow_key emits on the new flow, tcp_pkt_size flushes at close.
  ASSERT_EQ(cap.records.size(), 2u);
  std::set<std::string> topics;
  for (const auto& r : cap.records) topics.insert(r.topic);
  EXPECT_TRUE(topics.contains("tcp_flow_key"));
  EXPECT_TRUE(topics.contains("tcp_pkt_size"));
}

TEST_F(MonitorTest, SamplingDropsFlowsNotPackets) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"tcp_flow_key", 1}};
  cfg.sample_rate = 0.5;
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  // 200 flows, 3 packets each: every sampled flow must emit exactly one
  // flow-key record (all of its packets kept), and roughly half survive.
  for (int f = 0; f < 200; ++f) {
    pktgen::TcpFrameSpec spec;
    spec.flow = {net::make_ipv4(10, 0, 1, static_cast<std::uint8_t>(f)),
                 net::make_ipv4(10, 0, 0, 2),
                 static_cast<net::Port>(10000 + f), 80, 6};
    spec.pad_to_frame_size = 64;
    const auto frame = pktgen::build_tcp_frame(spec);
    for (int p = 0; p < 3; ++p) mon.process(frame, p);
  }
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 600u);
  EXPECT_GT(stats.sampled_out, 150u);
  EXPECT_LT(stats.sampled_out, 450u);
  EXPECT_EQ(stats.sampled_out % 3, 0u);  // whole flows dropped, 3 packets each
  EXPECT_GT(cap.records.size(), 50u);
  EXPECT_LT(cap.records.size(), 150u);
}

TEST_F(MonitorTest, CloseFlushesAggregatingParsers) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"tcp_pkt_size", 1}};
  cfg.output_batch_records = 1024;  // force flush-at-close path
  Monitor mon(cfg, cap.sink());

  pktgen::TcpFrameSpec spec;
  spec.flow = {net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 0, 2), 9999, 80,
               6};
  spec.pad_to_frame_size = 200;
  const auto frame = pktgen::build_tcp_frame(spec);

  for (int i = 0; i < 50; ++i) mon.process(frame, i + 1);
  mon.close(100);

  ASSERT_GE(cap.records.size(), 1u);
  std::uint64_t total_packets = 0;
  for (const auto& r : cap.records) {
    ASSERT_EQ(r.topic, "tcp_pkt_size");
    total_packets += as_u64(r.fields[4]);
  }
  EXPECT_EQ(total_packets, 50u);
}

TEST_F(MonitorTest, FlowAffinityAcrossWorkersKeepsStatefulParsersCorrect) {
  // With multiple workers, a connection's two directions must land on the
  // same parser instance (flow-id dispatch, §5.2) — otherwise the MySQL
  // parser would never pair queries with their responses.
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"mysql_query", 4}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  for (int conn = 0; conn < 32; ++conn) {
    net::FiveTuple flow{net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 0, 9),
                        static_cast<net::Port>(30000 + conn), 3306, 6};
    pktgen::TcpFrameSpec query;
    query.flow = flow;
    query.flags = net::tcp_flags::kPsh | net::tcp_flags::kAck;
    const auto sql = pktgen::mysql_query_packet("SELECT " + std::to_string(conn));
    query.payload = sql;
    mon.process(pktgen::build_tcp_frame(query), 1000);

    pktgen::TcpFrameSpec resp;
    resp.flow = flow.reversed();
    resp.flags = net::tcp_flags::kPsh | net::tcp_flags::kAck;
    const auto ok = pktgen::mysql_ok_packet();
    resp.payload = ok;
    mon.process(pktgen::build_tcp_frame(resp), 2000);
  }
  mon.close(3000);
  // Every query/response pair matched despite 4 parser instances.
  EXPECT_EQ(cap.records.size(), 32u);
  for (const auto& r : cap.records) {
    EXPECT_EQ(as_u64(r.fields[1]), 1000u);  // latency = 2000 - 1000
  }
}

TEST_F(MonitorTest, BackpressureHalvesSampleRate) {
  MonitorConfig cfg;
  cfg.parsers = {{"tcp_flow_key", 1}};
  Monitor mon(cfg, [](std::string_view, std::vector<std::byte>, const BatchInfo&) {});
  EXPECT_DOUBLE_EQ(mon.sample_rate(), 1.0);
  mon.on_backpressure();
  EXPECT_DOUBLE_EQ(mon.sample_rate(), 0.5);
  mon.set_sample_rate(0.1);
  EXPECT_NEAR(mon.sample_rate(), 0.1, 1e-9);
}

TEST_F(MonitorTest, StatsCountRawAndRecordBytes) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  pktgen::GeneratorConfig gcfg;
  gcfg.kind = pktgen::TrafficKind::http_get;
  gcfg.flow_count = 8;
  gcfg.frame_size = 512;
  pktgen::TrafficGenerator gen(gcfg);
  for (int i = 0; i < 100; ++i) mon.process(gen.next_frame(), i);
  mon.close(1000);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.raw_bytes, 100u * 512u);
  EXPECT_GT(stats.record_bytes, 0u);
  // Data reduction: records must be far smaller than the raw packets (§3.1).
  EXPECT_LT(stats.record_bytes * 4, stats.raw_bytes);
}

}  // namespace
}  // namespace netalytics::nf
