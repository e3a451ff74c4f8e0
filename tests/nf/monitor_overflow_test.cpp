// Chaos coverage for the monitor: injected ingress overflows and parser
// exceptions must never kill the NF — they are counted, and parsing
// continues on the very next packet.
#include <gtest/gtest.h>

#include <vector>

#include "common/fault.hpp"
#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/payloads.hpp"

namespace netalytics::nf {
namespace {

class MonitorOverflowTest : public ::testing::Test {
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

  static std::vector<std::byte> http_frame(int flow) {
    const auto payload = pktgen::http_get_request("/x.html", "h");
    pktgen::TcpFrameSpec spec;
    spec.flow = {net::make_ipv4(10, 0, 1, static_cast<std::uint8_t>(flow)),
                 net::make_ipv4(10, 0, 0, 2),
                 static_cast<net::Port>(20000 + flow), 80, 6};
    spec.payload = payload;
    return pktgen::build_tcp_frame(spec);
  }
};

TEST_F(MonitorOverflowTest, InjectedRxOverflowCountsDropsAndSurvives) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 2;
  plan.arm(std::string(kFaultRxOverflow), spec);
  mon.install_faults(&plan);

  for (int i = 0; i < 10; ++i) mon.process(http_frame(i), i);
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 10u);
  EXPECT_EQ(stats.rx_dropped, 5u);
  EXPECT_EQ(stats.parsed, 5u);
  EXPECT_EQ(cap.records.size(), 5u);
  EXPECT_EQ(plan.fires(kFaultRxOverflow), 5u);
}

TEST_F(MonitorOverflowTest, InjectedParserThrowIsCountedAndParsingContinues) {
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 3;  // packets 3, 6, 9, ... blow up inside the parser
  plan.arm(std::string(kFaultParserThrow), spec);
  mon.install_faults(&plan);

  for (int i = 0; i < 12; ++i) mon.process(http_frame(i), i);
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 12u);
  EXPECT_EQ(stats.rx_dropped, 0u);
  EXPECT_EQ(stats.parser_errors, 4u);
  EXPECT_EQ(stats.parsed, 8u);
  // Every surviving HTTP GET still produced its record.
  EXPECT_EQ(cap.records.size(), stats.parsed);
  EXPECT_EQ(stats.records, stats.parsed);
}

TEST_F(MonitorOverflowTest, ParserThrowDoesNotCorruptLaterPackets) {
  // A fault on packet N must not leak state into packet N+1: arm a one-shot
  // throw, then verify the next packet parses normally.
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 1;
  plan.arm(std::string(kFaultParserThrow), spec);
  mon.install_faults(&plan);

  mon.process(http_frame(1), 10);  // eaten by the injected throw
  mon.process(http_frame(2), 20);  // must parse normally
  mon.close(100);

  EXPECT_EQ(mon.stats().parser_errors, 1u);
  ASSERT_EQ(cap.records.size(), 1u);
  EXPECT_EQ(cap.records[0].timestamp, 20u);
  EXPECT_EQ(as_str(cap.records[0].fields[1]), "/x.html");
}

TEST_F(MonitorOverflowTest, NoPlanMeansNoFaultPath) {
  // Zero-cost guard: without install_faults the monitor behaves exactly as
  // before — nothing dropped, nothing thrown.
  Capture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  for (int i = 0; i < 20; ++i) mon.process(http_frame(i), i);
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_dropped, 0u);
  EXPECT_EQ(stats.parser_errors, 0u);
  EXPECT_EQ(stats.parsed, 20u);
  EXPECT_EQ(cap.records.size(), 20u);
}

}  // namespace
}  // namespace netalytics::nf
