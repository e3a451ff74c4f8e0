#include "core/emulation.hpp"

#include <gtest/gtest.h>

#include "pktgen/builder.hpp"

namespace netalytics::core {
namespace {

std::vector<std::byte> frame_between(net::Ipv4Addr src, net::Ipv4Addr dst,
                                     net::Port dst_port = 80) {
  pktgen::TcpFrameSpec spec;
  spec.flow = {src, dst, 5000, dst_port, 6};
  spec.pad_to_frame_size = 128;
  return pktgen::build_tcp_frame(spec);
}

TEST(Emulation, MakeSmallBindsAllHosts) {
  auto emu = Emulation::make_small(4);
  EXPECT_EQ(emu.topology().hosts().size(), 32u);
  const auto ip = emu.ip_of_name("h0");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(*ip, net::make_ipv4(10, 0, 0, 1));
  EXPECT_TRUE(emu.node_of_name("h31").has_value());
  EXPECT_FALSE(emu.node_of_name("h32").has_value());
  EXPECT_EQ(*emu.node_of_ip(*ip), *emu.node_of_name("h0"));
  EXPECT_EQ(*emu.ip_of_node(*emu.node_of_name("h0")), *ip);
}

TEST(Emulation, BindHostRejectsConflicts) {
  auto emu = Emulation::make_small(2);
  const auto host = emu.topology().hosts().front();
  EXPECT_THROW(emu.bind_host("h0", net::make_ipv4(9, 9, 9, 9), host),
               std::invalid_argument);  // name taken
  EXPECT_THROW(emu.bind_host("fresh", net::make_ipv4(10, 0, 0, 1), host),
               std::invalid_argument);  // ip taken
  EXPECT_THROW(emu.bind_host("fresh", net::make_ipv4(9, 9, 9, 9),
                             emu.topology().tor_switches().front()),
               std::invalid_argument);  // not a host node
}

TEST(Emulation, NodesInPrefix) {
  auto emu = Emulation::make_small(4);
  // Rack 0 hosts live in 10.0.0.0/24.
  const auto rack0 = emu.nodes_in_prefix({net::make_ipv4(10, 0, 0, 0), 24});
  EXPECT_EQ(rack0.size(), 4u);
  const auto all = emu.nodes_in_prefix({net::make_ipv4(10, 0, 0, 0), 16});
  EXPECT_EQ(all.size(), 32u);
}

TEST(Emulation, TransmitCountsDelivery) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");  // different rack
  emu.transmit(frame_between(src, dst), 1);
  EXPECT_EQ(emu.transmitted_packets(), 1u);
  EXPECT_EQ(emu.delivered_packets(), 1u);  // exactly once, not per switch
  EXPECT_EQ(emu.delivered_bytes(), 128u);
}

TEST(Emulation, TransmitToUnknownDestinationNotDelivered) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  emu.transmit(frame_between(src, net::make_ipv4(99, 9, 9, 9)), 1);
  EXPECT_EQ(emu.delivered_packets(), 0u);
  EXPECT_EQ(emu.transmitted_packets(), 1u);
}

TEST(Emulation, MonitorSeesMirroredTraffic) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");
  const auto dst_node = *emu.node_of_name("h5");
  const auto dst_tor = emu.topology().tor_of_host(dst_node);

  int mirrored = 0;
  const auto port = emu.attach_monitor(
      dst_tor, [&mirrored](const net::DecodedPacket& pkt) {
        ++mirrored;
        EXPECT_EQ(pkt.timestamp, 1u);  // stamped once at fabric ingress
        EXPECT_EQ(pkt.five_tuple.dst_port, 80);
      });

  sdn::FlowMatch match;
  match.dst_prefix = net::Ipv4Prefix{dst, 32};
  match.dst_port = 80;
  emu.controller().install_mirror(Emulation::switch_id(dst_tor), match,
                                  Emulation::kDeliveryPort, port, 10, 0);

  emu.transmit(frame_between(src, dst, 80), 1);   // matches
  emu.transmit(frame_between(src, dst, 443), 2);  // wrong port
  emu.transmit(frame_between(dst, src, 80), 3);   // reverse: not matched
  EXPECT_EQ(mirrored, 1);
  EXPECT_EQ(emu.delivered_packets(), 3u);  // mirroring never breaks delivery
}

TEST(Emulation, CrossRackFrameVisitsBothTors) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");
  const auto src_tor = emu.topology().tor_of_host(*emu.node_of_name("h0"));
  const auto dst_tor = emu.topology().tor_of_host(*emu.node_of_name("h5"));
  emu.transmit(frame_between(src, dst), 1);
  EXPECT_EQ(emu.switch_of_tor(src_tor).stats().rx_packets, 1u);
  EXPECT_EQ(emu.switch_of_tor(dst_tor).stats().rx_packets, 1u);
}

TEST(Emulation, SameRackFrameVisitsOneTor) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h1");
  const auto tor = emu.topology().tor_of_host(*emu.node_of_name("h0"));
  emu.transmit(frame_between(src, dst), 1);
  EXPECT_EQ(emu.switch_of_tor(tor).stats().rx_packets, 1u);
}

TEST(Emulation, MalformedFrameReachesNoSwitch) {
  // Fabric ingress owns the decode: junk is counted as transmitted, then
  // goes nowhere — no switch sees it and nothing is delivered.
  auto emu = Emulation::make_small(2);
  std::vector<std::byte> junk(5);
  emu.transmit(junk, 1);
  auto not_ipv4 = frame_between(*emu.ip_of_name("h0"), *emu.ip_of_name("h1"));
  not_ipv4[12] = std::byte{0x86};  // EtherType 0x86dd: well-formed, no IPv4
  not_ipv4[13] = std::byte{0xdd};
  emu.transmit(not_ipv4, 2);
  EXPECT_EQ(emu.transmitted_packets(), 2u);
  EXPECT_EQ(emu.delivered_packets(), 0u);
  for (const auto tor : emu.topology().tor_switches()) {
    EXPECT_EQ(emu.switch_of_tor(tor).stats().rx_packets, 0u);
    EXPECT_EQ(emu.switch_of_tor(tor).stats().dropped, 0u);
  }
}

TEST(Emulation, MonitorPortsAreDistinct) {
  auto emu = Emulation::make_small(2);
  const auto tor = emu.topology().tor_switches().front();
  const auto p1 = emu.attach_monitor(tor, [](const net::DecodedPacket&) {});
  const auto p2 = emu.attach_monitor(tor, [](const net::DecodedPacket&) {});
  EXPECT_NE(p1, p2);
}

}  // namespace
}  // namespace netalytics::core
