#include "sdn/switch.hpp"

#include <gtest/gtest.h>

#include "net/decode.hpp"
#include "pktgen/builder.hpp"

namespace netalytics::sdn {
namespace {

std::vector<std::byte> frame_to_port(net::Port dst_port) {
  pktgen::TcpFrameSpec spec;
  spec.flow = {net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 0, 2), 1234,
               dst_port, 6};
  spec.pad_to_frame_size = 128;
  return pktgen::build_tcp_frame(spec);
}

/// Decode `frame` the way fabric ingress does and hand it to the switch.
void send(SdnSwitch& sw, std::uint32_t in_port,
          std::span<const std::byte> frame, common::Timestamp ts) {
  auto pkt = net::decode_packet(frame);
  ASSERT_TRUE(pkt.has_value());
  pkt->timestamp = ts;
  sw.handle_packet(in_port, *pkt);
}

struct PortCapture {
  int count = 0;
  std::size_t bytes = 0;
  common::Timestamp last_ts = 0;
  PortSink sink() {
    return [this](const net::DecodedPacket& pkt) {
      ++count;
      bytes += pkt.frame.size();
      last_ts = pkt.timestamp;
    };
  }
};

FlowMod mirror_mod(net::Port dst_port, std::uint32_t out, std::uint32_t mirror) {
  FlowMod mod;
  mod.rule.priority = 10;
  mod.rule.match.dst_port = dst_port;
  mod.rule.actions = {OutputAction{out}, MirrorAction{mirror}};
  return mod;
}

TEST(SdnSwitch, ForwardsOnMatch) {
  SdnSwitch sw(1);
  PortCapture out;
  sw.connect_port(0, out.sink());
  FlowMod mod;
  mod.rule.actions = {OutputAction{0}};  // wildcard
  sw.apply(mod, 0);
  send(sw, 5, frame_to_port(80), 0);
  EXPECT_EQ(out.count, 1);
  EXPECT_EQ(sw.stats().matched, 1u);
  EXPECT_EQ(sw.stats().forwarded, 1u);
}

TEST(SdnSwitch, MirrorDeliversCopyToBothPorts) {
  SdnSwitch sw(1);
  PortCapture normal, monitor;
  sw.connect_port(0, normal.sink());
  sw.connect_port(7, monitor.sink());
  sw.apply(mirror_mod(80, 0, 7), 0);

  send(sw, 1, frame_to_port(80), 42);
  EXPECT_EQ(normal.count, 1);
  EXPECT_EQ(monitor.count, 1);
  EXPECT_EQ(monitor.bytes, 128u);
  EXPECT_EQ(monitor.last_ts, 42u);  // the packet's arrival time rides along
  EXPECT_EQ(sw.stats().mirrored, 1u);
  EXPECT_EQ(sw.stats().mirrored_bytes, 128u);
}

TEST(SdnSwitch, MissingMonitorPortDoesNotBreakDelivery) {
  SdnSwitch sw(1);
  PortCapture normal;
  sw.connect_port(0, normal.sink());
  sw.apply(mirror_mod(80, 0, 99), 0);  // port 99 unattached
  send(sw, 1, frame_to_port(80), 0);
  EXPECT_EQ(normal.count, 1);  // normal path unaffected
  EXPECT_EQ(sw.stats().mirrored, 0u);
}

TEST(SdnSwitch, MissWithoutHandlerDrops) {
  SdnSwitch sw(1);
  send(sw, 1, frame_to_port(80), 0);
  EXPECT_EQ(sw.stats().missed, 1u);
  EXPECT_EQ(sw.stats().dropped, 1u);
}

class InstallOnMissHandler final : public PacketInHandler {
 public:
  explicit InstallOnMissHandler(SdnSwitch& sw) : sw_(sw) {}
  ActionList on_packet_in(const PacketIn& event) override {
    ++events;
    // Reactive: install a rule for this destination port, then forward.
    FlowMod mod;
    mod.rule.priority = 5;
    mod.rule.match.dst_port = event.packet.five_tuple.dst_port;
    mod.rule.actions = {OutputAction{0}};
    sw_.apply(mod, event.timestamp);
    return {OutputAction{0}};
  }
  int events = 0;

 private:
  SdnSwitch& sw_;
};

TEST(SdnSwitch, ReactivePathInstallsRuleOnFirstPacket) {
  SdnSwitch sw(1);
  PortCapture out;
  sw.connect_port(0, out.sink());
  InstallOnMissHandler handler(sw);
  sw.set_packet_in_handler(&handler);

  send(sw, 1, frame_to_port(80), 0);  // miss -> controller
  send(sw, 1, frame_to_port(80), 1);  // hit the installed rule
  EXPECT_EQ(handler.events, 1);
  EXPECT_EQ(out.count, 2);
  EXPECT_EQ(sw.stats().missed, 1u);
  EXPECT_EQ(sw.stats().matched, 1u);
}

TEST(SdnSwitch, DropActionCounts) {
  SdnSwitch sw(1);
  FlowMod mod;
  mod.rule.actions = {DropAction{}};
  sw.apply(mod, 0);
  send(sw, 1, frame_to_port(80), 0);
  EXPECT_EQ(sw.stats().dropped, 1u);
}

TEST(SdnSwitch, RuleStatsAccumulate) {
  SdnSwitch sw(1);
  PortCapture out;
  sw.connect_port(0, out.sink());
  FlowMod mod;
  mod.rule.actions = {OutputAction{0}};
  const auto cookie = sw.apply(mod, 0);
  ASSERT_TRUE(cookie.has_value());
  for (int i = 0; i < 3; ++i) send(sw, 1, frame_to_port(80), i);
  EXPECT_EQ(sw.table().rules()[0].packet_count, 3u);
  EXPECT_EQ(sw.table().rules()[0].byte_count, 3u * 128u);
}

}  // namespace
}  // namespace netalytics::sdn
