#include "sdn/controller.hpp"

#include <gtest/gtest.h>

#include "net/decode.hpp"
#include "pktgen/builder.hpp"

namespace netalytics::sdn {
namespace {

std::vector<std::byte> http_frame() {
  pktgen::TcpFrameSpec spec;
  spec.flow = {net::make_ipv4(10, 0, 2, 8), net::make_ipv4(10, 0, 2, 9), 5555, 80,
               6};
  spec.pad_to_frame_size = 200;
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

TEST(Controller, InstallRuleOnRegisteredSwitch) {
  SdnSwitch sw(7);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowRule rule;
  rule.actions = {OutputAction{0}};
  EXPECT_TRUE(ctrl.install_rule(7, rule, 0).has_value());
  EXPECT_FALSE(ctrl.install_rule(99, rule, 0).has_value());
  EXPECT_EQ(sw.table().size(), 1u);
  EXPECT_EQ(ctrl.flow_mods_sent(), 1u);
}

TEST(Controller, InstallMirrorBuildsActionPair) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowMatch match;
  match.dst_port = 80;
  const auto cookie = ctrl.install_mirror(1, match, 0, 9, 10, 0);
  ASSERT_TRUE(cookie.has_value());
  const auto& rule = sw.table().rules()[0];
  ASSERT_EQ(rule.actions.size(), 2u);
  EXPECT_EQ(std::get<OutputAction>(rule.actions[0]).port, 0u);
  EXPECT_EQ(std::get<MirrorAction>(rule.actions[1]).port, 9u);
  EXPECT_EQ(rule.priority, 10);
}

TEST(Controller, MirrorRuleWithTimeoutExpires) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowMatch match;
  match.dst_port = 80;
  ctrl.install_mirror(1, match, 0, 9, 10, 0, 90 * common::kSecond);
  EXPECT_EQ(sw.table().expire(91 * common::kSecond), 1u);
}

TEST(Controller, RemoveRules) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowRule rule;
  rule.actions = {OutputAction{0}};
  const auto c1 = ctrl.install_rule(1, rule, 0);
  rule.priority = 5;
  const auto c2 = ctrl.install_rule(1, rule, 0);
  ctrl.remove_rules({{1, *c1}, {1, *c2}});
  EXPECT_EQ(sw.table().size(), 0u);
  EXPECT_FALSE(ctrl.remove_rule(1, *c1));
  EXPECT_FALSE(ctrl.remove_rule(42, 1));
}

TEST(Controller, ReactiveForwardingAppInvoked) {
  SdnSwitch sw(1);
  int app_calls = 0;
  Controller ctrl([&app_calls](const PacketIn&) -> ActionList {
    ++app_calls;
    return {OutputAction{0}};
  });
  ctrl.register_switch(sw);
  int delivered = 0;
  sw.connect_port(0, [&delivered](const net::DecodedPacket&) {
    ++delivered;
  });
  send(sw, 2, http_frame(), 0);
  EXPECT_EQ(app_calls, 1);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ctrl.packet_in_count(), 1u);
}

TEST(Controller, NoAppMissDrops) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  send(sw, 2, http_frame(), 0);
  EXPECT_EQ(sw.stats().dropped, 1u);
  EXPECT_EQ(ctrl.packet_in_count(), 1u);
}

TEST(Controller, SharedMatchMergesMirrors) {
  // Two queries mirroring the same traffic must both receive copies: the
  // controller merges them into one rule with two mirror actions.
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  int mon_a = 0, mon_b = 0, delivered = 0;
  sw.connect_port(0, [&](const net::DecodedPacket&) { ++delivered; });
  sw.connect_port(11, [&](const net::DecodedPacket&) { ++mon_a; });
  sw.connect_port(12, [&](const net::DecodedPacket&) { ++mon_b; });

  FlowMatch match;
  match.dst_port = 80;
  const auto c1 = ctrl.install_mirror(1, match, 0, 11, 10, 0);
  const auto c2 = ctrl.install_mirror(1, match, 0, 12, 10, 0);
  ASSERT_TRUE(c1 && c2);
  EXPECT_NE(*c1, *c2);
  EXPECT_EQ(sw.table().size(), 1u);  // one merged rule

  send(sw, 1, http_frame(), 0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(mon_a, 1);
  EXPECT_EQ(mon_b, 1);

  // Detaching one query keeps the other's mirror alive.
  EXPECT_TRUE(ctrl.remove_rule(1, *c1));
  send(sw, 1, http_frame(), 1);
  EXPECT_EQ(mon_a, 1);
  EXPECT_EQ(mon_b, 2);
  EXPECT_EQ(delivered, 2);

  // Detaching the last query removes the rule entirely.
  EXPECT_TRUE(ctrl.remove_rule(1, *c2));
  EXPECT_EQ(sw.table().size(), 0u);
  EXPECT_FALSE(ctrl.remove_rule(1, *c2));
}

TEST(Controller, MergedMirrorNeverInheritsShorterTimeout) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowMatch match;
  match.dst_port = 80;
  ctrl.install_mirror(1, match, 0, 11, 10, 0, 10 * common::kSecond);
  ctrl.install_mirror(1, match, 0, 12, 10, 0, 0);  // permanent query joins
  // The merged rule must not expire after the first query's 10s.
  EXPECT_EQ(sw.table().expire(11 * common::kSecond), 0u);
  EXPECT_EQ(sw.table().size(), 1u);
}

TEST(Controller, DistinctMatchesStayDistinctRules) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowMatch m80, m443;
  m80.dst_port = 80;
  m443.dst_port = 443;
  ctrl.install_mirror(1, m80, 0, 11, 10, 0);
  ctrl.install_mirror(1, m443, 0, 11, 10, 0);
  EXPECT_EQ(sw.table().size(), 2u);
}

TEST(Controller, FlowStatsReflectTraffic) {
  SdnSwitch sw(1);
  Controller ctrl;
  ctrl.register_switch(sw);
  FlowRule rule;
  rule.actions = {OutputAction{0}};
  ctrl.install_rule(1, rule, 0);
  sw.connect_port(0, [](const net::DecodedPacket&) {});
  send(sw, 2, http_frame(), 0);
  send(sw, 2, http_frame(), 1);
  const auto stats = ctrl.flow_stats(1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].packet_count, 2u);
  EXPECT_EQ(stats[0].byte_count, 400u);
  EXPECT_TRUE(ctrl.flow_stats(9).empty());
}

}  // namespace
}  // namespace netalytics::sdn
