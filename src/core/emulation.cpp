#include "core/emulation.hpp"

#include <stdexcept>

namespace netalytics::core {

Emulation::Emulation(dcn::Topology topo) : topo_(std::move(topo)) {
  for (const auto tor : topo_.tor_switches()) {
    TorState state;
    state.sw = std::make_unique<sdn::SdnSwitch>(switch_id(tor));
    controller_.register_switch(*state.sw);

    // Default lowest-priority rule: forward everything out the delivery
    // port. The delivery sink counts final delivery (the port-0 hop of the
    // destination ToR); packets egressing the *source* ToR are re-injected
    // at the destination ToR by transmit(), not here, to keep switch
    // callbacks re-entrancy-free.
    sdn::FlowRule rule;
    rule.priority = 0;
    rule.actions = {sdn::OutputAction{kDeliveryPort}};
    state.sw->table().install(rule, 0);

    // Delivery is counted in transmit() (a cross-rack frame visits two
    // switches; only its arrival at the destination ToR is a delivery).
    state.sw->connect_port(kDeliveryPort, [](const net::DecodedPacket&) {});
    tors_.emplace(tor, std::move(state));
  }
}

void Emulation::bind_host(const std::string& name, net::Ipv4Addr ip,
                          dcn::NodeId node) {
  if (topo_.node(node).kind != dcn::NodeKind::host) {
    throw std::invalid_argument("bind_host: node " + std::to_string(node) +
                                " is not a host");
  }
  if (name_to_ip_.contains(name)) {
    throw std::invalid_argument("bind_host: name '" + name + "' already bound");
  }
  if (ip_to_node_.contains(ip)) {
    throw std::invalid_argument("bind_host: ip " + net::format_ipv4(ip) +
                                " already bound");
  }
  name_to_ip_[name] = ip;
  ip_to_node_[ip] = node;
}

Emulation Emulation::make_small(std::size_t hosts_per_rack) {
  Emulation emu(dcn::build_small_tree(hosts_per_rack));
  std::size_t i = 0;
  const auto& tors = emu.topo_.tor_switches();
  for (std::size_t rack = 0; rack < tors.size(); ++rack) {
    std::size_t slot = 1;
    for (const auto host : emu.topo_.hosts_under_tor(tors[rack])) {
      emu.bind_host("h" + std::to_string(i++),
                    net::make_ipv4(10, 0, static_cast<std::uint8_t>(rack),
                                   static_cast<std::uint8_t>(slot++)),
                    host);
    }
  }
  return emu;
}

std::optional<dcn::NodeId> Emulation::node_of_ip(net::Ipv4Addr ip) const {
  const auto it = ip_to_node_.find(ip);
  if (it == ip_to_node_.end()) return std::nullopt;
  return it->second;
}

std::optional<net::Ipv4Addr> Emulation::ip_of_name(const std::string& name) const {
  const auto it = name_to_ip_.find(name);
  if (it == name_to_ip_.end()) return std::nullopt;
  return it->second;
}

std::optional<dcn::NodeId> Emulation::node_of_name(const std::string& name) const {
  const auto ip = ip_of_name(name);
  if (!ip) return std::nullopt;
  return node_of_ip(*ip);
}

std::optional<net::Ipv4Addr> Emulation::ip_of_node(dcn::NodeId node) const {
  for (const auto& [ip, n] : ip_to_node_) {
    if (n == node) return ip;
  }
  return std::nullopt;
}

std::vector<dcn::NodeId> Emulation::nodes_in_prefix(
    const net::Ipv4Prefix& prefix) const {
  std::vector<dcn::NodeId> out;
  for (const auto& [ip, node] : ip_to_node_) {
    if (prefix.contains(ip)) out.push_back(node);
  }
  return out;
}

std::vector<std::pair<dcn::NodeId, net::Ipv4Addr>> Emulation::endpoints_in_prefix(
    const net::Ipv4Prefix& prefix) const {
  std::vector<std::pair<dcn::NodeId, net::Ipv4Addr>> out;
  for (const auto& [ip, node] : ip_to_node_) {
    if (prefix.contains(ip)) out.emplace_back(node, ip);
  }
  return out;
}

sdn::SdnSwitch& Emulation::switch_of_tor(dcn::NodeId tor) {
  return *tors_.at(tor).sw;
}

std::uint32_t Emulation::attach_monitor(dcn::NodeId tor, sdn::PortSink sink) {
  TorState& state = tors_.at(tor);
  const std::uint32_t port = state.next_monitor_port++;
  state.sw->connect_port(port, std::move(sink));
  return port;
}

void Emulation::transmit(std::span<const std::byte> frame, common::Timestamp ts) {
  ++transmitted_;
  // Fabric ingress: the frame's one decode. Switch match, mirror actions and
  // the monitors behind mirror ports all read this DecodedPacket.
  auto decoded = net::decode_packet(frame);
  if (!decoded || !decoded->has_ipv4) return;
  decoded->timestamp = ts;
  const net::DecodedPacket& pkt = *decoded;

  const auto src_node = node_of_ip(pkt.ipv4.src);
  const auto dst_node = node_of_ip(pkt.ipv4.dst);

  std::optional<dcn::NodeId> src_tor, dst_tor;
  if (src_node) src_tor = topo_.tor_of_host(*src_node);
  if (dst_node) dst_tor = topo_.tor_of_host(*dst_node);

  // Visit the source ToR first (mirrors fire), then the destination ToR
  // (mirrors fire, delivery counted). With both ends in one rack the frame
  // crosses a single switch, like the real fabric.
  if (src_tor) {
    tors_.at(*src_tor).sw->handle_packet(kIngressPort, pkt);
    if (dst_tor && *dst_tor != *src_tor) {
      tors_.at(*dst_tor).sw->handle_packet(kIngressPort, pkt);
    }
  } else if (dst_tor) {
    tors_.at(*dst_tor).sw->handle_packet(kIngressPort, pkt);
  }
  if (dst_node) {
    ++delivered_;
    delivered_bytes_ += frame.size();
  }
}

}  // namespace netalytics::core
