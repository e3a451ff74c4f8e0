// In-process data-center emulation: a dcn topology whose ToR switches are
// live sdn::SdnSwitch instances under one controller. Application hosts are
// bound to IPs; transmitting a frame walks it through the source and
// destination ToR switches, where NetAlytics mirror rules copy matched
// traffic to attached monitors — the paper's deployment (Fig. 2) in
// miniature, byte-exact on the wire.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "dcn/topology.hpp"
#include "net/decode.hpp"
#include "sdn/controller.hpp"

namespace netalytics::common {
class FaultPlan;
}

namespace netalytics::core {

class Emulation {
 public:
  /// Default rules forward everything out the delivery port; the
  /// controller is wired to every ToR switch.
  explicit Emulation(dcn::Topology topo);

  /// Bind a named application host to a topology host node and an IP.
  /// Throws if the name/IP is taken or the node is not a host.
  void bind_host(const std::string& name, net::Ipv4Addr ip, dcn::NodeId node);

  /// Small-tree emulation with every host auto-bound as "h<i>" at
  /// 10.0.<rack>.<slot>.
  static Emulation make_small(std::size_t hosts_per_rack = 4);

  // ---- lookups --------------------------------------------------------
  std::optional<dcn::NodeId> node_of_ip(net::Ipv4Addr ip) const;
  std::optional<net::Ipv4Addr> ip_of_name(const std::string& name) const;
  std::optional<dcn::NodeId> node_of_name(const std::string& name) const;
  /// First IP bound to a host node.
  std::optional<net::Ipv4Addr> ip_of_node(dcn::NodeId node) const;
  /// Hosts bound inside a prefix.
  std::vector<dcn::NodeId> nodes_in_prefix(const net::Ipv4Prefix& prefix) const;
  /// (host node, bound IP) endpoints inside a prefix — a node may carry
  /// several IPs; each match is its own endpoint.
  std::vector<std::pair<dcn::NodeId, net::Ipv4Addr>> endpoints_in_prefix(
      const net::Ipv4Prefix& prefix) const;

  const dcn::Topology& topology() const noexcept { return topo_; }
  dcn::Topology& topology() noexcept { return topo_; }
  sdn::Controller& controller() noexcept { return controller_; }
  /// The live switch of a ToR node.
  sdn::SdnSwitch& switch_of_tor(dcn::NodeId tor);
  /// SDN switch id for a ToR node (== the node id).
  static sdn::SwitchId switch_id(dcn::NodeId tor) noexcept { return tor; }

  /// Port number on every ToR switch that represents normal delivery.
  static constexpr std::uint32_t kDeliveryPort = 0;
  /// Ingress port frames arrive on from hosts / the fabric.
  static constexpr std::uint32_t kIngressPort = 1;

  /// Chaos hook: a FaultPlan installed here (before a NetAlytics engine is
  /// constructed on this emulation) is threaded into every layer the engine
  /// builds — brokers, monitors, spouts — so an end-to-end test can kill a
  /// broker mid-run with one arm() call. The plan is borrowed, not owned.
  void install_faults(common::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  common::FaultPlan* fault_plan() const noexcept { return fault_plan_; }

  /// Attach a monitor sink to a ToR switch; returns the port to mirror to.
  std::uint32_t attach_monitor(dcn::NodeId tor, sdn::PortSink sink);

  /// Inject a frame from its source host. The frame is decoded once here
  /// (frames that fail to decode or carry no IPv4 are counted as
  /// transmitted and go nowhere); the decoded packet then visits the source
  /// ToR and (when different) the destination ToR, so mirror rules fire
  /// wherever the covering monitor lives.
  void transmit(std::span<const std::byte> frame, common::Timestamp ts);

  std::uint64_t delivered_packets() const noexcept { return delivered_; }
  std::uint64_t delivered_bytes() const noexcept { return delivered_bytes_; }
  std::uint64_t transmitted_packets() const noexcept { return transmitted_; }

 private:
  struct TorState {
    std::unique_ptr<sdn::SdnSwitch> sw;
    std::uint32_t next_monitor_port = 100;
  };

  dcn::Topology topo_;
  sdn::Controller controller_;
  std::map<dcn::NodeId, TorState> tors_;
  std::map<net::Ipv4Addr, dcn::NodeId> ip_to_node_;
  std::map<std::string, net::Ipv4Addr> name_to_ip_;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t transmitted_ = 0;
  common::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace netalytics::core
