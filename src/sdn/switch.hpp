// Software SDN switch data plane: per-port delivery callbacks, a priority
// flow table, mirror support, and a reactive miss path to the controller.
// The in-process emulation attaches hosts and monitors to ports; mirroring
// a flow to a monitor is exactly the paper's "match and mirror" deployment.
// The switch never decodes: packets arrive already decoded at fabric
// ingress (core::Emulation::transmit), and the same DecodedPacket — frame,
// timestamp and header metadata — is matched and handed to every port.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sdn/openflow.hpp"

namespace netalytics::sdn {

/// Called when the switch sends a packet out a port. `pkt.frame` and
/// `pkt.timestamp` are the bytes and arrival time; the spans are valid only
/// during the call.
using PortSink = std::function<void(const net::DecodedPacket& pkt)>;

/// Controller-side handler for table misses. Returns the actions to apply
/// to this packet (and typically installs a rule via the controller's
/// northbound API so the next packet hits the table).
class PacketInHandler {
 public:
  virtual ~PacketInHandler() = default;
  virtual ActionList on_packet_in(const PacketIn& event) = 0;
};

struct SwitchStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t matched = 0;
  std::uint64_t missed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t mirrored = 0;
  std::uint64_t mirrored_bytes = 0;
  std::uint64_t dropped = 0;
};

class SdnSwitch {
 public:
  explicit SdnSwitch(SwitchId id, std::size_t table_capacity = 4096);

  SwitchId id() const noexcept { return id_; }

  /// Attach a delivery sink to a port (host link, monitor link, uplink).
  void connect_port(std::uint32_t port, PortSink sink);

  /// Reactive path: unset means misses are dropped.
  void set_packet_in_handler(PacketInHandler* handler) noexcept {
    handler_ = handler;
  }

  /// Data plane entry: a decoded packet arrives on `in_port`.
  void handle_packet(std::uint32_t in_port, const net::DecodedPacket& pkt);

  /// Southbound: apply a FlowMod. Returns the installed cookie (add) or
  /// whether removal succeeded encoded as cookie 0/1.
  std::optional<std::uint64_t> apply(const FlowMod& mod, common::Timestamp now);

  FlowTable& table() noexcept { return table_; }
  const SwitchStats& stats() const noexcept { return stats_; }

 private:
  void run_actions(const ActionList& actions, const net::DecodedPacket& pkt);

  SwitchId id_;
  FlowTable table_;
  std::map<std::uint32_t, PortSink> ports_;
  PacketInHandler* handler_ = nullptr;
  SwitchStats stats_;
};

}  // namespace netalytics::sdn
