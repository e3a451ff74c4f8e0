// One-pass packet decoder: classifies a raw frame into layered views that
// parsers and SDN match logic consume. A DecodedPacket is the packet's
// metadata, like a DPDK mbuf's parsed header fields: a frame is decoded
// once where it enters the system and the same DecodedPacket rides with it
// to every consumer. There are two ingress sites and no others:
//   * core::Emulation::transmit — fabric ingress; switch match, mirror
//     ports and the monitor's fabric entry all read its decode;
//   * nf::Monitor::process(frame, ts) — the monitor's raw-bytes ingress
//     (replay, standalone use).
#pragma once

#include <optional>
#include <span>

#include "common/clock.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"

namespace netalytics::net {

struct DecodedPacket {
  std::span<const std::byte> frame;  // whole packet
  common::Timestamp timestamp = 0;  // arrival time, set by the capture point

  EthernetHeader eth;
  bool has_ipv4 = false;
  Ipv4Header ipv4;
  bool has_tcp = false;
  TcpHeader tcp;
  bool has_udp = false;
  UdpHeader udp;

  std::size_t l4_payload_offset = 0;
  std::size_t l4_payload_size = 0;

  FiveTuple five_tuple;
  std::uint64_t flow_hash = 0;                // direction-sensitive
  std::uint64_t bidirectional_flow_hash = 0;  // connection-level

  std::span<const std::byte> payload() const noexcept {
    return frame.subspan(l4_payload_offset, l4_payload_size);
  }
};

/// Decode a frame. Returns nullopt for anything that is not well-formed
/// Ethernet. Non-IPv4 and non-TCP/UDP frames decode with the corresponding
/// `has_*` flags false.
std::optional<DecodedPacket> decode_packet(std::span<const std::byte> frame);

}  // namespace netalytics::net
