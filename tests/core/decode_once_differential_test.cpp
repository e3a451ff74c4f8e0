// Decode-once differential: the fabric decodes each frame once, at
// Emulation::transmit, and carries that DecodedPacket through switch match,
// mirror actions and the monitor. A reference fabric that decodes afresh at
// every hop — once per switch, then again in the monitor's raw-bytes entry —
// must agree with it on everything observable: switch and per-rule
// counters, MonitorStats, the emitted batch bytes and the DropLedger causes.
// The traffic is pktgen HTTP and TCP-connection sessions plus seeded
// mutations of them (header byte flips, truncation, false length fields),
// so frames that fail to decode, lose their IPv4 or L4 view, or land on
// unknown hosts are covered too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/emulation.hpp"
#include "net/decode.hpp"
#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "parsers/register.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "support/frame_mutator.hpp"

namespace netalytics::core {
namespace {

struct Frame {
  std::vector<std::byte> bytes;
  common::Timestamp ts = 0;
};

/// HTTP GET sessions into h5:80 (cross-rack from h0..h2, same-rack from
/// h4) and payload-free TCP connections h1 -> h6:5001.
std::vector<Frame> pktgen_traffic(const Emulation& emu) {
  std::vector<Frame> frames;
  const pktgen::FrameSink collect = [&frames](std::span<const std::byte> f,
                                              common::Timestamp ts) {
    frames.push_back({{f.begin(), f.end()}, ts});
  };
  const auto resp = pktgen::http_response(200, 300);
  const char* clients[] = {"h0", "h1", "h2", "h4"};
  for (int i = 0; i < 8; ++i) {
    const auto req = pktgen::http_get_request("/page" + std::to_string(i % 3), "h5");
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name(clients[i % 4]), *emu.ip_of_name("h5"),
              static_cast<net::Port>(30000 + i), 80, 6};
    s.start = static_cast<common::Timestamp>(i) * 10 * common::kMillisecond;
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(s, collect);
  }
  for (int i = 0; i < 4; ++i) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h1"), *emu.ip_of_name("h6"),
              static_cast<net::Port>(40000 + i), 5001, 6};
    s.start = 100 * common::kMillisecond +
              static_cast<common::Timestamp>(i) * 5 * common::kMillisecond;
    pktgen::emit_tcp_session(s, collect);
  }
  return frames;
}

/// One seeded mutation of `f`: a byte flip inside the IPv4/TCP headers, a
/// truncation, or a false IPv4 total_length / ihl or TCP data_offset.
Frame mutate(const Frame& f, common::Rng& rng) {
  Frame m = f;
  fuzz::mutate_headers(m.bytes, rng);
  return m;
}

/// Each original frame followed by `per_frame` mutated copies.
std::vector<Frame> with_mutations(const std::vector<Frame>& frames,
                                  std::size_t per_frame, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Frame> out;
  for (const auto& f : frames) {
    out.push_back(f);
    for (std::size_t i = 0; i < per_frame; ++i) out.push_back(mutate(f, rng));
  }
  return out;
}

/// An emulated fabric with one flow-sampling monitor mirrored from both
/// ToRs, plus the chaos plan and drop ledger behind that monitor. Built identically for
/// the decode-once path and the decode-every-hop reference.
struct Fabric {
  Emulation emu = Emulation::make_small(4);
  common::MetricsRegistry registry;
  common::DropLedger ledger{registry};
  common::FaultPlan faults{7};
  std::vector<std::pair<std::string, std::vector<std::byte>>> batches;
  std::unique_ptr<nf::Monitor> monitor;

  explicit Fabric(bool decode_every_hop) {
    parsers::register_builtin_parsers();
    nf::MonitorConfig cfg;
    cfg.parsers = {{std::string(parsers::kHttpGet), 1},
                   {std::string(parsers::kTcpConnTime), 1}};
    cfg.output_batch_records = 4;
    cfg.sample_rate = 0.75;
    cfg.metrics = &registry;
    cfg.drop_ledger = &ledger;
    monitor = std::make_unique<nf::Monitor>(
        cfg, [this](std::string_view topic, std::vector<std::byte> payload,
                    const nf::BatchInfo&) {
          batches.emplace_back(std::string(topic), std::move(payload));
        });
    faults.arm(std::string(nf::kFaultRxOverflow), {.every_nth = 17});
    faults.arm(std::string(nf::kFaultParserThrow), {.every_nth = 13});
    monitor->install_faults(&faults);

    sdn::PortSink sink;
    if (decode_every_hop) {
      // The reference monitor re-decodes every mirrored frame.
      sink = [m = monitor.get()](const net::DecodedPacket& pkt) {
        m->process(pkt.frame, pkt.timestamp);
      };
    } else {
      sink = [m = monitor.get()](const net::DecodedPacket& pkt) { m->process(pkt); };
    }
    const auto tor_of = [this](const char* host) {
      return emu.topology().tor_of_host(*emu.node_of_name(host));
    };
    const dcn::NodeId client_tor = tor_of("h0");
    const dcn::NodeId server_tor = tor_of("h5");
    const auto client_port = emu.attach_monitor(client_tor, sink);
    const auto server_port = emu.attach_monitor(server_tor, sink);

    // Requests mirrored where they leave rack 0, responses and the TCP
    // connections where they cross rack 1.
    sdn::FlowMatch requests;
    requests.dst_port = 80;
    sdn::FlowMatch responses;
    responses.src_port = 80;
    sdn::FlowMatch conns;
    conns.dst_prefix = net::Ipv4Prefix{*emu.ip_of_name("h6"), 32};
    auto& ctrl = emu.controller();
    ctrl.install_mirror(Emulation::switch_id(client_tor), requests,
                        Emulation::kDeliveryPort, client_port, 10, 0);
    ctrl.install_mirror(Emulation::switch_id(server_tor), responses,
                        Emulation::kDeliveryPort, server_port, 10, 0);
    ctrl.install_mirror(Emulation::switch_id(server_tor), conns,
                        Emulation::kDeliveryPort, server_port, 10, 0);
  }
};

/// The fabric before decode-once: ingress decodes to route, then every
/// switch hop decodes the frame again from its bytes.
struct DecodeEveryHop {
  Fabric& fabric;
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;  // no decode or no IPv4 at ingress

  void hop(dcn::NodeId tor, std::span<const std::byte> frame,
           common::Timestamp ts) {
    auto fresh = net::decode_packet(frame);
    ASSERT_TRUE(fresh.has_value());  // ingress already decoded these bytes
    fresh->timestamp = ts;
    fabric.emu.switch_of_tor(tor).handle_packet(Emulation::kIngressPort, *fresh);
  }

  void transmit(std::span<const std::byte> frame, common::Timestamp ts) {
    const auto ingress = net::decode_packet(frame);
    if (!ingress || !ingress->has_ipv4) {
      ++rejected;
      return;
    }
    Emulation& emu = fabric.emu;
    const auto src_node = emu.node_of_ip(ingress->ipv4.src);
    const auto dst_node = emu.node_of_ip(ingress->ipv4.dst);
    std::optional<dcn::NodeId> src_tor, dst_tor;
    if (src_node) src_tor = emu.topology().tor_of_host(*src_node);
    if (dst_node) dst_tor = emu.topology().tor_of_host(*dst_node);
    if (src_tor) {
      hop(*src_tor, frame, ts);
      if (dst_tor && *dst_tor != *src_tor) hop(*dst_tor, frame, ts);
    } else if (dst_tor) {
      hop(*dst_tor, frame, ts);
    }
    if (dst_node) ++delivered;
  }
};

void expect_same_switches(Fabric& once, Fabric& every) {
  for (const auto tor : once.emu.topology().tor_switches()) {
    SCOPED_TRACE("tor " + std::to_string(tor));
    const auto& a = once.emu.switch_of_tor(tor).stats();
    const auto& b = every.emu.switch_of_tor(tor).stats();
    EXPECT_EQ(a.rx_packets, b.rx_packets);
    EXPECT_EQ(a.matched, b.matched);
    EXPECT_EQ(a.missed, b.missed);
    EXPECT_EQ(a.forwarded, b.forwarded);
    EXPECT_EQ(a.mirrored, b.mirrored);
    EXPECT_EQ(a.mirrored_bytes, b.mirrored_bytes);
    EXPECT_EQ(a.dropped, b.dropped);
    const auto& ra = once.emu.switch_of_tor(tor).table().rules();
    const auto& rb = every.emu.switch_of_tor(tor).table().rules();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].cookie, rb[i].cookie);
      EXPECT_EQ(ra[i].packet_count, rb[i].packet_count);
      EXPECT_EQ(ra[i].byte_count, rb[i].byte_count);
    }
  }
}

void expect_same_monitors(Fabric& once, Fabric& every) {
  const nf::MonitorStats a = once.monitor->stats();
  const nf::MonitorStats b = every.monitor->stats();
  EXPECT_EQ(a.rx_packets, b.rx_packets);
  EXPECT_EQ(a.rx_dropped, b.rx_dropped);
  EXPECT_EQ(a.decode_failed, b.decode_failed);
  EXPECT_EQ(a.sampled_out, b.sampled_out);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.parsed, b.parsed);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.record_bytes, b.record_bytes);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.parser_errors, b.parser_errors);
  EXPECT_TRUE(once.batches == every.batches);
  for (std::size_t c = 0; c < common::kDropCauseCount; ++c) {
    const auto cause = static_cast<common::DropCause>(c);
    EXPECT_EQ(once.ledger.value(cause), every.ledger.value(cause))
        << common::drop_cause_name(cause);
  }
}

/// Drive both fabrics with `frames`, ticking the monitors every 50 frames,
/// and require identical observations. Returns how many frames ingress
/// rejected.
std::uint64_t run_differential(const std::vector<Frame>& frames) {
  Fabric once(/*decode_every_hop=*/false);
  Fabric every(/*decode_every_hop=*/true);
  DecodeEveryHop reference{every};
  common::Timestamp last = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    once.emu.transmit(f.bytes, f.ts);
    reference.transmit(f.bytes, f.ts);
    last = std::max(last, f.ts);
    if (i % 50 == 49) {
      once.monitor->tick(last);
      every.monitor->tick(last);
    }
  }
  once.monitor->close(last + 1);
  every.monitor->close(last + 1);

  EXPECT_EQ(once.emu.transmitted_packets(), frames.size());
  EXPECT_EQ(once.emu.delivered_packets(), reference.delivered);
  expect_same_switches(once, every);
  expect_same_monitors(once, every);

  // The run exercised the paths the comparison is about.
  const nf::MonitorStats s = once.monitor->stats();
  EXPECT_GT(s.records, 0u);
  EXPECT_GT(s.rx_dropped, 0u);
  EXPECT_GT(s.sampled_out, 0u);
  EXPECT_GT(s.parser_errors, 0u);
  EXPECT_FALSE(once.batches.empty());
  return reference.rejected;
}

TEST(DecodeOnceDifferential, PktgenTrafficMatchesDecodeEveryHop) {
  const Emulation topo = Emulation::make_small(4);
  EXPECT_EQ(run_differential(pktgen_traffic(topo)), 0u);
}

TEST(DecodeOnceDifferential, MutatedTrafficMatchesDecodeEveryHop) {
  const Emulation topo = Emulation::make_small(4);
  const auto clean = pktgen_traffic(topo);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Some mutations must fail ingress (truncated below Ethernet, or a
    // broken IPv4 header) and never reach a switch.
    EXPECT_GT(run_differential(with_mutations(clean, 3, seed)), 0u);
  }
}

}  // namespace
}  // namespace netalytics::core
