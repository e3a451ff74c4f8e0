#include "sdn/switch.hpp"

#include "common/logging.hpp"

namespace netalytics::sdn {

SdnSwitch::SdnSwitch(SwitchId id, std::size_t table_capacity)
    : id_(id), table_(table_capacity) {}

void SdnSwitch::connect_port(std::uint32_t port, PortSink sink) {
  ports_[port] = std::move(sink);
}

void SdnSwitch::handle_packet(std::uint32_t in_port,
                              const net::DecodedPacket& pkt) {
  ++stats_.rx_packets;
  FlowRule* rule = table_.lookup(pkt, in_port);
  if (rule != nullptr) {
    ++stats_.matched;
    ++rule->packet_count;
    rule->byte_count += pkt.frame.size();
    run_actions(rule->actions, pkt);
    return;
  }

  ++stats_.missed;
  if (handler_ == nullptr) {
    ++stats_.dropped;
    return;
  }
  PacketIn event;
  event.switch_id = id_;
  event.in_port = in_port;
  event.timestamp = pkt.timestamp;
  event.packet = pkt;
  run_actions(handler_->on_packet_in(event), pkt);
}

std::optional<std::uint64_t> SdnSwitch::apply(const FlowMod& mod,
                                              common::Timestamp now) {
  if (mod.command == FlowMod::Command::add) {
    return table_.install(mod.rule, now);
  }
  return table_.remove(mod.cookie) ? std::optional<std::uint64_t>{1} : std::nullopt;
}

void SdnSwitch::run_actions(const ActionList& actions,
                            const net::DecodedPacket& pkt) {
  if (actions.empty()) {
    ++stats_.dropped;
    return;
  }
  for (const auto& action : actions) {
    std::visit(
        [&](const auto& act) {
          using T = std::decay_t<decltype(act)>;
          if constexpr (std::is_same_v<T, OutputAction>) {
            const auto it = ports_.find(act.port);
            if (it != ports_.end()) {
              ++stats_.forwarded;
              it->second(pkt);
            } else {
              ++stats_.dropped;
            }
          } else if constexpr (std::is_same_v<T, MirrorAction>) {
            const auto it = ports_.find(act.port);
            if (it != ports_.end()) {
              ++stats_.mirrored;
              stats_.mirrored_bytes += pkt.frame.size();
              it->second(pkt);
            }
            // A missing monitor port silently drops the copy: mirroring
            // must never break normal delivery.
          } else if constexpr (std::is_same_v<T, DropAction>) {
            ++stats_.dropped;
          } else {
            // ToControllerAction inside a rule is not used by NetAlytics;
            // the reactive path goes through table misses instead.
          }
        },
        action);
  }
}

}  // namespace netalytics::sdn
