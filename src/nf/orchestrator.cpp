#include "nf/orchestrator.hpp"

#include "common/logging.hpp"

namespace netalytics::nf {

std::string NfvOrchestrator::deploy(const std::string& host, MonitorConfig config,
                                    BatchSink sink) {
  std::string id = "mon-" + std::to_string(next_id_++) + "@" + host;
  auto monitor = std::make_unique<Monitor>(std::move(config), std::move(sink));
  common::log_info("nfv", "deploying monitor ", id);
  monitors_.emplace(id, Entry{host, std::move(monitor)});
  return id;
}

Monitor* NfvOrchestrator::find(const std::string& id) noexcept {
  const auto it = monitors_.find(id);
  return it == monitors_.end() ? nullptr : it->second.monitor.get();
}

bool NfvOrchestrator::undeploy(const std::string& id) {
  const auto it = monitors_.find(id);
  if (it == monitors_.end()) return false;
  common::log_info("nfv", "undeploying monitor ", id);
  monitors_.erase(it);
  return true;
}

void NfvOrchestrator::undeploy_all() {
  monitors_.clear();
}

std::vector<MonitorInfo> NfvOrchestrator::list() const {
  std::vector<MonitorInfo> out;
  out.reserve(monitors_.size());
  for (const auto& [id, entry] : monitors_) {
    MonitorInfo info;
    info.id = id;
    info.host = entry.host;
    for (const auto& spec : entry.monitor->config().parsers) {
      info.parser_names.push_back(spec.name);
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace netalytics::nf
