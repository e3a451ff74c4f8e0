// NFV orchestrator (§3.4): instantiates monitors "exactly when and where
// they are needed". In this in-process reproduction the orchestrator owns
// Monitor instances tagged with the host they are placed on; the core layer
// asks it to deploy/undeploy per query.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nf/monitor.hpp"

namespace netalytics::nf {

struct MonitorInfo {
  std::string id;
  std::string host;
  std::vector<std::string> parser_names;
};

class NfvOrchestrator {
 public:
  /// Instantiate a monitor on `host`; returns its id ("mon-<n>@<host>").
  std::string deploy(const std::string& host, MonitorConfig config, BatchSink sink);

  /// Look up a deployed monitor; nullptr if unknown.
  Monitor* find(const std::string& id) noexcept;

  /// Destroy a monitor. Returns false if unknown.
  bool undeploy(const std::string& id);

  /// Destroy every monitor (end of query / shutdown).
  void undeploy_all();

  std::vector<MonitorInfo> list() const;
  std::size_t count() const noexcept { return monitors_.size(); }

 private:
  struct Entry {
    std::string host;
    std::unique_ptr<Monitor> monitor;
  };
  std::map<std::string, Entry> monitors_;
  std::size_t next_id_ = 0;
};

}  // namespace netalytics::nf
