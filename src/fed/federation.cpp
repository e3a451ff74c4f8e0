#include "fed/federation.hpp"

#include <stdexcept>
#include <utility>

namespace netalytics::fed {

namespace {

ChildConfig child_config(const core::FederationConfig& cfg, std::size_t i) {
  return ChildConfig{.index = static_cast<std::uint32_t>(i),
                     .name = "child" + std::to_string(i),
                     .replay_capacity = cfg.replay_capacity,
                     .records_per_frame = cfg.records_per_frame};
}

}  // namespace

Federation::Federation(core::FederationConfig cfg, common::FaultPlan* faults)
    : cfg_(std::move(cfg)), faults_(faults) {
  if (auto ok = cfg_.validate(); !ok) {
    throw std::invalid_argument(ok.error().to_string());
  }
  std::vector<Link*> links;
  for (std::size_t i = 0; i < cfg_.children; ++i) {
    emus_.push_back(std::make_unique<core::Emulation>(
        core::Emulation::make_small(cfg_.hosts_per_rack)));
    // Chaos plumbing must precede engine construction (core/emulation.hpp).
    if (faults_ != nullptr) emus_.back()->install_faults(faults_);
    engines_.push_back(
        std::make_unique<core::NetAlytics>(*emus_.back(), cfg_.child_engine));
    links_.push_back(std::make_unique<Link>(
        LinkConfig{.child_index = static_cast<std::uint32_t>(i),
                   .fault_prefix = {}},
        faults_));
    links.push_back(links_.back().get());
  }
  parent_ = std::make_unique<ParentNode>(
      std::move(links), ParentConfig{.children = cfg_.children,
                                     .top_k = cfg_.top_k,
                                     .key_field = cfg_.key_field,
                                     .export_options = cfg_.parent_export});
}

common::Expected<void> Federation::submit(std::string_view query,
                                          common::Timestamp now) {
  if (!nodes_.empty()) {
    return common::Error{"fed", "federation already has a running query"};
  }
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    auto handle = engines_[i]->submit(query, now);
    if (!handle) return handle.error();
    queries_.push_back(*handle);
    nodes_.push_back(std::make_unique<ChildNode>(
        *engines_[i], **handle, *links_[i], child_config(cfg_, i)));
  }
  return {};
}

void Federation::pump(common::Timestamp now) {
  for (auto& engine : engines_) engine->pump(now);
  for (auto& node : nodes_) node->pump(now);
  parent_->pump(now);
  for (auto& node : nodes_) node->flush(now);
}

common::Timestamp Federation::settle(common::Timestamp from,
                                     std::size_t max_rounds) {
  common::Timestamp t = from;
  std::size_t stable = 0;
  std::uint64_t prev_fingerprint = ~std::uint64_t{0};
  for (std::size_t round = 0; round < max_rounds; ++round) {
    pump(t);
    std::uint64_t fingerprint = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      fingerprint = fingerprint * 1000003 + parent_->child_stats(i).applied;
      fingerprint = fingerprint * 1000003 + nodes_[i]->next_offset();
    }
    stable = quiescent_round() && fingerprint == prev_fingerprint ? stable + 1
                                                                  : 0;
    prev_fingerprint = fingerprint;
    // Three consecutive unchanged quiescent rounds: nothing is still
    // draining anywhere in the pipeline (engine, link, or replay buffer).
    if (stable >= 3) return t;
    t += core::kTickInterval;
  }
  return t;
}

bool Federation::quiescent_round() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ChildNode& node = *nodes_[i];
    if (!node.streaming()) return false;
    if (links_[i]->frames_in_flight_up() != 0) return false;
    if (node.pending_records_beyond(parent_->child_stats(i).applied) != 0) {
      return false;
    }
  }
  return true;
}

FederationReconcile Federation::reconcile() const {
  FederationReconcile report;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ChildNode& node = *nodes_[i];
    const ParentChildStats& ps = parent_->child_stats(i);
    ChildReconcile c;
    c.child = i;
    c.results = queries_[i]->results().size();
    c.streamed = node.next_offset();
    c.applied = ps.applied;
    c.pending = node.pending_records_beyond(ps.applied);
    c.lost = ps.lost_records;
    c.overflow = node.stats().replay_overflow_records;
    c.duplicates = ps.duplicate_records;
    report.children.push_back(c);
  }
  return report;
}

void Federation::restart_child(std::size_t i, common::Timestamp now) {
  if (i >= nodes_.size()) throw std::out_of_range("Federation::restart_child");
  links_.at(i)->drop();
  nodes_[i] = std::make_unique<ChildNode>(*engines_[i], *queries_[i],
                                          *links_[i], child_config(cfg_, i));
  // The fresh node attempts its first connect on the next pump; backoff
  // state restarts too, exactly like a new process. `now` only documents
  // when the restart happened.
  (void)now;
}

std::string FederationReconcile::render() const {
  std::string out;
  for (const auto& c : children) {
    out += "child" + std::to_string(c.child);
    out += " results=" + std::to_string(c.results);
    out += " streamed=" + std::to_string(c.streamed);
    out += " applied=" + std::to_string(c.applied);
    out += " pending=" + std::to_string(c.pending);
    out += " lost=" + std::to_string(c.lost);
    out += " overflow=" + std::to_string(c.overflow);
    out += " duplicates=" + std::to_string(c.duplicates);
    out += " residual=" + std::to_string(c.residual());
    out += '\n';
  }
  out += exact() ? "exact\n" : "INEXACT\n";
  return out;
}

}  // namespace netalytics::fed
