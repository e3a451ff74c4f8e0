// The federation orchestrator (docs/FEDERATION.md): owns N child engines —
// each with its own emulated fabric and traffic slice — their fault-
// injectable links, the streaming nodes on both ends, and the parent that
// merges the fleet. One pump(now) advances the whole federation one round
// in child-index order:
//
//   1. every child engine pumps (analytics side drains into results);
//   2. every ChildNode pumps (collects results, streams RECORDS/METRICS);
//   3. the parent pumps (applies frames, answers WELCOME/ACK);
//   4. every ChildNode flushes (processes the parent's replies).
//
// All four steps are deterministic functions of virtual time, traffic, and
// the FaultPlan, so a federated run is as reproducible as a single engine:
// same inputs -> byte-identical parent renders at any child worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.hpp"
#include "core/emulation.hpp"
#include "core/netalytics.hpp"
#include "fed/child.hpp"
#include "fed/link.hpp"
#include "fed/parent.hpp"

namespace netalytics::fed {

/// Conservation accounting for one child's stream at a pump boundary:
/// every record the child framed is either applied at the parent (below
/// the watermark), waiting in the replay buffer beyond it, or was shed by
/// replay-buffer overflow. `lost` is the parent-observed part of the shed
/// records (offset gaps); `overflow` is the child-side count, a
/// conservative upper bound — a shed frame the parent had already applied
/// (its ACK died with a connection) overflows without losing anything.
struct ChildReconcile {
  std::size_t child = 0;
  std::uint64_t results = 0;     // engine result tuples produced
  std::uint64_t streamed = 0;    // records framed into RECORDS frames
  std::uint64_t applied = 0;     // parent high watermark
  std::uint64_t pending = 0;     // replay records beyond the watermark
  std::uint64_t lost = 0;        // parent-observed offset gaps
  std::uint64_t overflow = 0;    // child-side replay overflow records
  std::uint64_t duplicates = 0;  // parent-discarded duplicate records

  /// streamed − applied − pending: records shed by overflow that the
  /// parent has not yet observed as a gap. 0 whenever overflow == 0.
  std::int64_t residual() const noexcept {
    return static_cast<std::int64_t>(streamed) -
           static_cast<std::int64_t>(applied + pending);
  }
  /// Exact delivery: everything framed is applied or pending, nothing was
  /// shed, and every engine result has been framed.
  bool exact() const noexcept {
    return residual() == 0 && lost == 0 && overflow == 0 &&
           streamed == results;
  }
};

struct FederationReconcile {
  std::vector<ChildReconcile> children;

  bool exact() const noexcept {
    for (const auto& c : children) {
      if (!c.exact()) return false;
    }
    return true;
  }
  /// One line per child plus a verdict line.
  std::string render() const;
};

class Federation {
 public:
  /// Builds the fleet: one Emulation + NetAlytics engine per child (the
  /// fault plan, when given, is installed on every emulation *before* its
  /// engine is constructed, and drives the links' "fed.link.<i>.*" sites).
  /// Throws std::invalid_argument on an invalid config. The plan is
  /// borrowed and must outlive the federation.
  explicit Federation(core::FederationConfig cfg,
                      common::FaultPlan* faults = nullptr);

  /// Submit the same query text to every child engine and start the
  /// streaming nodes. One query per federation (matching the differential
  /// oracle shape); resubmission is an error.
  common::Expected<void> submit(std::string_view query, common::Timestamp now);

  /// One federation round at `now` (see file comment for the order).
  void pump(common::Timestamp now);

  /// Pump at `from`, then keep pumping every core::kTickInterval until the
  /// fleet is quiescent — links drained, every child streaming with no
  /// unapplied backlog, and watermarks stable for a few rounds — or
  /// `max_rounds` is exhausted (armed outage windows are waited out).
  /// Returns the timestamp of the last pump.
  common::Timestamp settle(common::Timestamp from, std::size_t max_rounds = 64);

  /// Conservation accounting at the current pump boundary.
  FederationReconcile reconcile() const;

  /// Chaos: restart child i's streaming node — the connection drops and
  /// all node state (cursors, replay buffer, metric baseline) is lost, as
  /// in a process restart. The fresh node re-frames the engine's result
  /// stream from offset 0; the parent's watermark dedup makes that exact.
  void restart_child(std::size_t i, common::Timestamp now);

  // ---- component access ------------------------------------------------
  std::size_t children() const noexcept { return engines_.size(); }
  core::Emulation& emulation(std::size_t i) { return *emus_.at(i); }
  core::NetAlytics& engine(std::size_t i) { return *engines_.at(i); }
  const core::QueryHandle* query(std::size_t i) const {
    return queries_.at(i);
  }
  Link& link(std::size_t i) { return *links_.at(i); }
  ChildNode& child(std::size_t i) { return *nodes_.at(i); }
  ParentNode& parent() noexcept { return *parent_; }
  const ParentNode& parent() const noexcept { return *parent_; }
  const core::FederationConfig& config() const noexcept { return cfg_; }

  // Parent-side fleet views, re-exported for convenience.
  std::string render_top_k() const { return parent_->render_top_k(); }
  std::string export_metrics() const { return parent_->export_metrics(); }
  tsdb::RangeResult query_range(const tsdb::RangeQuery& q) const {
    return parent_->query_range(q);
  }

 private:
  bool quiescent_round() const;

  core::FederationConfig cfg_;
  common::FaultPlan* faults_ = nullptr;
  std::vector<std::unique_ptr<core::Emulation>> emus_;
  std::vector<std::unique_ptr<core::NetAlytics>> engines_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<const core::QueryHandle*> queries_;
  std::vector<std::unique_ptr<ChildNode>> nodes_;
  std::unique_ptr<ParentNode> parent_;
};

}  // namespace netalytics::fed
