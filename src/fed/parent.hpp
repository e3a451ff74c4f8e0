// The parent side of federation streaming (docs/FEDERATION.md): terminates
// every child's frame stream, deduplicates RECORDS by record offset against
// a per-child high watermark, max-merges METRICS into a fleet-prefixed
// registry ("fleet.child<i>.<series>"), and runs the global topology — a
// fan-in top-k over all children's result records — plus the fleet's
// historical store, so export_metrics()/query_range() see the whole fleet
// through the same read APIs a single engine offers.
//
// Determinism: pump() walks children in child-index order and applies each
// child's frames in arrival order (the Link preserves per-connection
// ordering), so parent state is a pure function of the per-child byte
// streams — byte-identical renders across runs and across child
// executor worker counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "fed/link.hpp"
#include "fed/wire.hpp"
#include "obs/export.hpp"
#include "stream/fanin.hpp"
#include "tsdb/store.hpp"

namespace netalytics::fed {

struct ParentConfig {
  std::size_t children = 2;
  /// Global fan-in top-k size.
  std::size_t top_k = 10;
  /// Record-field index the fan-in counts keys from.
  std::size_t key_field = 0;
  /// Prometheus export options for the fleet exposition.
  obs::ExportOptions export_options{};
};

/// Parent-side per-child accounting. `applied` is the protocol high
/// watermark: records durably applied, in offset order, no gaps except
/// those charged to `lost_records` (child replay-buffer overflow).
struct ParentChildStats {
  bool connected = false;          // handshake completed, not departed
  std::string node_name;
  std::uint64_t applied = 0;       // record high watermark
  std::uint64_t duplicate_records = 0;  // replayed below the watermark
  std::uint64_t lost_records = 0;  // offset gaps (child replay overflow)
  std::uint64_t record_frames = 0;
  std::uint64_t metrics_frames = 0;
  std::uint64_t handshakes = 0;    // WELCOMEs sent
  std::uint64_t refused = 0;       // HELLOs rejected (magic/version/index)
  std::uint64_t malformed_frames = 0;  // frames that failed to decode
  std::uint64_t byes = 0;
};

class ParentNode {
 public:
  /// `links[i]` is child i's duplex link; all must outlive the node.
  ParentNode(std::vector<Link*> links, ParentConfig cfg);

  /// One fan-in round: for each child in index order, drain its link,
  /// apply complete frames (handshakes, metrics, records), and answer with
  /// WELCOME/ACK. Then capture the fleet registry into the store at `now`.
  void pump(common::Timestamp now);

  // ---- global result interface ----------------------------------------
  /// Global top-k over every child's applied records, merged in
  /// child-index order.
  std::string render_top_k() const { return fanin_.render(); }
  const stream::FanInTopK& top_k() const noexcept { return fanin_; }

  /// Applied records of one child, in offset order.
  const std::vector<nf::Record>& records(std::size_t child) const {
    return slots_.at(child).records;
  }
  /// Every applied record, children concatenated in index order.
  std::vector<nf::Record> all_records() const;
  std::uint64_t total_records_applied() const noexcept;

  /// Prometheus text exposition of the fleet registry (fleet.child<i>.*
  /// series; the exporter lifts child<i> into a child="i" label).
  std::string export_metrics() const;
  /// Historical range query over the fleet store, merged with the live
  /// fleet registry head (same semantics as NetAlytics::query_range).
  tsdb::RangeResult query_range(const tsdb::RangeQuery& q) const;

  const common::MetricsRegistry& metrics() const noexcept { return registry_; }
  const tsdb::TieredStore& store() const noexcept { return store_; }
  const ParentChildStats& child_stats(std::size_t child) const {
    return slots_.at(child).stats;
  }
  const ParentConfig& config() const noexcept { return cfg_; }

 private:
  struct Slot {
    Link* link = nullptr;
    FrameParser parser;
    std::uint64_t seen_connects = 0;  // link epoch; reset parser on change
    std::uint64_t last_acked = 0;     // watermark last sent in an ACK
    std::vector<nf::Record> records;
    ParentChildStats stats;
  };

  /// Apply one frame. Throws std::out_of_range, before touching any
  /// state it keeps, when the payload does not decode; pump() rejects it.
  void apply_frame(std::size_t child, const Frame& frame,
                   common::Timestamp now);
  /// Count a malformed frame (ParentChildStats::malformed_frames and the
  /// fleet series "fleet.child<i>.parent.malformed_frames") and drop the
  /// link under the RST rules, discarding any bytes buffered behind it.
  void reject_malformed(std::size_t child);
  void apply_records(std::size_t child, const RecordsFrameView& rf);
  void apply_metrics(std::size_t child, const MetricsFrame& mf);

  ParentConfig cfg_;
  std::vector<Slot> slots_;
  stream::FanInTopK fanin_;
  common::MetricsRegistry registry_;  // fleet.child<i>.* series
  tsdb::TieredStore store_;
  common::Timestamp now_ = 0;
};

}  // namespace netalytics::fed
