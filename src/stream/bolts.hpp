// The composable analytic building blocks of Table 2 (top-k, max/min, sum,
// avg, diff, group) plus the plumbing bolts (parsing, filter, sink) that
// processors are assembled from. "System administrators can easily create
// more by combining the building blocks within these topologies in new
// ways" (§3.2).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "stream/topology.hpp"

namespace netalytics::stream {

/// Terminal bolt: forwards every input tuple to a callback (the query's
/// result interface).
class SinkBolt final : public Bolt {
 public:
  using Callback = std::function<void(Tuple&&)>;
  explicit SinkBolt(Callback callback) : callback_(std::move(callback)) {}
  void execute(Tuple&& input, Collector&) override {
    callback_(std::move(input));
  }

 private:
  Callback callback_;
};

/// Deserializes record batches (one tuple per mq message payload, emitted
/// by the Kafka spout) into one tuple per record:
/// [id:u64, ts:u64, <record fields...>].
class ParsingBolt final : public Bolt {
 public:
  void execute(Tuple&& input, Collector& out) override;
};

/// Drops tuples failing a predicate.
class FilterBolt final : public Bolt {
 public:
  using Predicate = std::function<bool(const Tuple&)>;
  explicit FilterBolt(Predicate pred) : pred_(std::move(pred)) {}
  void execute(Tuple&& input, Collector& out) override {
    if (pred_(input)) out.emit(std::move(input));
  }

 private:
  Predicate pred_;
};

/// Table 2 "diff": joins a start event and an end event sharing an id and
/// emits their timestamp difference. Input layout is the parsing-bolt
/// record layout; the event discriminator field says which side a tuple is.
struct DiffConfig {
  std::size_t id_index = 0;
  std::size_t ts_index = 1;
  std::size_t event_index = 2;
  std::string start_token = "start";
  std::string end_token = "end";
  /// Input value indices copied into the output after [id, diff_ns].
  std::vector<std::size_t> passthrough;
  std::size_t max_pending = 1 << 20;  // unmatched starts kept at most
};

class DiffBolt final : public Bolt {
 public:
  explicit DiffBolt(DiffConfig config) : config_(std::move(config)) {}
  /// Output: [id:u64, diff_ns:u64, passthrough... (from the start tuple)].
  void execute(Tuple&& input, Collector& out) override;

  std::size_t pending() const noexcept { return pending_.size(); }

  /// Account shed pending state (stream_window_eviction) in `ledger`.
  void set_drop_ledger(common::DropLedger* ledger) noexcept { ledger_ = ledger; }

 private:
  DiffConfig config_;
  std::unordered_map<std::uint64_t, Tuple> pending_;
  common::DropLedger* ledger_ = nullptr;
};

/// Appends a constant string to every tuple — used to mark which upstream
/// component a tuple came from when downstream bolts (join) must tell
/// sides apart (Storm exposes the source component on the tuple itself;
/// here the tag makes it explicit data).
class TagBolt final : public Bolt {
 public:
  explicit TagBolt(std::string tag) : tag_(std::move(tag)) {}
  void execute(Tuple&& input, Collector& out) override {
    input.values.emplace_back(tag_);
    out.emit(std::move(input));
  }

 private:
  std::string tag_;
};

/// Joins two streams by a shared u64 id (the record id both parsers derive
/// from the flow). Used by queries that combine parsers, e.g. grouping TCP
/// connection times by the HTTP page requested (§7.2). Emits
/// [id, left passthrough..., right passthrough...] once both sides arrive.
struct JoinConfig {
  std::size_t left_id_index = 0;
  std::size_t right_id_index = 0;
  std::vector<std::size_t> left_passthrough;
  std::vector<std::size_t> right_passthrough;
  /// Side detection. Default: a tuple is "left" when it has `left_arity`
  /// values (works when the two record layouts differ in width). With
  /// `by_tag`, the tuple's last value is a TagBolt marker compared against
  /// `left_tag` and stripped before the join (works always).
  std::size_t left_arity = 0;
  bool by_tag = false;
  std::string left_tag = "L";
  std::size_t max_pending = 1 << 20;
};

class JoinByIdBolt final : public Bolt {
 public:
  explicit JoinByIdBolt(JoinConfig config) : config_(std::move(config)) {}
  void execute(Tuple&& input, Collector& out) override;

  std::size_t pending() const noexcept {
    return pending_left_.size() + pending_right_.size();
  }

  /// Account shed pending state (stream_window_eviction) in `ledger`.
  void set_drop_ledger(common::DropLedger* ledger) noexcept { ledger_ = ledger; }

 private:
  void try_join(std::uint64_t id, Collector& out);

  JoinConfig config_;
  std::unordered_map<std::uint64_t, Tuple> pending_left_;
  std::unordered_map<std::uint64_t, Tuple> pending_right_;
  common::DropLedger* ledger_ = nullptr;
};

enum class AggOp { sum, avg, max, min, count };

/// Table 2 "group" + an aggregate: groups tuples by one or more value
/// indices and aggregates a numeric value index; emits per-group rows on
/// tick and cleanup: [group fields..., aggregate:f64, samples:u64].
struct GroupAggConfig {
  std::vector<std::size_t> group_indices;
  std::size_t value_index = 0;  // ignored for AggOp::count
  AggOp op = AggOp::avg;
  bool emit_on_tick = true;  // false: only emit at cleanup (final table)
  bool reset_after_emit = false;
};

class GroupAggBolt final : public Bolt {
 public:
  explicit GroupAggBolt(GroupAggConfig config) : config_(std::move(config)) {}

  void execute(Tuple&& input, Collector& out) override;
  void tick(common::Timestamp now, Collector& out) override;
  void cleanup(common::Timestamp now, Collector& out) override;

  /// Window-size gauge shared across parallel tasks: each task reports its
  /// group-count delta, so the gauge holds the total tracked groups.
  void set_window_gauge(common::Gauge* gauge) noexcept { window_gauge_ = gauge; }

 private:
  struct Agg {
    std::vector<Value> group_values;
    double sum = 0;
    double max = 0;
    double min = 0;
    std::uint64_t count = 0;
    // Max sampled trace id among the group's contributors: commutative, so
    // trace continuation is independent of arrival interleaving.
    std::uint64_t trace = 0;
  };
  void emit_groups(Collector& out);
  void report_window();

  GroupAggConfig config_;
  std::map<std::string, Agg> groups_;
  common::Gauge* window_gauge_ = nullptr;
  std::int64_t last_window_ = 0;
};

}  // namespace netalytics::stream
