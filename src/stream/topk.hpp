// The top-k topology bolts of Fig. 4: Parsing -> Counting (rolling counts,
// fields-grouped by key) -> intermediate Rankings -> global Rankings ->
// Database/Updater. This is the processor behind trending-content queries
// (§5.3, §7.3).
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "stream/kvstore.hpp"
#include "stream/topology.hpp"
#include "stream/window.hpp"

namespace netalytics::stream {

/// Rolling count per key. Emits [key:str, count:u64] for every windowed key
/// on tick, then advances the window slot.
class CountingBolt final : public Bolt {
 public:
  /// `key_index`: which input value is the counted key. `slots`: window
  /// slots retained (Storm's rolling-count "window length / emit period").
  CountingBolt(std::size_t key_index, std::size_t slots)
      : key_index_(key_index), counter_(slots) {}

  void execute(const Tuple& input, Collector&) override {
    const std::string key = format_value(input.at(key_index_));
    counter_.incr(key);
    if (input.trace != 0) {
      // Trace continuation: a windowed emission inherits the max sampled
      // trace id among its contributors — max is commutative, so the
      // choice is independent of tuple arrival interleaving.
      auto& t = trace_of_[key];
      t = std::max(t, input.trace);
    }
    report_window();
  }
  void tick(common::Timestamp, Collector& out) override {
    for (const auto& [key, count] : counter_.totals()) {
      const auto it = trace_of_.find(key);
      out.emit(Tuple{{key, std::uint64_t{count}},
                     it != trace_of_.end() ? it->second : 0});
    }
    const std::size_t before = counter_.key_count();
    counter_.advance();
    const std::size_t after = counter_.key_count();
    if (after < before && ledger_ != nullptr) {
      ledger_->add(common::DropCause::stream_window_eviction, before - after);
    }
    const auto live = counter_.totals();
    for (auto it = trace_of_.begin(); it != trace_of_.end();) {
      it = live.count(it->first) != 0 ? std::next(it) : trace_of_.erase(it);
    }
    report_window();
  }

  /// Window-size gauge shared across parallel tasks: each task reports its
  /// key-count delta, so the gauge holds the total tracked keys.
  void set_window_gauge(common::Gauge* gauge) noexcept { window_gauge_ = gauge; }

  /// Account keys aged out of the rolling window (stream_window_eviction).
  void set_drop_ledger(common::DropLedger* ledger) noexcept { ledger_ = ledger; }

 private:
  void report_window() {
    const auto current = static_cast<std::int64_t>(counter_.key_count());
    if (window_gauge_ != nullptr) window_gauge_->add(current - last_window_);
    last_window_ = current;
  }

  std::size_t key_index_;
  RollingCounter counter_;
  std::map<std::string, std::uint64_t> trace_of_;  // key -> max sampled trace
  common::Gauge* window_gauge_ = nullptr;
  common::DropLedger* ledger_ = nullptr;
  std::int64_t last_window_ = 0;
};

/// Local top-k over [key, count] updates; emits its rankings on tick as
/// [key:str, count:u64] rows (the parallel-reduction step of §5.3).
///
/// Both rankers rank only the latest refresh: CountingBolt re-emits every
/// key still in its window on each tick, and each ranker re-emits its
/// whole top-k, so a key that aged out of the window (or out of a local
/// top-k) is absent from the next refresh and is pruned before the
/// ranking is emitted. Kept, it would stay ranked with its last count
/// until k other keys pushed it out.
class IntermediateRankingsBolt final : public Bolt {
 public:
  explicit IntermediateRankingsBolt(std::size_t k) : rankings_(k) {}

  void execute(const Tuple& input, Collector&) override {
    const std::string key = as_str(input.at(0));
    rankings_.update(key, as_u64(input.at(1)));
    if (input.trace != 0) {
      auto& t = trace_of_[key];
      t = std::max(t, input.trace);
    }
  }
  void tick(common::Timestamp, Collector& out) override {
    rankings_.prune_zero_counts();
    for (const auto& e : rankings_.entries()) {
      const auto it = trace_of_.find(e.key);
      out.emit(Tuple{{e.key, std::uint64_t{e.count}},
                     it != trace_of_.end() ? it->second : 0});
    }
    rankings_.zero_counts();
    trace_of_.clear();
  }

 private:
  Rankings rankings_;
  std::map<std::string, std::uint64_t> trace_of_;  // key -> max sampled trace
};

/// Global top-k (global-grouped): merges local rankings and emits the final
/// ordered list on tick as [rank:u64, key:str, count:u64]. Rebuilt from
/// each tick's local rankings, like IntermediateRankingsBolt.
class TotalRankingsBolt final : public Bolt {
 public:
  explicit TotalRankingsBolt(std::size_t k) : rankings_(k) {}

  void execute(const Tuple& input, Collector&) override {
    const std::string key = as_str(input.at(0));
    rankings_.update(key, as_u64(input.at(1)));
    if (input.trace != 0) {
      auto& t = trace_of_[key];
      t = std::max(t, input.trace);
    }
  }
  void tick(common::Timestamp, Collector& out) override {
    rankings_.prune_zero_counts();
    std::uint64_t rank = 1;
    for (const auto& e : rankings_.entries()) {
      const auto it = trace_of_.find(e.key);
      out.emit(Tuple{{std::uint64_t{rank++}, e.key, std::uint64_t{e.count}},
                     it != trace_of_.end() ? it->second : 0});
    }
    rankings_.zero_counts();
    trace_of_.clear();
  }

 private:
  Rankings rankings_;
  std::map<std::string, std::uint64_t> trace_of_;  // key -> max sampled trace
};

/// Stores the rolling top-k into the KV store (Redis substitute): hash
/// "topk" maps key -> count, and "topk:rank:<n>" holds the ordered list
/// (§7.3: "store the URLs of the most popular content into a Redis
/// in-memory data store"). Forwards its input unchanged.
class DatabaseBolt final : public Bolt {
 public:
  explicit DatabaseBolt(KvStore& store) : store_(store) {}
  void execute(const Tuple& input, Collector& out) override;

 private:
  KvStore& store_;
};

/// Drives automation (§7.3): fires scale-up when a key's frequency crosses
/// the upper threshold and scale-down when the whole top-k stays below the
/// lower one, with a backoff so rolling counts don't thrash the pool.
struct UpdaterConfig {
  std::uint64_t upper_threshold = 1000;
  std::uint64_t lower_threshold = 100;
  common::Duration backoff = 5 * common::kSecond;
};

class UpdaterBolt final : public Bolt {
 public:
  using ScaleCallback = std::function<void(const std::string& key, std::uint64_t count)>;

  UpdaterBolt(UpdaterConfig config, ScaleCallback on_scale_up,
              ScaleCallback on_scale_down)
      : config_(config),
        on_scale_up_(std::move(on_scale_up)),
        on_scale_down_(std::move(on_scale_down)) {}

  void execute(const Tuple& input, Collector&) override;
  void tick(common::Timestamp now, Collector&) override;

 private:
  UpdaterConfig config_;
  ScaleCallback on_scale_up_;
  ScaleCallback on_scale_down_;
  std::uint64_t window_peak_ = 0;
  std::string peak_key_;
  common::Timestamp next_allowed_action_ = 0;
};

}  // namespace netalytics::stream
