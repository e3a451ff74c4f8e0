// The top-k topology bolts of Fig. 4: Parsing -> Counting (rolling counts,
// fields-grouped by key) -> intermediate Rankings -> global Rankings ->
// Database/Updater. This is the processor behind trending-content queries
// (§5.3, §7.3).
#pragma once

#include <functional>
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

  void execute(Tuple&& input, Collector&) override {
    ValueText buf;
    counter_.incr(format_value(input.at(key_index_), buf), 1, input.trace);
    report_window();
  }
  void tick(common::Timestamp, Collector& out) override {
    // Trace continuation: a windowed emission carries the max sampled
    // trace id among its contributors (RollingCounter::incr).
    counter_.for_each_sorted([&out](const RollingCounter::Entry& e) {
      // Built in place: a braced value list would copy the key twice.
      Tuple t{{}, e.trace};
      t.values.reserve(2);
      t.values.emplace_back(std::in_place_type<std::string>, e.key);
      t.values.emplace_back(e.total);
      out.emit(std::move(t));
    });
    const std::size_t before = counter_.key_count();
    counter_.advance();
    const std::size_t after = counter_.key_count();
    if (after < before && ledger_ != nullptr) {
      ledger_->add(common::DropCause::stream_window_eviction, before - after);
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
    if (current == last_window_) return;
    if (window_gauge_ != nullptr) window_gauge_->add(current - last_window_);
    last_window_ = current;
  }

  std::size_t key_index_;
  RollingCounter counter_;
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

  void execute(Tuple&& input, Collector&) override {
    rankings_.update(as_str(input.at(0)), as_u64(input.at(1)), input.trace);
  }
  void tick(common::Timestamp, Collector& out) override {
    rankings_.prune_zero_counts();
    for (const auto& e : rankings_.entries()) {
      out.emit(Tuple{{e.key, std::uint64_t{e.count}}, e.trace});
    }
    rankings_.zero_counts();
  }

 private:
  Rankings rankings_;
};

/// Global top-k (global-grouped): merges local rankings and emits the final
/// ordered list on tick as [rank:u64, key:str, count:u64]. Rebuilt from
/// each tick's local rankings, like IntermediateRankingsBolt.
class TotalRankingsBolt final : public Bolt {
 public:
  explicit TotalRankingsBolt(std::size_t k) : rankings_(k) {}

  void execute(Tuple&& input, Collector&) override {
    rankings_.update(as_str(input.at(0)), as_u64(input.at(1)), input.trace);
  }
  void tick(common::Timestamp, Collector& out) override {
    rankings_.prune_zero_counts();
    std::uint64_t rank = 1;
    for (const auto& e : rankings_.entries()) {
      out.emit(Tuple{{std::uint64_t{rank++}, e.key, std::uint64_t{e.count}}, e.trace});
    }
    rankings_.zero_counts();
  }

 private:
  Rankings rankings_;
};

/// Stores the rolling top-k into the KV store (Redis substitute): hash
/// "topk" maps key -> count, and "topk:rank:<n>" holds the ordered list
/// (§7.3: "store the URLs of the most popular content into a Redis
/// in-memory data store"). Forwards its input unchanged.
class DatabaseBolt final : public Bolt {
 public:
  explicit DatabaseBolt(KvStore& store) : store_(store) {}
  void execute(Tuple&& input, Collector& out) override;

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

  void execute(Tuple&& input, Collector&) override;
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
