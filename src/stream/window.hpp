// Rolling-window primitives for the counting/ranking bolts, after the
// storm-starter "Rolling Top Words" lineage the paper's top-k topology
// extends (§5.3): a slot-based counter tracks per-key counts over the last
// N window slots, and Rankings keeps the k largest (key, count) pairs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace netalytics::stream {

/// Per-key counter over a circular window of slots. Advancing the window
/// zeroes the oldest slot, so totals always cover the last `slots` windows.
class RollingCounter {
 public:
  explicit RollingCounter(std::size_t slots);

  void incr(const std::string& key, std::uint64_t by = 1);

  /// Totals over the whole window.
  std::map<std::string, std::uint64_t> totals() const;

  /// Advance to the next slot, zeroing what it previously held and dropping
  /// keys whose total became zero.
  void advance();

  std::size_t slots() const noexcept { return slots_; }
  std::size_t key_count() const noexcept { return counts_.size(); }

 private:
  std::size_t slots_;
  std::size_t head_ = 0;
  std::map<std::string, std::vector<std::uint64_t>> counts_;
};

/// Top-k rankings by count, descending. update() is an upsert with the
/// key's latest total (not an increment).
class Rankings {
 public:
  explicit Rankings(std::size_t k);

  void update(const std::string& key, std::uint64_t count);
  void merge(const Rankings& other);

  /// Refresh cycle for rankers fed every live key's total once per tick:
  /// zero_counts() after emitting marks every entry stale while keeping
  /// its key, update() revives the keys the next refresh carries, and
  /// prune_zero_counts() before emitting drops the keys it did not.
  void zero_counts();
  void prune_zero_counts();

  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    bool operator==(const Entry&) const = default;
  };

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  std::size_t max_size() const noexcept { return k_; }

 private:
  void sort_and_trim();

  std::size_t k_;
  std::vector<Entry> entries_;
};

}  // namespace netalytics::stream
