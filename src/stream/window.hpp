// Rolling-window primitives for the counting/ranking bolts, after the
// storm-starter "Rolling Top Words" lineage the paper's top-k topology
// extends (§5.3): a slot-based counter tracks per-key counts over the last
// N window slots, and Rankings keeps the k largest (key, count) pairs.
//
// RollingCounter is an open-addressing slot table. An index of 64-bit
// cells (linear probing, backward-shift deletion, doubled at half load)
// points at stable entry ids. An entry owns its key bytes and one flat row
// of cells, [total, trace, slot 0 .. slot N-1]: the running window total,
// the max sampled trace id among the key's contributors, and the slot
// ring. Counting a key already in the table allocates nothing; advance()
// subtracts the reused slot from every total and frees the entries that
// reach zero, also without allocating. The key order of the last
// for_each_sorted() is kept, so a tick sorts only the keys added since and
// merges them in. Rankings entries carry their trace id too (max within a
// refresh), so no bolt keeps a side map from key to trace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace netalytics::stream {

/// Per-key counter over a circular window of slots. Advancing the window
/// zeroes the oldest slot, so totals always cover the last `slots` windows.
class RollingCounter {
 public:
  explicit RollingCounter(std::size_t slots);

  /// Count `by` against `key` in the current slot. A nonzero `trace` is
  /// kept if it is the largest seen for the key while the key stays in the
  /// window: max is commutative, so the trace a key reports does not
  /// depend on the order its tuples arrived in. A zero `by` is ignored.
  void incr(std::string_view key, std::uint64_t by = 1, std::uint64_t trace = 0);

  /// Window total for `key`; 0 when the key is not in the window.
  std::uint64_t total(std::string_view key) const noexcept;

  struct Entry {
    std::string_view key;
    std::uint64_t total;
    std::uint64_t trace;
  };

  /// Calls fn(const Entry&) for every key in the window, in ascending key
  /// order. The views are valid until the next incr() or advance().
  template <typename Fn>
  void for_each_sorted(Fn&& fn) {
    merge_added();
    // Key order is random with respect to id order, and a tick finds the
    // table cold: fetch a few entries ahead (the string object first, then
    // the bytes it points to).
    const std::size_t n = order_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 2 * kAhead < n) __builtin_prefetch(&keys_[order_[i + 2 * kAhead]]);
      if (i + kAhead < n) {
        __builtin_prefetch(row(order_[i + kAhead]));
        __builtin_prefetch(keys_[order_[i + kAhead]].data());
      }
      const std::uint32_t id = order_[i];
      const std::uint64_t* r = row(id);
      fn(Entry{keys_[id], r[kTotal], r[kTrace]});
    }
  }

  /// Advance to the next slot, zeroing what it previously held and dropping
  /// keys whose total became zero.
  void advance();

  std::size_t slots() const noexcept { return slots_; }
  std::size_t key_count() const noexcept { return live_; }

 private:
  // Row layout: total, trace (the next free id + 1 while the id is free),
  // then the slot ring.
  static constexpr std::size_t kTotal = 0;
  static constexpr std::size_t kTrace = 1;
  static constexpr std::size_t kRing = 2;
  static constexpr std::size_t kAhead = 8;  // for_each_sorted prefetch distance

  std::uint64_t* row(std::uint32_t id) noexcept { return &cells_[id * stride_]; }
  const std::uint64_t* row(std::uint32_t id) const noexcept {
    return &cells_[id * stride_];
  }
  /// Index position holding `key`, or the empty cell ending its probe.
  std::size_t probe(std::string_view key, std::uint32_t tag) const noexcept;
  /// New entry for `key`, indexed at the empty cell `at`.
  std::uint32_t insert(std::string_view key, std::uint32_t tag, std::size_t at);
  void grow();
  void erase(std::uint32_t id);
  void merge_added();

  std::size_t slots_;
  std::size_t stride_;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  /// Open-addressing index: 0 = empty, else (tag << 32) | (id + 1). A
  /// cell's home position is tag & mask, so growth and backward shifts
  /// never rehash a key.
  std::vector<std::uint64_t> index_;
  std::vector<std::string> keys_;     // by id; a freed id keeps its buffer
  std::vector<std::uint64_t> cells_;  // by id, stride_ cells per row
  std::uint32_t free_head_ = 0;       // first free id + 1; 0 = none
  std::vector<std::uint32_t> order_;  // live ids in key order
  std::vector<std::uint32_t> added_;  // ids inserted since the last merge
  std::vector<std::uint32_t> merged_;  // merge buffer, swapped with order_
};

/// Top-k rankings by count, descending. update() is an upsert with the
/// key's latest total (not an increment).
class Rankings {
 public:
  explicit Rankings(std::size_t k);

  /// Upsert `key`'s count; the key is copied only when it enters the
  /// rankings. The entry keeps the max nonzero `trace` since the last
  /// zero_counts().
  void update(std::string_view key, std::uint64_t count, std::uint64_t trace = 0);
  void merge(const Rankings& other);

  /// Refresh cycle for rankers fed every live key's total once per tick:
  /// zero_counts() after emitting marks every entry stale (count and trace
  /// 0) while keeping its key, update() revives the keys the next refresh
  /// carries, and prune_zero_counts() before emitting drops the keys it
  /// did not.
  void zero_counts();
  void prune_zero_counts();

  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    std::uint64_t trace = 0;
    bool operator==(const Entry&) const = default;
  };

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  std::size_t max_size() const noexcept { return k_; }

 private:
  std::size_t k_;
  std::vector<Entry> entries_;
};

}  // namespace netalytics::stream
