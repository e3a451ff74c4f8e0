#include "stream/window.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace netalytics::stream {
namespace {

/// 32-bit tag of a key's bytes, eight bytes at a time (the last word may
/// overlap the one before it); the index derives a key's home position
/// from it.
std::uint32_t key_tag(std::string_view key) noexcept {
  const auto load64 = [](const char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  };
  const auto load32 = [](const char* p) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    return std::uint64_t{w};
  };
  const auto byte = [](char c) { return std::uint64_t{static_cast<unsigned char>(c)}; };
  const char* p = key.data();
  const std::size_t n = key.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  std::uint64_t last = 0;
  if (n >= 8) {
    for (; p + 8 < key.data() + n; p += 8) {
      h = (h ^ load64(p)) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 29;
    }
    last = load64(key.data() + n - 8);
  } else if (n >= 4) {
    last = load32(p) | load32(p + n - 4) << 32;
  } else if (n > 0) {
    last = byte(p[0]) | byte(p[n / 2]) << 8 | byte(p[n - 1]) << 16;
  }
  return static_cast<std::uint32_t>(common::mix64(h ^ last) >> 32);
}

std::uint32_t cell_id(std::uint64_t cell) noexcept {
  return static_cast<std::uint32_t>(cell & 0xffffffffU) - 1;
}

std::size_t cell_home(std::uint64_t cell, std::size_t mask) noexcept {
  return static_cast<std::size_t>(cell >> 32) & mask;
}

/// Rank order: count descending, then key ascending (deterministic
/// tie-break).
bool ranks_before(std::uint64_t count_a, std::string_view key_a,
                  std::uint64_t count_b, std::string_view key_b) noexcept {
  if (count_a != count_b) return count_a > count_b;
  return key_a < key_b;
}

bool ranks_before(const Rankings::Entry& a, const Rankings::Entry& b) noexcept {
  return ranks_before(a.count, a.key, b.count, b.key);
}

}  // namespace

RollingCounter::RollingCounter(std::size_t slots)
    : slots_(slots), stride_(kRing + slots) {
  if (slots == 0) throw std::invalid_argument("RollingCounter: slots must be > 0");
}

std::size_t RollingCounter::probe(std::string_view key,
                                  std::uint32_t tag) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const std::uint64_t cell = index_[i];
    if (cell == 0) return i;
    if ((cell >> 32) == tag && keys_[cell_id(cell)] == key) return i;
  }
}

void RollingCounter::incr(std::string_view key, std::uint64_t by,
                          std::uint64_t trace) {
  if (by == 0) return;
  const std::uint32_t tag = key_tag(key);
  if (index_.empty()) grow();
  std::size_t i = probe(key, tag);
  if (index_[i] == 0 && (live_ + 1) * 2 > index_.size()) {
    grow();
    i = probe(key, tag);
  }
  const std::uint32_t id = index_[i] != 0 ? cell_id(index_[i]) : insert(key, tag, i);
  std::uint64_t* r = row(id);
  r[kTotal] += by;
  r[kRing + head_] += by;
  r[kTrace] = std::max(r[kTrace], trace);
}

std::uint32_t RollingCounter::insert(std::string_view key, std::uint32_t tag,
                                     std::size_t at) {
  std::uint32_t id;
  if (free_head_ != 0) {
    id = free_head_ - 1;
    std::uint64_t* r = row(id);
    free_head_ = static_cast<std::uint32_t>(r[kTrace]);
    r[kTrace] = 0;
    keys_[id].assign(key);
  } else {
    id = static_cast<std::uint32_t>(keys_.size());
    keys_.emplace_back(key);
    cells_.resize(cells_.size() + stride_, 0);
  }
  index_[at] = (std::uint64_t{tag} << 32) | (std::uint64_t{id} + 1);
  ++live_;
  added_.push_back(id);
  return id;
}

void RollingCounter::grow() {
  std::vector<std::uint64_t> old(std::max<std::size_t>(8, index_.size() * 2), 0);
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const std::uint64_t cell : old) {
    if (cell == 0) continue;
    std::size_t i = cell_home(cell, mask);
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = cell;
  }
}

void RollingCounter::erase(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = key_tag(keys_[id]) & mask;
  while (cell_id(index_[hole]) != id) hole = (hole + 1) & mask;
  // Backward shift: each later cell of the probe run moves into the hole
  // unless the hole lies before its home, so no run is left broken.
  for (std::size_t j = (hole + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    if (((j - cell_home(index_[j], mask)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
  row(id)[kTrace] = free_head_;
  free_head_ = id + 1;
  --live_;
}

std::uint64_t RollingCounter::total(std::string_view key) const noexcept {
  if (index_.empty()) return 0;
  const std::uint64_t cell = index_[probe(key, key_tag(key))];
  return cell == 0 ? 0 : row(cell_id(cell))[kTotal];
}

void RollingCounter::advance() {
  head_ = (head_ + 1) % slots_;
  for (std::uint32_t id = 0; id < keys_.size(); ++id) {
    std::uint64_t* r = row(id);
    if (r[kTotal] == 0) continue;  // a free id
    r[kTotal] -= r[kRing + head_];
    r[kRing + head_] = 0;
    if (r[kTotal] == 0) erase(id);
  }
  const auto freed = [this](std::uint32_t id) { return row(id)[kTotal] == 0; };
  std::erase_if(order_, freed);
  std::erase_if(added_, freed);
}

void RollingCounter::merge_added() {
  if (added_.empty()) return;
  const auto by_key = [this](std::uint32_t a, std::uint32_t b) {
    return keys_[a] < keys_[b];
  };
  std::sort(added_.begin(), added_.end(), by_key);
  merged_.resize(order_.size() + added_.size());
  std::merge(order_.begin(), order_.end(), added_.begin(), added_.end(),
             merged_.begin(), by_key);
  order_.swap(merged_);
  added_.clear();
}

Rankings::Rankings(std::size_t k) : k_(k == 0 ? 1 : k) {}

void Rankings::update(std::string_view key, std::uint64_t count,
                      std::uint64_t trace) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.key == key; });
  if (it != entries_.end()) {
    it->count = count;
    it->trace = std::max(it->trace, trace);
  } else if (entries_.size() < k_) {
    entries_.push_back(Entry{std::string(key), count, trace});
    it = entries_.end() - 1;
  } else if (ranks_before(count, key, entries_.back().count, entries_.back().key)) {
    // Replaces the k-th entry, reusing its key buffer.
    it = entries_.end() - 1;
    it->key.assign(key);
    it->count = count;
    it->trace = trace;
  } else {
    return;  // would rank below the k-th entry and be trimmed at once
  }
  // Only `it` is out of place: move it up or down to its rank.
  while (it != entries_.begin() && ranks_before(*it, *(it - 1))) {
    std::swap(*it, *(it - 1));
    --it;
  }
  while (it + 1 != entries_.end() && ranks_before(*(it + 1), *it)) {
    std::swap(*it, *(it + 1));
    ++it;
  }
}

void Rankings::merge(const Rankings& other) {
  for (const auto& e : other.entries_) update(e.key, e.count, e.trace);
}

void Rankings::zero_counts() {
  for (auto& e : entries_) {
    e.count = 0;
    e.trace = 0;
  }
  // Restore the key order among the now-equal counts.
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
}

void Rankings::prune_zero_counts() {
  // Sorted by count descending, so the zero counts are the tail.
  const auto first_zero = std::find_if(entries_.begin(), entries_.end(),
                                       [](const Entry& e) { return e.count == 0; });
  entries_.erase(first_zero, entries_.end());
}

}  // namespace netalytics::stream
