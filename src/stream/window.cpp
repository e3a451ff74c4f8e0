#include "stream/window.hpp"

#include <algorithm>
#include <stdexcept>

namespace netalytics::stream {

RollingCounter::RollingCounter(std::size_t slots) : slots_(slots) {
  if (slots == 0) throw std::invalid_argument("RollingCounter: slots must be > 0");
}

void RollingCounter::incr(const std::string& key, std::uint64_t by) {
  auto it = counts_.find(key);
  if (it == counts_.end()) {
    it = counts_.emplace(key, std::vector<std::uint64_t>(slots_, 0)).first;
  }
  it->second[head_] += by;
}

std::map<std::string, std::uint64_t> RollingCounter::totals() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, slots] : counts_) {
    std::uint64_t total = 0;
    for (const auto v : slots) total += v;
    if (total > 0) out.emplace(key, total);
  }
  return out;
}

void RollingCounter::advance() {
  head_ = (head_ + 1) % slots_;
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second[head_] = 0;
    const bool all_zero =
        std::all_of(it->second.begin(), it->second.end(),
                    [](std::uint64_t v) { return v == 0; });
    it = all_zero ? counts_.erase(it) : std::next(it);
  }
}

Rankings::Rankings(std::size_t k) : k_(k == 0 ? 1 : k) {}

void Rankings::update(const std::string& key, std::uint64_t count) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.key == key; });
  if (it != entries_.end()) {
    it->count = count;
  } else if (entries_.size() == k_ &&
             (count < entries_.back().count ||
              (count == entries_.back().count && key > entries_.back().key))) {
    return;  // would rank below the k-th entry and be trimmed at once
  } else {
    entries_.push_back({key, count});
  }
  sort_and_trim();
}

void Rankings::merge(const Rankings& other) {
  for (const auto& e : other.entries_) update(e.key, e.count);
}

void Rankings::zero_counts() {
  for (auto& e : entries_) e.count = 0;
  sort_and_trim();  // restore the key order among the now-equal counts
}

void Rankings::prune_zero_counts() {
  // Sorted by count descending, so the zero counts are the tail.
  const auto first_zero = std::find_if(entries_.begin(), entries_.end(),
                                       [](const Entry& e) { return e.count == 0; });
  entries_.erase(first_zero, entries_.end());
}

void Rankings::sort_and_trim() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.key < b.key;  // deterministic tie-break
                   });
  if (entries_.size() > k_) entries_.resize(k_);
}

}  // namespace netalytics::stream
