// Fan-in merge for the federation parent's global top-k
// (docs/FEDERATION.md): N indexed sources — one per child engine — fold
// into one global view. Determinism rule: sources are visited in
// source-index order, extending the executor contract (docs/DETERMINISM.md)
// across node boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/window.hpp"

namespace netalytics::stream {

/// Global top-k over N per-source key counters (the fan-in counterpart of
/// the Fig.-4 rankings bolts): add() charges a key under one source;
/// global() folds the per-source totals — iterating sources in index
/// order — and returns the k largest summed (key, count) pairs. Unlike
/// Rankings::merge (an upsert of one owner's latest totals), the fold
/// *sums* across sources, because distinct children count the same key
/// independently.
class FanInTopK {
 public:
  FanInTopK(std::size_t sources, std::size_t k);

  void add(std::size_t source, const std::string& key, std::uint64_t by = 1);

  /// Per-source totals (exact, not truncated to k).
  const std::map<std::string, std::uint64_t>& local(std::size_t source) const;

  /// Global top-k over the summed totals.
  Rankings global() const;

  /// Deterministic "rank key count" table of global(), one row per line.
  std::string render() const;

  std::size_t sources() const noexcept { return counts_.size(); }
  std::uint64_t total_updates() const noexcept { return updates_; }

 private:
  std::vector<std::map<std::string, std::uint64_t>> counts_;
  std::size_t k_;
  std::uint64_t updates_ = 0;
};

}  // namespace netalytics::stream
