// Read-side of a query's result interface (Fig. 1), factored out of
// QueryHandle: one value type owning the access patterns consumers need —
// everything in arrival order, the latest row per key, and a plain-text
// table. Obtained via QueryHandle::view(); valid while the handle lives
// (the engine owns handles for its whole lifetime).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stream/tuple.hpp"

namespace netalytics::core {

/// Options for ResultView::render, the result table. Metrics and spans
/// have their text forms in the export layer (QueryHandle::export_metrics,
/// export_chrome_trace).
struct RenderOptions {
  std::size_t key_fields = 1;
  std::size_t max_rows = 50;
};

class ResultView {
 public:
  explicit ResultView(const std::vector<stream::Tuple>& tuples)
      : tuples_(&tuples) {}

  /// Every tuple the processors' sinks emitted, in arrival order. Windowed
  /// processors re-emit snapshots each tick; see latest().
  const std::vector<stream::Tuple>& all() const noexcept { return *tuples_; }
  std::size_t size() const noexcept { return tuples_->size(); }
  bool empty() const noexcept { return tuples_->empty(); }

  /// Collapse periodic re-emissions: the last tuple seen for each distinct
  /// value of the first `key_fields` fields, in key order.
  std::vector<stream::Tuple> latest(std::size_t key_fields) const;

  /// Plain-text rendering of latest(): one formatted tuple per line,
  /// truncated with "..." past opts.max_rows.
  std::string render(const RenderOptions& opts) const;

 private:
  const std::vector<stream::Tuple>* tuples_;
};

}  // namespace netalytics::core
