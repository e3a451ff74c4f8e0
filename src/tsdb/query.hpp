// The unified historical read API: one query shape for everything the
// engine records — monitor counters, broker gauges, stage-latency
// histograms, per-tick analytics emissions. A RangeQuery selects series by
// name prefix, bounds a virtual-time range, and folds samples per step
// window with an aggregation function; the typed RangeResult it returns
// also powers the render paths (RangeResult::render() is deterministic:
// same run, same query -> byte-identical text at any executor_workers).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::tsdb {

/// Aggregation functions. sum/avg/min/max/last fold scalar series
/// (counters are stored as per-capture deltas, so `sum` over a range is
/// "increments in range"; gauges are absolute levels). p50/p95/p99 apply
/// to histogram families only and are served from the fixed bucket
/// layout the registry already maintains — exact at bucket resolution.
enum class Agg : std::uint8_t { sum, avg, min, max, last, p50, p95, p99 };
inline constexpr std::size_t kAggCount = 8;

std::string_view agg_name(Agg a) noexcept;
constexpr bool agg_is_percentile(Agg a) noexcept {
  return a == Agg::p50 || a == Agg::p95 || a == Agg::p99;
}
/// 0.50 / 0.95 / 0.99 for the percentile aggs, 0 otherwise.
double agg_quantile(Agg a) noexcept;

struct RangeQuery {
  /// Series-name prefix: "q1.mon" matches every monitor counter of query
  /// 1, "" matches everything. Percentile aggs match histogram families,
  /// all other aggs match scalar (counter/gauge) series.
  std::string selector;
  /// Inclusive virtual-time range. Defaults cover all recorded history
  /// plus the live head.
  common::Timestamp t0 = 0;
  common::Timestamp t1 = std::numeric_limits<common::Timestamp>::max();
  /// Resolution: samples fold per [t, t+step) window; 0 = one point over
  /// the whole range.
  common::Duration step = 0;
  Agg agg = Agg::sum;
};

/// What kind of scalar stream a series is. Counters ingest per-capture
/// deltas of a monotonic registry counter; gauges ingest absolute levels
/// (registry gauges and result-sink emissions).
enum class SeriesKind : std::uint8_t { counter, gauge };
std::string_view series_kind_name(SeriesKind k) noexcept;

/// Typed range-query result: one Series per matched name, one Point per
/// non-empty step window. Empty windows are omitted (points carry their
/// window-start timestamp, so gaps are recoverable).
struct RangeResult {
  struct Point {
    common::Timestamp t = 0;     // window start
    double value = 0;            // aggregated value
    std::uint64_t samples = 0;   // raw samples folded into this point
    bool operator==(const Point&) const = default;
  };
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::counter;
    std::vector<Point> points;
    bool operator==(const Series&) const = default;
  };

  RangeQuery query;            // echo of what was asked
  std::vector<Series> series;  // sorted by name
  /// True when every point was folded from per-sample data (hot tier or
  /// live head). False means downsampled cold/evicted aggregates
  /// contributed: sums/avg/samples stay exact over windows aligned to
  /// downsample buckets (and always for step == 0 whole-range queries),
  /// min/max/last are exact at bucket resolution, and a bucket is
  /// attributed to the window containing its first sample.
  bool exact = true;

  /// Deterministic, diff-stable plain-text rendering: a header line, then
  /// per series one name line and one "  t=<ns> v=<value> n=<samples>"
  /// line per point.
  std::string render(std::size_t max_points_per_series = 1000) const;
};

/// Shared percentile kernel (store and the tests' naive reference use the
/// same one): smallest bucket upper bound whose cumulative count reaches
/// quantile q of the total. The +inf bucket clamps to the last finite
/// bound. Returns 0 when the window saw no observations.
double percentile_from_buckets(const std::vector<std::uint64_t>& bounds,
                               const std::vector<double>& bucket_sums,
                               double q) noexcept;

/// Deterministic number formatting for renders: integral values print
/// with no decimal point, everything else as %.9g.
std::string format_number(double v);

}  // namespace netalytics::tsdb
