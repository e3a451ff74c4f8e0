// Self-observability (DRST-style non-intrusive telemetry for softwarized
// pipelines): a process-wide registry of named counters, gauges and
// fixed-bucket histograms, plus a per-query StageTracer that turns
// virtual-time stamps taken at the pipeline's hand-off points (packet
// ingress, parser emit, mq produce/consume, spout poll, sink emit) into
// stage-by-stage and end-to-end latency histograms.
//
// Hot-path contract: an increment is a single relaxed atomic add (a
// histogram observe is three), cheap enough that metrics are always on:
// reconcile(), the LIMIT check and every *Stats view read these counters.
//
// Determinism: nothing in here reads a clock. All latencies are computed by
// callers from the virtual timestamps already flowing through the pipeline,
// so two identical virtual-time runs produce byte-identical snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::common {

/// Monotonically increasing value. inc() is one relaxed add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value (queue depth, pool occupancy, sample rate in ppm).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over inclusive upper bounds (Prometheus "le"
/// semantics): a sample lands in the first bucket whose bound >= sample;
/// anything above the last bound lands in the implicit +inf bucket.
/// Distinct from common::Histogram (stats.hpp), which is a single-threaded
/// analysis container — this one is a concurrent metric.
class HistogramMetric {
 public:
  /// `upper_bounds` must be sorted ascending and non-empty.
  explicit HistogramMetric(std::vector<std::uint64_t> upper_bounds);

  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

  void observe(std::uint64_t sample) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  /// Non-cumulative count of bucket i; i == bounds().size() is +inf.
  std::uint64_t bucket(std::size_t i) const;

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Default latency bounds in nanoseconds: 1us .. 100s, roughly 1-2-5 per
/// decade — wide enough for both per-packet costs and broker residency.
const std::vector<std::uint64_t>& default_latency_bounds();

/// Point-in-time copy of a registry, sorted by name within each kind. Its
/// text forms live in src/obs (Prometheus exposition, collapsed stacks);
/// tests compare snapshots directly.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterSample&) const = default;
  };
  struct GaugeSample {
    std::string name;
    std::int64_t value = 0;
    bool operator==(const GaugeSample&) const = default;
  };
  struct HistogramSample {
    std::string name;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size()+1, non-cumulative
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    bool operator==(const HistogramSample&) const = default;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// First counter matching `name` exactly; 0 if absent.
  std::uint64_t counter_value(std::string_view name) const;
  /// First gauge matching `name` exactly; 0 if absent.
  std::int64_t gauge_value(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Named metric registry. get-or-create accessors hand out references that
/// stay valid for the registry's lifetime (metrics are never removed), so
/// hot paths resolve their metric once and keep the pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted on first creation of `name`.
  HistogramMetric& histogram(const std::string& name,
                             const std::vector<std::uint64_t>& bounds =
                                 default_latency_bounds());

  /// Copy out everything whose name starts with `prefix` ("" = all).
  MetricsSnapshot snapshot(std::string_view prefix = {}) const;

  /// Process-wide fallback registry for components used standalone (outside
  /// an engine, which owns its own registry).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

/// Per-query pipeline latency tracer. Each stage histogram is fed at a
/// hand-off point with (event_time, origin_time) pairs already flowing
/// through the pipeline in virtual time:
///   emit     parser record -> batch ship   (batching delay in the monitor)
///   produce  batch ship -> broker append   (retry/backoff + persistence)
///   consume  broker append -> spout poll   (aggregation-layer residency)
///   e2e      packet ingress -> sink emit   (whole pipeline)
/// The first three chain head-to-tail, so their sums reconcile with e2e to
/// within one engine tick (the sink runs in the same pump as the poll).
class StageTracer {
 public:
  enum class Stage { emit, produce, consume, e2e };
  static constexpr std::size_t kStageCount = 4;
  static std::string_view stage_name(Stage s) noexcept;

  StageTracer(MetricsRegistry& registry, const std::string& prefix);

  /// Record event_time - origin_time into the stage histogram. Stamps with
  /// an unknown origin (0) or going backwards are dropped (counted).
  void stamp(Stage s, Timestamp event_time, Timestamp origin_time) noexcept;

  HistogramMetric& histogram(Stage s) noexcept {
    return *stages_[static_cast<std::size_t>(s)];
  }
  const HistogramMetric& histogram(Stage s) const noexcept {
    return *stages_[static_cast<std::size_t>(s)];
  }
  std::uint64_t dropped_stamps() const noexcept { return dropped_->value(); }

 private:
  HistogramMetric* stages_[kStageCount];
  Counter* dropped_;
};

}  // namespace netalytics::common
