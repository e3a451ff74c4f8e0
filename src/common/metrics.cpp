#include "common/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace netalytics::common {

HistogramMetric::HistogramMetric(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("HistogramMetric: no buckets");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("HistogramMetric: bounds not ascending");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void HistogramMetric::observe(std::uint64_t sample) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::uint64_t HistogramMetric::bucket(std::size_t i) const {
  if (i > bounds_.size()) throw std::out_of_range("HistogramMetric::bucket");
  return buckets_[i].load(std::memory_order_relaxed);
}

const std::vector<std::uint64_t>& default_latency_bounds() {
  static const std::vector<std::uint64_t> kBounds = [] {
    std::vector<std::uint64_t> b;
    // 1-2-5 per decade, 1us .. 100s.
    for (std::uint64_t decade = kMicrosecond; decade <= 100 * kSecond;
         decade *= 10) {
      b.push_back(decade);
      if (decade <= 10 * kSecond) {
        b.push_back(2 * decade);
        b.push_back(5 * decade);
      }
    }
    return b;
  }();
  return kBounds;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const MetricsSnapshot::HistogramSample* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(
    const std::string& name, const std::vector<std::uint64_t>& bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(bounds);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot(std::string_view prefix) const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) {
    if (!name.starts_with(prefix)) continue;
    snap.counters.push_back({name, c->value()});
  }
  for (const auto& [name, g] : gauges_) {
    if (!name.starts_with(prefix)) continue;
    snap.gauges.push_back({name, g->value()});
  }
  for (const auto& [name, h] : histograms_) {
    if (!name.starts_with(prefix)) continue;
    MetricsSnapshot::HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.buckets.reserve(s.bounds.size() + 1);
    for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
      s.buckets.push_back(h->bucket(i));
    }
    s.count = h->count();
    s.sum = h->sum();
    snap.histograms.push_back(std::move(s));
  }
  return snap;  // std::map iteration is already name-sorted
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string_view StageTracer::stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::emit: return "emit";
    case Stage::produce: return "produce";
    case Stage::consume: return "consume";
    case Stage::e2e: return "e2e";
  }
  return "unknown";
}

StageTracer::StageTracer(MetricsRegistry& registry, const std::string& prefix) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stages_[i] = &registry.histogram(
        prefix + ".stage." + std::string(stage_name(static_cast<Stage>(i))));
  }
  dropped_ = &registry.counter(prefix + ".stage.dropped_stamps");
}

void StageTracer::stamp(Stage s, Timestamp event_time,
                        Timestamp origin_time) noexcept {
  if (origin_time == 0 || event_time < origin_time) {
    dropped_->inc();
    return;
  }
  stages_[static_cast<std::size_t>(s)]->observe(event_time - origin_time);
}

}  // namespace netalytics::common
