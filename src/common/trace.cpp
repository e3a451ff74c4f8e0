#include "common/trace.hpp"

#include <algorithm>

namespace netalytics::common {

std::string_view trace_stage_name(TraceStage s) noexcept {
  switch (s) {
    case TraceStage::ingest: return "ingest";
    case TraceStage::emit: return "emit";
    case TraceStage::produce: return "produce";
    case TraceStage::consume: return "consume";
    case TraceStage::execute: return "execute";
    case TraceStage::deliver: return "deliver";
  }
  return "unknown";
}

// ---------------------------------------------------------------- recorder

struct TraceRecorder::Slab {
  explicit Slab(std::size_t capacity) : spans(capacity) {}
  std::vector<TraceSpan> spans;
  // Single writer (the owning thread); head published with release so
  // collect() on another thread sees complete spans below it.
  std::atomic<std::size_t> head{0};
  std::atomic<std::uint64_t> dropped{0};
};

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct TlSlabRef {
  std::uint64_t recorder_id = 0;
  void* slab = nullptr;
};

// Per-thread cache of (recorder id -> slab). Recorder ids are process-
// unique and never reused, so a stale entry for a destroyed recorder can
// never be matched by a different recorder at the same address.
thread_local std::vector<TlSlabRef> tl_slabs;

}  // namespace

TraceRecorder::TraceRecorder() : TraceRecorder(Config{}) {}

TraceRecorder::TraceRecorder(Config config)
    : config_(config), recorder_id_(next_recorder_id()) {
  if (config_.capacity_per_thread == 0) config_.capacity_per_thread = 1;
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::Slab* TraceRecorder::local_slab() const {
  for (const auto& ref : tl_slabs) {
    if (ref.recorder_id == recorder_id_) return static_cast<Slab*>(ref.slab);
  }
  std::lock_guard lock(slabs_mutex_);
  slabs_.push_back(std::make_unique<Slab>(config_.capacity_per_thread));
  Slab* slab = slabs_.back().get();
  // Bound the cache: a thread touching many short-lived recorders keeps the
  // most recent handful (stale refs are only ever scanned, never followed).
  if (tl_slabs.size() >= 64) tl_slabs.erase(tl_slabs.begin());
  tl_slabs.push_back({recorder_id_, slab});
  return slab;
}

std::uint64_t TraceRecorder::begin(std::uint64_t flow_hash,
                                   Timestamp ts) noexcept {
  if (!sample(flow_hash ^ mix64(ts))) return 0;
  const std::uint64_t id = trace_id(flow_hash, ts);
  stamp(id, TraceStage::ingest, ts, ts);
  return id;
}

void TraceRecorder::stamp(std::uint64_t trace, TraceStage stage,
                          Timestamp start, Timestamp end) noexcept {
  if (!enabled() || trace == 0) return;
  Slab* slab = local_slab();
  const std::size_t h = slab->head.load(std::memory_order_relaxed);
  if (h >= slab->spans.size()) {
    slab->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slab->spans[h] = TraceSpan{trace, stage, start, end};
  slab->head.store(h + 1, std::memory_order_release);
}

std::vector<TraceSpan> TraceRecorder::collect() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard lock(slabs_mutex_);
    for (const auto& slab : slabs_) {
      const std::size_t n = slab->head.load(std::memory_order_acquire);
      out.insert(out.end(), slab->spans.begin(), slab->spans.begin() + n);
    }
  }
  // Content order, not arrival order: deterministic regardless of which
  // thread recorded what when.
  std::sort(out.begin(), out.end(), [](const TraceSpan& a, const TraceSpan& b) {
    if (a.trace != b.trace) return a.trace < b.trace;
    if (a.stage != b.stage) return a.stage < b.stage;
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  });
  return out;
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard lock(slabs_mutex_);
  std::size_t n = 0;
  for (const auto& slab : slabs_) {
    n += slab->head.load(std::memory_order_acquire);
  }
  return n;
}

std::uint64_t TraceRecorder::dropped_spans() const {
  std::lock_guard lock(slabs_mutex_);
  std::uint64_t n = 0;
  for (const auto& slab : slabs_) {
    n += slab->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

// ------------------------------------------------------------------ ledger

std::string_view drop_cause_name(DropCause c) noexcept {
  switch (c) {
    case DropCause::ingest_ring_overflow: return "ingest.ring_overflow";
    case DropCause::ingest_decode_error: return "ingest.decode_error";
    case DropCause::sample_rejected: return "sample.rejected";
    case DropCause::parse_error: return "parse.error";
    case DropCause::parse_no_output: return "parse.no_output";
    case DropCause::produce_buffer_overflow: return "produce.buffer_overflow";
    case DropCause::produce_retries_exhausted:
      return "produce.retries_exhausted";
    case DropCause::broker_retention: return "broker.retention";
    case DropCause::consume_poll_failure: return "consume.poll_failure";
    case DropCause::stream_window_eviction: return "stream.window_eviction";
  }
  return "unknown";
}

bool drop_cause_is_loss(DropCause c) noexcept {
  switch (c) {
    case DropCause::consume_poll_failure:     // the data retries next poll
    case DropCause::stream_window_eviction:   // post-aggregation state
      return false;
    default:
      return true;
  }
}

DropLedger::DropLedger(MetricsRegistry& registry, const std::string& prefix) {
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    counters_[i] = &registry.counter(
        prefix + "." +
        std::string(drop_cause_name(static_cast<DropCause>(i))));
  }
}

std::uint64_t DropLedger::total_losses() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    if (drop_cause_is_loss(static_cast<DropCause>(i))) {
      n += counters_[i]->value();
    }
  }
  return n;
}

}  // namespace netalytics::common
