// Embedded tiered time-series store (netdata-dbengine style, scoped to
// one engine process). Three tiers per series, oldest to newest:
//
//   evicted rollup -- one lossless {sum,count,min,max,last} aggregate of
//                     everything that aged past the cold tier, so
//                     whole-range sums stay exact forever;
//   cold tier      -- per-bucket {ts,count,sum,min,max,last} aggregates of
//                     `downsample_ticks` hot samples each, delta-of-delta
//                     + varint encoded into fixed-size chunks (FIFO
//                     eviction folds a chunk's rollup into the evicted
//                     aggregate);
//   hot tier       -- a fixed-slot ring of raw (tick, value) samples.
//
// Ingest sources: per-tick cumulative MetricsRegistry snapshots (capture()
// diffs counters into deltas, stores gauges absolute, explodes histograms
// into per-bucket series) and direct scalar samples (per-tick analytics
// emissions from result sinks). Queries additionally merge an optional
// LiveHead — the registry's current cumulative values — so counter totals
// are exact up to "now" even between captures or with the store disabled.
//
// Determinism: contents depend only on the (virtual-time, value) stream
// ingested; nothing reads a clock. Same run -> byte-identical
// RangeResult::render() output.
//
// Concurrency: one mutex around all state. Capture happens once per
// engine tick and queries are operator-driven — neither is a hot path.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/expected.hpp"
#include "common/metrics.hpp"
#include "tsdb/query.hpp"

namespace netalytics::tsdb {

struct StoreConfig {
  /// Hot-ring slots per series. 0 disables capture/ingest entirely —
  /// query_range then serves only the live head.
  std::size_t hot_slots = 128;
  /// Hot samples folded into one cold bucket on eviction.
  std::size_t downsample_ticks = 8;
  /// Cold buckets encoded per chunk (chunks decode independently).
  std::size_t cold_chunk_buckets = 64;
  /// Chunks retained per series; the oldest chunk's rollup folds into the
  /// evicted aggregate when exceeded. 0 = unlimited.
  std::size_t cold_chunks = 64;
  /// New-series cap (result sinks can mint series per key); ingest for
  /// names beyond the cap is dropped and counted. 0 = unlimited.
  std::size_t max_series = 8192;

  common::Expected<void> validate() const;
};

/// The registry's current cumulative values, merged at query time as a
/// synthetic newest sample: counters contribute value - (sum of captured
/// deltas), gauges their level, histograms per-bucket tails.
struct LiveHead {
  common::Timestamp ts = 0;
  const common::MetricsSnapshot* snapshot = nullptr;  // cumulative; may be null
};

class TieredStore {
 public:
  explicit TieredStore(StoreConfig cfg = {});

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  bool enabled() const noexcept { return cfg_.hot_slots > 0; }
  const StoreConfig& config() const noexcept { return cfg_; }

  /// Ingest one cumulative registry snapshot (call once per tick).
  /// Counters/histogram buckets are diffed against the previous capture;
  /// gauges are stored absolute. No-op when disabled.
  void capture(common::Timestamp ts, const common::MetricsSnapshot& cumulative);

  /// Ingest one scalar sample directly (result-sink emissions). No-op
  /// when disabled.
  void ingest(const std::string& name, SeriesKind kind, common::Timestamp ts,
              double value);

  /// Execute a range query over stored data, optionally merging the live
  /// registry head. Exactness notes are on RangeResult::exact.
  RangeResult query_range(const RangeQuery& q) const;
  RangeResult query_range(const RangeQuery& q, const LiveHead& live) const;

  struct Stats {
    std::uint64_t captures = 0;        // capture() calls
    std::uint64_t series = 0;          // scalar series (histogram buckets incl.)
    std::uint64_t histograms = 0;      // histogram families
    std::uint64_t samples_ingested = 0;
    std::uint64_t hot_samples = 0;     // currently in hot rings
    std::uint64_t cold_buckets = 0;    // currently encoded (excl. pending)
    std::uint64_t cold_bytes = 0;      // encoded cold-tier size
    std::uint64_t cold_raw_bytes = 0;  // 16 B x samples folded to cold
    std::uint64_t evicted_buckets = 0; // folded into evicted rollups
    std::uint64_t rejected_samples = 0;// dropped by the max_series cap
  };
  Stats stats() const;

 private:
  struct Sample {
    common::Timestamp ts = 0;
    double value = 0;
  };

  /// One downsampled aggregate (also the evicted-rollup accumulator).
  struct Bucket {
    common::Timestamp ts = 0;  // first folded sample's timestamp
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double last = 0;

    void fold(common::Timestamp sample_ts, double v) noexcept;
    void merge(const Bucket& b) noexcept;
  };

  struct Chunk {
    std::vector<std::byte> bytes;
    std::size_t buckets = 0;
    common::Timestamp first_ts = 0;
    common::Timestamp last_ts = 0;
    Bucket rollup;                 // lossless aggregate of the chunk
    std::uint64_t raw_bytes = 0;   // 16 B x samples inside
  };

  struct Cold {
    std::deque<Chunk> chunks;      // oldest first
    Bucket prev;                   // delta base for the open chunk's encoder
    common::Timestamp prev_ts = 0;
    std::int64_t prev_dt = 0;      // previous ts delta (delta-of-delta base)
    Bucket pending;                // accumulating, not yet encoded
    bool pending_open = false;
    Bucket evicted;                // rollup of everything past the chunks
    bool has_evicted = false;
  };

  struct Series {
    SeriesKind kind = SeriesKind::counter;
    std::vector<Sample> hot;       // ring, cfg_.hot_slots entries
    std::size_t head = 0;          // next write slot
    std::size_t count = 0;         // valid entries
    double cum = 0;                // lifetime sum of ingested values
    std::uint64_t ingested = 0;
    Cold cold;
  };

  struct Histogram {
    std::vector<std::uint64_t> bounds;
    std::vector<Series> buckets;   // bounds.size()+1, keyed by position
  };

  Series* find_or_create(const std::string& name, SeriesKind kind);
  void push(Series& s, common::Timestamp ts, double value);
  void fold_to_cold(Series& s, const Sample& evictee);
  void append_bucket(Cold& c, const Bucket& b);
  static std::vector<Bucket> decode_chunk(const Chunk& chunk);

  /// Aggregation atom: a sample (count 1) or a downsampled bucket.
  struct Atom {
    common::Timestamp ts = 0;
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double last = 0;
    bool downsampled = false;
  };
  /// All atoms of `s` overlapping [t0, t1], oldest first; appends the
  /// live tail when `live_tail` is non-negative (counters) or kind is
  /// gauge with a fresher head.
  void collect_atoms(const Series& s, common::Timestamp t0,
                     common::Timestamp t1, std::vector<Atom>& out) const;
  static void fold_window(const RangeQuery& q, const std::vector<Atom>& atoms,
                          RangeResult::Series& out, bool& exact);

  StoreConfig cfg_;
  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;
  std::map<std::string, Histogram> histograms_;
  common::MetricsSnapshot last_capture_;  // cumulative baseline for deltas
  std::uint64_t captures_ = 0;
  std::uint64_t rejected_samples_ = 0;
  std::uint64_t evicted_buckets_ = 0;
};

}  // namespace netalytics::tsdb
