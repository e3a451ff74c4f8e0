// A single aggregation broker — the Kafka substitute (§3.2, §6.1). It is a
// distributed queuing service in miniature: topics are split into
// partitions, each an append-only bounded log with a retention cap;
// consumer groups track per-partition offsets; and producers receive
// watermark-based backpressure signals that drive the feedback sampling
// loop (§4.2).
//
// Concurrency (see DESIGN.md "Aggregation layer concurrency"): the topic
// registry is guarded by a lightly-held shared_mutex taken only to resolve
// a topic name to its (address-stable) Topic; all log, offset and retention
// state lives behind per-partition mutexes, so producers and consumers on
// different partitions never contend. All name lookups are heterogeneous
// (std::string_view against std::less<> maps) — the hot path allocates no
// key strings. produce_batch() appends a whole batch taking each partition
// lock once per run of same-partition messages.
//
// The persistence model reproduces the paper's throughput observation:
// "Kafka provides reliable message delivery by persisting copies of all
// messages to disk, limiting throughput to the disk write rate (70 MB/s).
// Instead, we use a RAM disk..., which improves throughput by more than an
// order of magnitude." A broker configured with persist_bytes_per_sec > 0
// models the disk-backed log; 0 models the RAM disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "mq/message.hpp"

namespace netalytics::mq {

enum class ProduceStatus {
  ok,          // appended
  low_buffer,  // appended, but occupancy crossed the high watermark
  blocked,     // persistence saturated, broker down, or held back behind an
               // earlier failed message of the same partition; retry later
  dropped,     // rejected outright (fault injection); retry elsewhere/later
};

/// Fault-site suffixes a broker checks when a FaultPlan is installed; the
/// full site name is "<prefix>.<suffix>" (default prefix "mq.broker").
/// - down:      broker-down window — produce returns blocked, poll returns
///              nothing (armed with a window trigger; `now` for poll checks
///              is the latest produce timestamp the broker has seen).
/// - reject:    produce returns dropped without appending.
/// - delay:     poll stops reading a partition early; held-back messages
///              arrive in a later poll, order intact.
/// - duplicate: poll re-delivers a message adjacent to itself with the same
///              offset (consumers dedupe by (key, offset)).
inline constexpr std::string_view kFaultDown = "down";
inline constexpr std::string_view kFaultReject = "reject";
inline constexpr std::string_view kFaultDelay = "delay";
inline constexpr std::string_view kFaultDuplicate = "duplicate";

struct BrokerConfig {
  std::size_t partitions_per_topic = 1;
  std::size_t partition_capacity = 65536;   // retained messages per partition
  double high_watermark = 0.75;             // occupancy ratio -> low_buffer
  std::uint64_t persist_bytes_per_sec = 0;  // 0 = RAM disk (unlimited)
  /// Kafka-style retention.ms: messages whose append_ts is older than this
  /// are evicted on the produce path (virtual time only advances through
  /// produce), regardless of partition occupancy. 0 disables age retention,
  /// leaving only the partition_capacity cap.
  common::Duration retention_age = 0;
};

/// Thin typed view over the broker's registry counters (the numbers live in
/// the MetricsRegistry; stats() copies them out).
struct BrokerStats {
  std::uint64_t produced = 0;
  std::uint64_t blocked = 0;
  std::uint64_t dropped_retention = 0;  // messages evicted (capacity or age)
  std::uint64_t consumed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t produced_records = 0;   // parser records appended
  std::uint64_t consumed_records = 0;   // parser records polled out
  /// Parser records inside evicted messages no consumer group had read —
  /// the only evictions that are real data loss.
  std::uint64_t evicted_unread_records = 0;
  std::uint64_t duplicated_records = 0;  // records re-delivered by injection
  // Fault accounting (all zero unless a FaultPlan is installed).
  std::uint64_t faulted_down = 0;      // produce/poll hit a down window
  std::uint64_t faulted_reject = 0;    // produce rejected by injection
  std::uint64_t faulted_delay = 0;     // poll batches cut short
  std::uint64_t faulted_duplicate = 0; // messages re-delivered
};

class Broker {
 public:
  explicit Broker(BrokerConfig config = {});

  /// Append a message; assigns its offset. `now` drives the disk model.
  /// On any non-appending status (blocked/dropped) `msg` is left intact so
  /// the caller can buffer it and retry.
  ProduceStatus produce(Message&& msg, common::Timestamp now);

  /// Append a batch; statuses[i] reports the fate of msgs[i] (the spans
  /// must be the same length). Semantically equivalent to calling produce()
  /// per message in order, except that each partition lock is taken once
  /// per run of same-partition messages and — to preserve per-key order
  /// under retry — once a message of a partition fails, every later message
  /// of the *same partition* in this batch is held back unappended with
  /// status blocked. Appended messages are moved from; refused ones are
  /// left intact for the caller's retry buffer.
  void produce_batch(std::span<Message> msgs, common::Timestamp now,
                     std::span<ProduceStatus> statuses);

  /// The one fetch path: up to `max` records of `topic` for a consumer
  /// group, read from the listed partition indexes in the order given (a
  /// group member fetches its share and nothing else; see mq/group.hpp).
  /// An empty span means every partition; out-of-range indexes are
  /// ignored. Offsets advance per (group, partition): the cursors are
  /// shared group state, which is what makes rebalance handoff exact.
  /// Payload bytes are shared with the log (refcounted), never copied.
  FetchBatch poll_batch(std::string_view group, std::string_view topic,
                        std::size_t max,
                        std::span<const std::size_t> partitions = {});

  /// Buffer pressure in [0,1] of the most-backlogged partition of `topic`:
  /// the fraction of the partition's capacity holding messages the slowest
  /// consumer group has not yet read (everything counts while no group has
  /// consumed the topic). Consuming does not delete messages — retention
  /// does — so pressure must be measured as consumer lag, not log size.
  double occupancy(std::string_view topic) const;

  /// Total buffered messages in `topic` not yet evicted.
  std::size_t depth(std::string_view topic) const;

  /// Parser records buffered in `topic` that the slowest consumer group has
  /// not yet read — the broker's in-flight term in engine.reconcile().
  std::uint64_t unread_records(std::string_view topic) const;

  /// Route evicted-unread record counts into `ledger` (broker_retention
  /// cause). Like bind_metrics: install before traffic starts.
  void set_drop_ledger(common::DropLedger* ledger) noexcept {
    drop_ledger_ = ledger;
  }

  BrokerStats stats() const;
  const BrokerConfig& config() const noexcept { return config_; }

  /// Install (or clear, with nullptr) a chaos plan. Sites are named
  /// "<site_prefix>.<suffix>" (see kFault* above), so a cluster can target
  /// one broker by index. Not thread-safe against in-flight produce/poll;
  /// install before traffic starts.
  void install_faults(common::FaultPlan* plan,
                      std::string site_prefix = "mq.broker");

  /// Re-home the broker's counters into `registry` under `prefix` (e.g.
  /// "mq.broker0"). Like install_faults: bind before traffic starts;
  /// counts accumulated in the previous registry are not migrated.
  void bind_metrics(common::MetricsRegistry& registry, const std::string& prefix);

 private:
  /// One shard of a topic. Everything inside is guarded by `mutex` — log,
  /// offsets, retention and the per-group read cursors all mutate under the
  /// same per-partition lock, so cross-partition traffic never serializes.
  struct Partition {
    mutable std::mutex mutex;
    std::deque<Message> log;
    std::uint64_t base_offset = 0;  // offset of log.front()
    std::uint64_t next_offset = 0;
    /// group name -> next offset to read (heterogeneous lookup).
    std::map<std::string, std::uint64_t, std::less<>> group_offsets;
  };
  struct Topic {
    // unique_ptr for address stability: partition pointers stay valid once
    // the registry lock is released.
    std::vector<std::unique_ptr<Partition>> partitions;
  };

  void resolve_metrics(common::MetricsRegistry& registry,
                       const std::string& prefix);
  bool fault(const std::string& site, common::Timestamp now);
  /// Find an existing topic (shared registry lock); nullptr if absent.
  Topic* find_topic(std::string_view name) const;
  /// Get-or-create (shared lock fast path, exclusive lock on first use).
  Topic& topic(std::string_view name);
  /// Messages the slowest group has not read. Caller holds part.mutex.
  static std::size_t unread(const Partition& part);
  /// Evict log.front(); returns the parser records inside it if no group
  /// had read it yet (real loss), else 0. Caller holds part.mutex.
  static std::uint64_t evict_front(Partition& part);
  /// Disk persistence admission for one message. Caller holds no partition
  /// lock (disk state is broker-global, guarded by disk_mutex_).
  bool disk_admit(std::size_t bytes, common::Timestamp now);

  BrokerConfig config_;
  /// Lightly-held: taken shared to resolve names, exclusive only to create
  /// a topic (or rebind metrics/faults before traffic).
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Topic>, std::less<>> topics_;
  std::mutex disk_mutex_;
  common::Timestamp disk_busy_until_ = 0;  // guarded by disk_mutex_
  // Counters live in the bound (or owned fallback) registry.
  std::unique_ptr<common::MetricsRegistry> owned_metrics_;
  common::Counter* produced_ = nullptr;
  common::Counter* blocked_ = nullptr;
  common::Counter* dropped_retention_ = nullptr;
  common::Counter* consumed_ = nullptr;
  common::Counter* bytes_in_ = nullptr;
  common::Counter* produced_records_ = nullptr;
  common::Counter* consumed_records_ = nullptr;
  common::Counter* evicted_unread_records_ = nullptr;
  common::Counter* duplicated_records_ = nullptr;
  /// Age of the oldest retained message in the most recently produced-to
  /// partition; watch it approach retention_age.
  common::Gauge* eviction_lag_ = nullptr;
  common::DropLedger* drop_ledger_ = nullptr;
  common::Counter* faulted_down_ = nullptr;
  common::Counter* faulted_reject_ = nullptr;
  common::Counter* faulted_delay_ = nullptr;
  common::Counter* faulted_duplicate_ = nullptr;
  common::FaultPlan* faults_ = nullptr;
  // Full site names, precomputed at install_faults so fault checks on the
  // hot path never concatenate strings.
  std::string site_down_;
  std::string site_reject_;
  std::string site_delay_;
  std::string site_duplicate_;
  /// Latest produce timestamp; stands in for `now` on the poll path, which
  /// has no clock parameter (down windows close once producers move on).
  std::atomic<common::Timestamp> last_now_{0};
};

}  // namespace netalytics::mq
