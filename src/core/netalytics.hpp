// The NetAlytics engine façade (Fig. 1): input query -> SDN rules + NFV
// monitors -> distributed queue -> stream processors -> result interface.
// Runs against an Emulation in virtual time: application traffic goes in
// through Emulation::transmit and the caller pumps the engine as the clock
// advances.
#pragma once

#include <deque>
#include <memory>
#include <span>

#include "common/expected.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/compiler.hpp"
#include "core/result_view.hpp"
#include "mq/cluster.hpp"
#include "mq/producer.hpp"
#include "nf/orchestrator.hpp"
#include "obs/export.hpp"
#include "stream/executor.hpp"
#include "stream/processors.hpp"
#include "tsdb/store.hpp"

namespace netalytics::core {

// The unified historical read API (src/tsdb/): re-exported here because the
// engine façade is where callers meet it.
using Agg = tsdb::Agg;
using RangeQuery = tsdb::RangeQuery;
using RangeResult = tsdb::RangeResult;

/// Engine tick: every pump at least this far past the last tick advances
/// monitor ticks, topology windows and the tsdb capture cadence. Fixed at
/// one second because ProcessorParams::get_ticks reads "w=30s" as 30 ticks.
inline constexpr common::Duration kTickInterval = common::kSecond;

struct EngineConfig {
  std::size_t mq_brokers = 2;
  mq::BrokerConfig broker{};  // default: RAM-disk persistence (§6.1)
  placement::MonitorStrategy monitor_strategy = placement::MonitorStrategy::greedy;
  /// Tasks per topology component (§5.3 "add executors"): partitions the
  /// work by grouping AND sizes the stepped executor's worker pool, so
  /// raising it buys real cores, not just partitioning. Results are
  /// bit-identical at any value a topology's groupings permit (the
  /// determinism contract, docs/DETERMINISM.md).
  std::size_t processor_parallelism = 1;
  /// Execution threads per topology. 0 (default) follows
  /// processor_parallelism; set explicitly to decouple task partitioning
  /// from the thread count (e.g. many tasks, few cores).
  std::size_t executor_workers = 0;
  /// Which executor runs each compiled topology. `stepped` (default) keeps
  /// the bit-identical determinism contract; `free_running` trades
  /// inter-key ordering for run-to-completion throughput while preserving
  /// the multiset of results, per-key order, and exact reconcile/ledger
  /// accounting (docs/DETERMINISM.md "relaxed mode").
  stream::ExecutorMode executor_mode = stream::ExecutorMode::stepped;
  /// Per-task inbox bound for the free-running executor (backpressure);
  /// ignored in stepped mode. Must be nonzero.
  std::size_t executor_inbox_capacity = 4096;
  /// Kafka-spout tasks per topology source (§5.3 "multiple Kafka
  /// 'Spouts'"): the N tasks form one consumer group and split the topic's
  /// partitions via the cluster's GroupCoordinator instead of each
  /// draining every broker. Delivery stays exact across join/leave
  /// rebalances (tests/core/group_rebalance_reconcile_test.cpp); sizes
  /// beyond broker.partitions_per_topic × mq_brokers leave members idle.
  std::size_t spout_group_size = 1;
  /// Monitor tuning knobs applied to every deployed monitor.
  std::size_t monitor_output_batch = 32;
  /// Retry/backoff policy for every monitor's producer (at-least-once
  /// delivery into the aggregation layer).
  mq::RetryPolicy producer_retry{};
  /// Kafka-style producer accumulation: record batches ship to the brokers
  /// in groups (one partition-lock acquisition per group) instead of one
  /// broker round-trip per send. linger = 0 means open batches ship at the
  /// next engine pump; it must not exceed kTickInterval or batched records
  /// would miss their window tick.
  mq::BatchPolicy producer_batch{.max_records = 32,
                                 .max_bytes = 256 * 1024,
                                 .linger = 0};
  /// Trace provenance (common/trace.hpp): 1-in-N ingested packets carry a
  /// flight-recorder trace id through the whole pipeline. 0 disables the
  /// recorder; the per-cause drop ledger is always on regardless.
  std::uint64_t trace_sample_denominator = 0;
  std::size_t trace_span_capacity = 4096;
  /// Embedded tiered time-series store (src/tsdb/): per-tick registry
  /// snapshots and analytics emissions land in per-series hot rings and
  /// downsample into a compressed cold tier. hot_slots = 0 disables
  /// capture (query_range then serves only the live registry head).
  tsdb::StoreConfig tsdb_store{};
  /// Executor stage profiler (docs/OBSERVABILITY.md): per-task wall-clock
  /// self-time / queue-wait / pool-event counters published under
  /// "q<id>.proc<i>.profiler.*". Off by default — wall-clock series are
  /// excluded from the determinism contract.
  bool executor_profiler = false;
  /// Export-layer knobs (src/obs/): the Prometheus metric-family prefix
  /// and the chrome://tracing span cap, validated with the other fields.
  obs::ExportOptions obs_export{};

  /// Reject configurations that cannot run: zero brokers, zero processor
  /// parallelism, an absurd executor worker count or spout group size.
  /// The NetAlytics constructor throws on a bad config; submit() returns
  /// the same error recoverably.
  common::Expected<void> validate() const;
};

/// Fleet shape for multi-node streaming federation (src/fed/,
/// docs/FEDERATION.md): N child engines, each monitoring its own traffic
/// slice with this child EngineConfig, stream records and metric
/// snapshots to a parent over the framed wire protocol. Lives here — next
/// to EngineConfig — because the core façade owns engine construction;
/// fed::Federation consumes it to wire parent and children together.
struct FederationConfig {
  /// Child engines in the fleet. Child index, assigned at construction,
  /// is the protocol-visible identity and the deterministic merge order.
  std::size_t children = 2;
  /// Configuration every child engine is built with (the per-slice
  /// EngineConfig — executor workers, tsdb store, chaos wiring all apply
  /// per child).
  EngineConfig child_engine{};
  /// Hosts per rack of each child's emulated fabric
  /// (core::Emulation::make_small).
  std::size_t hosts_per_rack = 4;
  /// Bound on each child's replay buffer (unacknowledged RECORDS frames
  /// kept for gap replication). Overflow drops the oldest frame and is
  /// charged to the child's replay_overflow counters — sizing this too
  /// small is the one way federation gives up exactness.
  std::size_t replay_capacity = 1024;
  /// Max records batched into one RECORDS frame.
  std::size_t records_per_frame = 64;
  /// Global fan-in top-k size kept by the parent.
  std::size_t top_k = 10;
  /// Record-field index the parent's fan-in counts keys from (e.g. 3 =
  /// "value" in the http_get schema).
  std::size_t key_field = 0;
  /// Parent-side Prometheus export options (fleet-prefixed families).
  obs::ExportOptions parent_export{};

  common::Expected<void> validate() const;
};

class NetAlytics;

/// A live (or finished) query: the result interface of Fig. 1.
class QueryHandle {
 public:
  std::uint64_t id() const noexcept { return id_; }
  bool finished() const noexcept { return finished_; }
  const DeploymentPlan& plan() const noexcept { return plan_; }

  /// The query's result interface: all access patterns live on the view.
  ResultView view() const noexcept { return ResultView(results_); }

  /// Every result tuple in arrival order (what view() wraps).
  const std::vector<stream::Tuple>& results() const noexcept { return results_; }
  /// Results appended since `cursor` (a previous results().size()); the
  /// incremental drain a federation child streams from. An out-of-range
  /// cursor yields an empty span.
  std::span<const stream::Tuple> results_since(std::size_t cursor) const noexcept {
    return cursor >= results_.size()
               ? std::span<const stream::Tuple>{}
               : std::span<const stream::Tuple>{results_}.subspan(cursor);
  }

  /// Historical range query scoped to this query: the selector is
  /// interpreted under "q<id>." ("mon" -> every monitor counter, "result"
  /// -> per-tick analytics emissions, "stage" -> latency histograms for
  /// the percentile aggs, "" -> everything this query recorded).
  RangeResult query_range(RangeQuery q) const;

  /// Combined statistics across this query's monitors — a compatibility
  /// shim over query_range("mon", sum): whole-range counter sums are exact
  /// and live (the store merges the registry head), so this matches the
  /// registry for live and finished queries alike.
  nf::MonitorStats monitor_stats() const;
  double sample_rate() const;

  /// Per-stage pipeline latency tracer for this query (emit / produce /
  /// consume / e2e histograms, fed in virtual time).
  const common::StageTracer& tracer() const noexcept { return *tracer_; }

  /// Sampled flight recorder for this query (disabled when
  /// EngineConfig::trace_sample_denominator == 0).
  const common::TraceRecorder& trace_recorder() const noexcept {
    return *recorder_;
  }
  /// Always-on per-cause discard counters ("q<id>.drop.*").
  const common::DropLedger& drop_ledger() const noexcept { return *ledger_; }
  // Export layer (src/obs/, docs/OBSERVABILITY.md). All three are pure
  // functions of deterministic inputs, so repeated calls (and stepped-mode
  // runs at any worker count) produce byte-identical output.

  /// chrome://tracing / Perfetto event-array JSON of this query's recorded
  /// spans (pid = query id, one lane per pipeline stage, drop-cause
  /// counters from the ledger). Span cap from EngineConfig::obs_export.
  std::string export_chrome_trace() const;
  /// Prometheus text exposition of this query's registry slice ("q<id>.").
  std::string export_metrics() const;
  /// flamegraph.pl collapsed-stack profile of this query's executor
  /// stage-profiler counters (empty unless EngineConfig::executor_profiler).
  std::string export_profile() const;

 private:
  friend class NetAlytics;

  std::uint64_t id_ = 0;
  DeploymentPlan plan_;
  bool finished_ = false;
  common::Timestamp start_time = 0;
  common::Timestamp end_time = 0;  // 0 = no deadline
  common::Timestamp last_tick = 0;

  std::vector<std::string> monitor_ids;                 // orchestrator ids
  std::vector<nf::Monitor*> monitors;                   // borrowed
  std::vector<std::unique_ptr<mq::Producer>> producers; // one per monitor
  std::vector<std::pair<sdn::SwitchId, std::uint64_t>> rule_cookies;
  std::vector<std::unique_ptr<stream::TopologyExecutor>> topologies;
  std::vector<stream::Tuple> results_;
  double final_sample_rate_ = 1.0;

  common::MetricsRegistry* registry_ = nullptr;  // the engine's registry
  const NetAlytics* engine_ = nullptr;           // for query_range
  std::string metrics_prefix_;                   // "q<id>"
  std::unique_ptr<common::StageTracer> tracer_;
  std::unique_ptr<common::TraceRecorder> recorder_;
  std::unique_ptr<common::DropLedger> ledger_;
};

/// Conservation accounting over one query's pipeline: every packet the
/// monitors received either became result tuples, was discarded for a
/// ledger-accounted cause, or is still in flight between stages. Exact
/// (residual() == 0) for deterministic runs of record-preserving
/// processors (identity), where one shipped record is one result tuple;
/// aggregating processors fold many records into one tuple, so only the
/// drop/in-flight terms are meaningful there.
struct ReconcileReport {
  std::uint64_t packets_in = 0;    // monitor rx_packets (pre-drop)
  std::uint64_t tuples_out = 0;    // tuples delivered to the result sink
  std::uint64_t losses = 0;        // Σ ledger loss causes (incl. broker retention)
  std::uint64_t in_flight = 0;     // producer held + broker unread + spout buffered
  std::uint64_t tick_records = 0;  // records minted by parser window ticks
  std::uint64_t extra_records = 0; // records beyond a packet's first
  std::uint64_t duplicated = 0;    // broker at-least-once duplicate deliveries

  /// packets_in − (tuples_out + losses + in_flight) corrected for record
  /// multiplicity: tick and extra records reached the sink without being
  /// (whole) packets, duplicates reached it twice.
  std::int64_t residual() const noexcept {
    return static_cast<std::int64_t>(packets_in) -
           static_cast<std::int64_t>(tuples_out + losses + in_flight) +
           static_cast<std::int64_t>(tick_records + extra_records + duplicated);
  }
  bool exact() const noexcept { return residual() == 0; }

  /// One "term value" line per term plus the residual verdict.
  std::string render() const;
};

class NetAlytics {
 public:
  explicit NetAlytics(Emulation& emu, EngineConfig config = {});

  /// Parse, validate, compile and deploy a query. The returned handle is
  /// owned by the engine and stays valid until the engine is destroyed.
  common::Expected<QueryHandle*> submit(std::string_view text,
                                        common::Timestamp now);

  /// Advance the analytics side: drain processors, run periodic ticks,
  /// enforce LIMITs, and drive feedback sampling. Call as virtual time
  /// advances (at least once per tick interval).
  void pump(common::Timestamp now);

  /// Tear down a query now (uninstall rules, flush monitors, final tick).
  void stop_query(QueryHandle& q, common::Timestamp now);
  void stop_all(common::Timestamp now);

  mq::Cluster& cluster() noexcept { return cluster_; }
  nf::NfvOrchestrator& orchestrator() noexcept { return orchestrator_; }
  Emulation& emulation() noexcept { return emu_; }

  /// The engine-wide metrics registry every layer publishes into.
  common::MetricsRegistry& metrics() noexcept { return metrics_; }
  const common::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Execute a historical range query against the tiered store, merged
  /// with the live registry head (so whole-range counter sums equal the
  /// registry's current values even between captures, and queries work —
  /// from the head alone — with the store disabled).
  RangeResult query_range(const RangeQuery& q) const;
  /// The store itself, for stats (compression ratio, eviction counts).
  const tsdb::TieredStore& timeseries_store() const noexcept { return store_; }

  /// Prometheus text exposition of the whole registry (optionally filtered
  /// to names starting with `prefix`), using EngineConfig::obs_export for
  /// the family prefix. The exposition every external scraper reads; see
  /// docs/OBSERVABILITY.md.
  std::string export_metrics(std::string_view prefix = {}) const;

  const EngineConfig& config() const noexcept { return config_; }
  /// Last virtual timestamp the engine saw (submit/pump).
  common::Timestamp now() const noexcept { return now_; }

  /// Prove drop accounting closes for `q`: every monitor-received packet is
  /// attributed to a result tuple, a ledger'd drop cause, or in-flight
  /// buffering. Broker-level terms (retention evictions, duplicates,
  /// unread backlog) are engine-wide, so the report is only attributable
  /// when `q` is the sole query on the cluster.
  ReconcileReport reconcile(const QueryHandle& q) const;

  /// Engine-wide drop ledger (broker retention lands here; per-query causes
  /// land in each query's own ledger).
  const common::DropLedger& drop_ledger() const noexcept { return engine_ledger_; }

  /// Automation hooks (§7.3): subsequently submitted top-k queries write
  /// rankings to `store` and drive the updater callbacks.
  void set_automation(stream::KvStore* store, stream::UpdaterConfig config,
                      stream::UpdaterBolt::ScaleCallback on_scale_up,
                      stream::UpdaterBolt::ScaleCallback on_scale_down);

  const std::deque<std::unique_ptr<QueryHandle>>& queries() const noexcept {
    return queries_;
  }

 private:
  void deploy_monitors(QueryHandle& q, common::Timestamp now);
  void build_processors(QueryHandle& q);
  /// `occupancy` is the pre-drain aggregation-buffer pressure.
  void apply_feedback(QueryHandle& q, double occupancy);

  Emulation& emu_;
  EngineConfig config_;
  // Declared before the cluster/orchestrator/queries so it outlives every
  // component holding pointers into it.
  common::MetricsRegistry metrics_;
  // Likewise: the brokers hold a pointer to this ledger.
  common::DropLedger engine_ledger_;
  mq::Cluster cluster_;
  nf::NfvOrchestrator orchestrator_;
  std::deque<std::unique_ptr<QueryHandle>> queries_;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t next_producer_id_ = 1;
  common::Timestamp now_ = 0;
  tsdb::TieredStore store_;
  common::Timestamp last_capture_ = 0;
  bool captured_once_ = false;

  // Engine-level counters ("engine.*"), resolved once in the constructor.
  common::Counter* queries_submitted_ = nullptr;
  common::Counter* queries_finished_ = nullptr;
  common::Counter* pumps_ = nullptr;

  stream::KvStore* automation_store_ = nullptr;
  stream::UpdaterConfig automation_config_{};
  stream::UpdaterBolt::ScaleCallback automation_up_;
  stream::UpdaterBolt::ScaleCallback automation_down_;
};

}  // namespace netalytics::core
