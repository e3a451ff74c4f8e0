// Named processors: the PROCESS clause of a NetAlytics query names one of
// these and the compiler instantiates the corresponding topology over the
// aggregation layer (§3.3-3.4). "NetAlytics provides topologies for several
// common processing tasks, and we name the topology by connecting a set of
// blocks' names" (§3.2) — e.g. diff-group takes two streams and calculates
// their difference value, then groups the results by some attribute.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "mq/cluster.hpp"
#include "stream/bolts.hpp"
#include "stream/kvstore.hpp"
#include "stream/topk.hpp"
#include "stream/topology.hpp"

namespace netalytics::stream {

/// Key=value arguments from the PROCESS clause, e.g. (top-k: k=10, w=10s).
struct ProcessorParams {
  std::map<std::string, std::string> args;

  std::string get(const std::string& key, const std::string& fallback) const;
  /// A count such as k: "<n>" only. `fallback` when the argument is absent;
  /// an error naming the argument when it is malformed.
  common::Expected<std::uint64_t> get_u64(const std::string& key,
                                          std::uint64_t fallback) const;
  /// A window length such as w, in ticks (one per core::kTickInterval,
  /// one second): "<n>", "<n>s" or "<n>m" (60·n), the units the LIMIT
  /// clause reads. Absent and
  /// malformed as for get_u64.
  common::Expected<std::uint64_t> get_ticks(const std::string& key,
                                            std::uint64_t fallback) const;
};

/// Everything a processor needs from its environment.
struct ProcessorContext {
  mq::Cluster* cluster = nullptr;  // aggregation layer (required)
  std::string consumer_group = "netalytics";
  std::vector<std::string> topics;  // parser topics, in PARSE order
  /// Final results land here (required). The engine's sink also feeds
  /// windowed emissions (top-k, group-*) into its time-series store as
  /// per-tick "q<id>.result.proc<i>.<key>" gauge series.
  SinkBolt::Callback result_sink;
  /// Optional automation hooks (top-k only).
  KvStore* kvstore = nullptr;
  UpdaterConfig updater_config{};
  UpdaterBolt::ScaleCallback on_scale_up;
  UpdaterBolt::ScaleCallback on_scale_down;
  /// Parallelism for the scalable stages (parse/count/rank).
  std::size_t parallelism = 1;
  /// Spout tasks per source: all tasks of one source share a consumer
  /// group and split the topic's partitions via the cluster's
  /// GroupCoordinator (mq/group.hpp) instead of each draining every
  /// broker. 1 (default) keeps a single member that owns everything.
  std::size_t spout_group_size = 1;
  /// Chaos plan handed to every KafkaSpout (null = no injection).
  common::FaultPlan* fault_plan = nullptr;
  /// Observability: when `metrics` is set, spouts and windowed bolts publish
  /// into it under "<metrics_prefix>.<component>...", and spouts stamp the
  /// consume stage on `tracer` (both optional).
  common::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "stream";
  common::StageTracer* tracer = nullptr;
  /// Trace provenance: spouts stamp per-trace consume spans on `recorder`;
  /// spouts and stateful bolts attribute discards to `ledger` (both
  /// optional).
  common::TraceRecorder* trace_recorder = nullptr;
  common::DropLedger* drop_ledger = nullptr;
};

/// Tuple schema the parsing bolt produces for a parser topic
/// (["id","ts", <record fields...>]); empty Fields for unknown topics.
Fields record_schema(const std::string& topic);

/// True if `name` names a processor this library provides.
bool is_known_processor(const std::string& name);
std::vector<std::string> processor_names();

/// Build the topology for processor `name`. Errors (unknown processor,
/// missing topics, bad params) are returned, not thrown — queries are user
/// input.
common::Expected<TopologySpec> build_processor(const std::string& name,
                                               const ProcessorParams& params,
                                               const ProcessorContext& ctx);

}  // namespace netalytics::stream
