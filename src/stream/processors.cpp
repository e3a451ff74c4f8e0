#include "stream/processors.hpp"

#include <algorithm>
#include <limits>

#include "common/string_util.hpp"
#include "stream/kafka_spout.hpp"

namespace netalytics::stream {

namespace {

constexpr const char* kProcessors[] = {
    "top-k",     "diff-group", "diff-group-avg", "group-sum", "group-avg",
    "group-max", "group-min",  "group-count",    "identity",  "join",
};

std::size_t field_index(const Fields& schema, const std::string& name) {
  const auto it = std::find(schema.begin(), schema.end(), name);
  return it == schema.end() ? schema.size()
                            : static_cast<std::size_t>(it - schema.begin());
}

/// Expand the paper's group aliases (destIP, srcIP, pair, get) to schema
/// field names; otherwise split a comma-separated field list.
std::vector<std::string> expand_group(const std::string& group) {
  if (group == "destIP" || group == "destip") return {"dst_ip"};
  if (group == "srcIP" || group == "srcip") return {"src_ip"};
  if (group == "pair") return {"src_ip", "dst_ip"};
  std::vector<std::string> out;
  for (const auto part : common::split(group, ',')) {
    out.emplace_back(common::trim(part));
  }
  return out;
}

common::Error err(std::string message) {
  return common::Error{"processor", std::move(message)};
}

/// Common front of every processor: Kafka spout + parsing bolt for one
/// topic. Returns the parse component's name.
std::string add_source(TopologyBuilder& b, const ProcessorContext& ctx,
                       const std::string& topic, std::size_t index) {
  const std::string spout_name = "spout" + std::to_string(index);
  const std::string parse_name = "parse" + std::to_string(index);
  mq::Cluster* cluster = ctx.cluster;
  common::FaultPlan* faults = ctx.fault_plan;
  common::MetricsRegistry* metrics = ctx.metrics;
  common::StageTracer* tracer = ctx.tracer;
  common::TraceRecorder* recorder = ctx.trace_recorder;
  common::DropLedger* ledger = ctx.drop_ledger;
  const std::string spout_prefix = ctx.metrics_prefix + "." + spout_name;
  const std::string group = ctx.consumer_group + "-" + spout_name;
  const std::size_t group_size = std::max<std::size_t>(1, ctx.spout_group_size);
  // The executor instantiates tasks sequentially in task-index order, so
  // the shared counter hands each task its index — and the spouts join the
  // consumer group in that same order, making member ranks (and therefore
  // the partition assignment) deterministic (docs/DETERMINISM.md).
  auto task_counter = std::make_shared<std::size_t>(0);
  b.set_spout(
      spout_name,
      [cluster, group, topic, faults, metrics, tracer, recorder, ledger,
       spout_prefix, task_counter] {
        const std::size_t task = (*task_counter)++;
        auto spout = std::make_unique<KafkaSpout>(*cluster, group, topic,
                                                  /*poll_batch=*/64, faults, task);
        if (metrics != nullptr) {
          spout->bind_metrics(*metrics, spout_prefix, tracer, recorder, ledger);
        }
        return spout;
      },
      {"payload"}, group_size);
  b.set_bolt(
       parse_name, [] { return std::make_unique<ParsingBolt>(); },
       record_schema(topic), ctx.parallelism)
      .shuffle_grouping(spout_name);
  return parse_name;
}

common::Expected<TopologySpec> build_topk(const ProcessorParams& params,
                                          const ProcessorContext& ctx) {
  const std::string topic = ctx.topics.front();
  const Fields schema = record_schema(topic);
  if (schema.empty()) return err("top-k: unknown parser topic '" + topic + "'");

  // Default counted field: the record's natural key (URL for http_get,
  // key for memcached, statement for mysql); overridable via field=.
  std::string key_field = params.get("field", "");
  if (key_field.empty()) {
    if (topic == "http_get") key_field = "value";
    else if (topic == "memcached_get") key_field = "key";
    else if (topic == "mysql_query") key_field = "statement";
    else key_field = schema.back();
  }
  const std::size_t key_index = field_index(schema, key_field);
  if (key_index >= schema.size()) {
    return err("top-k: field '" + key_field + "' not in schema of " + topic);
  }

  const auto top = params.get_u64("k", 10);
  if (!top) return top.error();
  const auto window = params.get_ticks("w", 10);
  if (!window) return window.error();
  const std::size_t k = *top;
  const std::size_t slots = std::max<std::uint64_t>(1, *window);

  TopologyBuilder b("top-k");
  std::string upstream = add_source(b, ctx, topic, 0);

  if (topic == "http_get") {
    // Count only GET requests; response records carry a numeric status.
    const std::size_t kind_index = field_index(schema, "kind");
    b.set_bolt(
         "filter",
         [kind_index] {
           return std::make_unique<FilterBolt>([kind_index](const Tuple& t) {
             return std::holds_alternative<std::string>(t.at(kind_index)) &&
                    as_str(t.at(kind_index)) == "request";
           });
         },
         schema, ctx.parallelism)
        .shuffle_grouping(upstream);
    upstream = "filter";
  }

  common::Gauge* count_window =
      ctx.metrics == nullptr
          ? nullptr
          : &ctx.metrics->gauge(ctx.metrics_prefix + ".count.window_keys");
  common::DropLedger* count_ledger = ctx.drop_ledger;
  b.set_bolt(
       "count",
       [key_index, slots, count_window, count_ledger] {
         auto bolt = std::make_unique<CountingBolt>(key_index, slots);
         bolt->set_window_gauge(count_window);
         bolt->set_drop_ledger(count_ledger);
         return bolt;
       },
       {"key", "count"}, ctx.parallelism)
      .fields_grouping(upstream, {schema[key_index]});
  b.set_bolt(
       "rank", [k] { return std::make_unique<IntermediateRankingsBolt>(k); },
       {"key", "count"}, ctx.parallelism)
      .fields_grouping("count", {"key"});
  b.set_bolt(
       "total", [k] { return std::make_unique<TotalRankingsBolt>(k); },
       {"rank", "key", "count"})
      .global_grouping("rank");

  std::string tail = "total";
  if (ctx.kvstore != nullptr) {
    KvStore* store = ctx.kvstore;
    b.set_bolt(
         "db", [store] { return std::make_unique<DatabaseBolt>(*store); },
         {"rank", "key", "count"})
        .global_grouping("total");
    tail = "db";
  }
  if (ctx.on_scale_up || ctx.on_scale_down) {
    const UpdaterConfig ucfg = ctx.updater_config;
    auto up = ctx.on_scale_up;
    auto down = ctx.on_scale_down;
    b.set_bolt(
         "updater",
         [ucfg, up, down] { return std::make_unique<UpdaterBolt>(ucfg, up, down); },
         {})
        .global_grouping(tail);
  }
  auto sink = ctx.result_sink;
  b.set_bolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); }, {})
      .global_grouping(tail);
  return b.build();
}

common::Expected<TopologySpec> build_diff_group(const ProcessorParams& params,
                                                const ProcessorContext& ctx) {
  const auto conn_it =
      std::find(ctx.topics.begin(), ctx.topics.end(), "tcp_conn_time");
  if (conn_it == ctx.topics.end()) {
    return err("diff-group requires the tcp_conn_time parser");
  }
  const std::string group = params.get("group", "destIP");
  const std::string agg = params.get("agg", "avg");

  TopologyBuilder b("diff-group");
  add_source(b, ctx, "tcp_conn_time", 0);

  // Diff start/end by id. Fields-grouped by id so parallel instances see
  // both events of a connection.
  DiffConfig dcfg;
  dcfg.passthrough = {3, 4, 5, 6};  // src_ip, dst_ip, src_port, dst_port
  common::DropLedger* diff_ledger = ctx.drop_ledger;
  b.set_bolt(
       "diff",
       [dcfg, diff_ledger] {
         auto bolt = std::make_unique<DiffBolt>(dcfg);
         bolt->set_drop_ledger(diff_ledger);
         return bolt;
       },
       {"id", "diff", "src_ip", "dst_ip", "src_port", "dst_port"},
       ctx.parallelism)
      .fields_grouping("parse0", {"id"});

  std::string value_source = "diff";
  Fields value_schema = {"id", "diff", "src_ip", "dst_ip", "src_port", "dst_port"};

  if (group == "get") {
    // Join connection durations with the requested URL (§7.2).
    if (std::find(ctx.topics.begin(), ctx.topics.end(), "http_get") ==
        ctx.topics.end()) {
      return err("diff-group group=get requires the http_get parser");
    }
    const Fields http_schema = record_schema("http_get");
    add_source(b, ctx, "http_get", 1);
    const std::size_t kind_index = field_index(http_schema, "kind");
    b.set_bolt(
         "filter1",
         [kind_index] {
           return std::make_unique<FilterBolt>([kind_index](const Tuple& t) {
             return std::holds_alternative<std::string>(t.at(kind_index)) &&
                    as_str(t.at(kind_index)) == "request";
           });
         },
         http_schema, ctx.parallelism)
        .shuffle_grouping("parse1");

    JoinConfig jcfg;
    jcfg.left_arity = 6;  // diff output
    jcfg.left_passthrough = {1};   // diff value
    jcfg.right_passthrough = {3};  // url
    common::DropLedger* join_ledger = ctx.drop_ledger;
    b.set_bolt(
         "join",
         [jcfg, join_ledger] {
           auto bolt = std::make_unique<JoinByIdBolt>(jcfg);
           bolt->set_drop_ledger(join_ledger);
           return bolt;
         },
         {"id", "diff", "url"}, ctx.parallelism)
        .fields_grouping("diff", {"id"})
        .fields_grouping("filter1", {"id"});
    value_source = "join";
    value_schema = {"id", "diff", "url"};
  }

  auto sink = ctx.result_sink;
  if (agg == "none") {
    b.set_bolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); }, {})
        .shuffle_grouping(value_source);
    return b.build();
  }

  AggOp op = AggOp::avg;
  if (agg == "sum") op = AggOp::sum;
  else if (agg == "max") op = AggOp::max;
  else if (agg == "min") op = AggOp::min;
  else if (agg != "avg") return err("diff-group: unknown agg '" + agg + "'");

  GroupAggConfig gcfg;
  gcfg.op = op;
  gcfg.value_index = 1;  // diff
  Fields out_fields;
  const std::vector<std::string> group_fields =
      group == "get" ? std::vector<std::string>{"url"} : expand_group(group);
  for (const auto& f : group_fields) {
    const std::size_t idx = field_index(value_schema, f);
    if (idx >= value_schema.size()) {
      return err("diff-group: group field '" + f + "' unavailable");
    }
    gcfg.group_indices.push_back(idx);
    out_fields.push_back(f);
  }
  out_fields.push_back("agg");
  out_fields.push_back("samples");

  common::Gauge* group_window =
      ctx.metrics == nullptr
          ? nullptr
          : &ctx.metrics->gauge(ctx.metrics_prefix + ".group.window_keys");
  b.set_bolt(
       "group",
       [gcfg, group_window] {
         auto bolt = std::make_unique<GroupAggBolt>(gcfg);
         bolt->set_window_gauge(group_window);
         return bolt;
       },
       out_fields)
      .global_grouping(value_source);
  b.set_bolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); }, {})
      .global_grouping("group");
  return b.build();
}

common::Expected<TopologySpec> build_group_agg(const std::string& name,
                                               const ProcessorParams& params,
                                               const ProcessorContext& ctx) {
  const std::string topic = ctx.topics.front();
  const Fields schema = record_schema(topic);
  if (schema.empty()) return err(name + ": unknown parser topic '" + topic + "'");

  AggOp op = AggOp::sum;
  if (name == "group-avg") op = AggOp::avg;
  else if (name == "group-max") op = AggOp::max;
  else if (name == "group-min") op = AggOp::min;
  else if (name == "group-count") op = AggOp::count;

  // Sensible per-parser defaults: tcp_pkt_size sums bytes per src/dst pair
  // (§7.1 Fig. 11); mysql_query aggregates latency per statement.
  std::string default_group = "pair";
  std::string default_value = "bytes";
  if (topic == "mysql_query") {
    default_group = "statement";
    default_value = "latency_ns";
  }

  GroupAggConfig gcfg;
  gcfg.op = op;
  Fields out_fields;
  for (const auto& f : expand_group(params.get("group", default_group))) {
    const std::size_t idx = field_index(schema, f);
    if (idx >= schema.size()) {
      return err(name + ": group field '" + f + "' not in schema of " + topic);
    }
    gcfg.group_indices.push_back(idx);
    out_fields.push_back(f);
  }
  if (op != AggOp::count) {
    const std::string value = params.get("value", default_value);
    const std::size_t idx = field_index(schema, value);
    if (idx >= schema.size()) {
      return err(name + ": value field '" + value + "' not in schema of " + topic);
    }
    gcfg.value_index = idx;
  }
  out_fields.push_back("agg");
  out_fields.push_back("samples");

  TopologyBuilder b(name);
  const std::string parse = add_source(b, ctx, topic, 0);
  common::Gauge* group_window =
      ctx.metrics == nullptr
          ? nullptr
          : &ctx.metrics->gauge(ctx.metrics_prefix + ".group.window_keys");
  b.set_bolt(
       "group",
       [gcfg, group_window] {
         auto bolt = std::make_unique<GroupAggBolt>(gcfg);
         bolt->set_window_gauge(group_window);
         return bolt;
       },
       out_fields)
      .global_grouping(parse);
  auto sink = ctx.result_sink;
  b.set_bolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); }, {})
      .global_grouping("group");
  return b.build();
}

// "join" — the operation §3.4 leaves as future work, built from the same
// blocks: correlate the records of the query's first two parsers by their
// shared flow id and emit the merged rows. Params: left=/right= select the
// joined value field from each side (default: each record's last field).
common::Expected<TopologySpec> build_join(const ProcessorParams& params,
                                          const ProcessorContext& ctx) {
  if (ctx.topics.size() < 2) {
    return err("join requires two parsers in the PARSE clause");
  }
  const std::string& left_topic = ctx.topics[0];
  const std::string& right_topic = ctx.topics[1];
  if (left_topic == right_topic) {
    return err("join requires two distinct parsers");
  }
  const Fields left_schema = record_schema(left_topic);
  const Fields right_schema = record_schema(right_topic);
  if (left_schema.empty() || right_schema.empty()) {
    return err("join: unknown parser topic");
  }

  const std::string left_field = params.get("left", left_schema.back());
  const std::string right_field = params.get("right", right_schema.back());
  const std::size_t left_index = field_index(left_schema, left_field);
  const std::size_t right_index = field_index(right_schema, right_field);
  if (left_index >= left_schema.size()) {
    return err("join: field '" + left_field + "' not in schema of " + left_topic);
  }
  if (right_index >= right_schema.size()) {
    return err("join: field '" + right_field + "' not in schema of " + right_topic);
  }

  TopologyBuilder b("join");
  add_source(b, ctx, left_topic, 0);
  add_source(b, ctx, right_topic, 1);

  // Tag each side so the join can tell streams apart regardless of the
  // record layouts' widths.
  Fields left_tagged = left_schema;
  left_tagged.push_back("side");
  Fields right_tagged = right_schema;
  right_tagged.push_back("side");
  b.set_bolt("tagL", [] { return std::make_unique<TagBolt>("L"); }, left_tagged,
             ctx.parallelism)
      .shuffle_grouping("parse0");
  b.set_bolt("tagR", [] { return std::make_unique<TagBolt>("R"); }, right_tagged,
             ctx.parallelism)
      .shuffle_grouping("parse1");

  JoinConfig jcfg;
  jcfg.by_tag = true;
  jcfg.left_passthrough = {left_index};
  jcfg.right_passthrough = {right_index};
  common::DropLedger* join_ledger = ctx.drop_ledger;
  b.set_bolt(
       "join",
       [jcfg, join_ledger] {
         auto bolt = std::make_unique<JoinByIdBolt>(jcfg);
         bolt->set_drop_ledger(join_ledger);
         return bolt;
       },
       {"id", left_field, right_field}, ctx.parallelism)
      .fields_grouping("tagL", {"id"})
      .fields_grouping("tagR", {"id"});

  auto sink = ctx.result_sink;
  b.set_bolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); }, {})
      .shuffle_grouping("join");
  return b.build();
}

common::Expected<TopologySpec> build_identity(const ProcessorContext& ctx) {
  TopologyBuilder b("identity");
  auto sink = ctx.result_sink;
  std::vector<std::string> parses;
  for (std::size_t i = 0; i < ctx.topics.size(); ++i) {
    parses.push_back(add_source(b, ctx, ctx.topics[i], i));
  }
  auto handle = b.set_bolt(
      "sink", [sink] { return std::make_unique<SinkBolt>(sink); }, {});
  for (const auto& p : parses) handle.shuffle_grouping(p);
  return b.build();
}

}  // namespace

std::string ProcessorParams::get(const std::string& key,
                                 const std::string& fallback) const {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

common::Expected<std::uint64_t> ProcessorParams::get_u64(
    const std::string& key, std::uint64_t fallback) const {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  std::uint64_t v = 0;
  if (!common::parse_u64(it->second, v)) {
    return err("argument " + key + "='" + it->second + "' is not a count");
  }
  return v;
}

common::Expected<std::uint64_t> ProcessorParams::get_ticks(
    const std::string& key, std::uint64_t fallback) const {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  std::string_view s = it->second;
  std::uint64_t scale = 1;
  if (s.ends_with('s')) {
    s.remove_suffix(1);
  } else if (s.ends_with('m')) {
    s.remove_suffix(1);
    scale = 60;
  }
  std::uint64_t v = 0;
  if (!common::parse_u64(s, v) ||
      v > std::numeric_limits<std::uint64_t>::max() / scale) {
    return err("argument " + key + "='" + it->second +
               "' is not a duration (<n>, <n>s or <n>m)");
  }
  return v * scale;
}

Fields record_schema(const std::string& topic) {
  if (topic == "tcp_flow_key") {
    return {"id", "ts", "src_ip", "dst_ip", "src_port", "dst_port"};
  }
  if (topic == "tcp_conn_time") {
    return {"id", "ts", "event", "src_ip", "dst_ip", "src_port", "dst_port"};
  }
  if (topic == "tcp_pkt_size") {
    return {"id", "ts", "src_ip", "dst_ip", "dst_port", "bytes", "packets"};
  }
  if (topic == "http_get") return {"id", "ts", "kind", "value"};
  if (topic == "memcached_get") return {"id", "ts", "key"};
  if (topic == "mysql_query") return {"id", "ts", "statement", "latency_ns"};
  return {};
}

bool is_known_processor(const std::string& name) {
  return std::find(std::begin(kProcessors), std::end(kProcessors), name) !=
         std::end(kProcessors);
}

std::vector<std::string> processor_names() {
  return {std::begin(kProcessors), std::end(kProcessors)};
}

common::Expected<TopologySpec> build_processor(const std::string& name,
                                               const ProcessorParams& params,
                                               const ProcessorContext& ctx) {
  if (ctx.cluster == nullptr) return err("no aggregation cluster configured");
  if (!ctx.result_sink) return err("no result sink configured");
  if (ctx.topics.empty()) return err("processor has no input topics");

  if (name == "top-k") return build_topk(params, ctx);
  if (name == "diff-group" || name == "diff-group-avg") {
    return build_diff_group(params, ctx);
  }
  if (name.starts_with("group-") && is_known_processor(name)) {
    return build_group_agg(name, params, ctx);
  }
  if (name == "join") return build_join(params, ctx);
  if (name == "identity") return build_identity(ctx);
  return err("unknown processor '" + name + "'");
}

}  // namespace netalytics::stream
