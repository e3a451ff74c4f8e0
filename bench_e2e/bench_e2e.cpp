// bench_e2e: whole-pipeline packets/s/core through the real NetAlytics
// façade — pktgen frames -> Emulation::transmit (SDN fabric, mirror rules)
// -> inline NFV monitor (net decode, parser, output batching) -> mq
// producer/brokers -> stepped stream executor (spout, bolts, sink) ->
// results, tsdb capture and a dashboard reader — plus a per-layer
// breakdown from an outside-in layer replay. See README.md.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out <dir>]
//
// One process runs one workload on one thread (stepped executor with one
// worker, monitors in inline mode). Frames are generated from the seed
// before anything is timed. Every workload is closed-loop: the next packet
// goes out as soon as the previous call returns; virtual timestamps follow
// a fixed schedule that only sets window and tick semantics.
//
// --trace 0 repeats fresh-engine repetitions for --seconds and builds the
// end-to-end timings from each pump's fastest execution across them:
// interference on a shared core only ever slows work, and every
// repetition repeats the same pumps. --trace 1 adds a traced façade run
// (wall-clock spans around every façade call, executor profiler on) and a
// layer replay that feeds the same frames through each layer's public
// functions in pipeline order, and reports the per-layer metrics. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}; a
// fuller result file (rep summaries, p99 context, affinity) goes to --out.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/emulation.hpp"
#include "core/netalytics.hpp"
#include "fed/federation.hpp"
#include "net/decode.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/generator.hpp"
#include "pktgen/payloads.hpp"
#include "query/semantic.hpp"
#include "stream/processors.hpp"

using namespace netalytics;

namespace {

using Clock = std::chrono::steady_clock;
using common::Duration;
using common::Timestamp;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point a) { return secs(a, Clock::now()); }

double median(const std::vector<double>& v) { return bench_json::quantile(v, 0.5); }
double p99(const std::vector<double>& v) { return bench_json::quantile(v, 0.99); }

constexpr std::size_t kHostsPerRack = 4;  // h0..h3 in rack 0, h5 in rack 1
constexpr std::size_t kUrls = 1000;
constexpr double kZipf = 1.0;
constexpr std::size_t kFlows = 512;
constexpr std::size_t kTopK = 10;                     // the queries' k=10
constexpr Duration kTopkWindow = 30 * common::kSecond;  // the queries' w=30s
constexpr std::size_t kHttpPoolFrames = 65536;
constexpr std::size_t kMinSetups = 30;

// ---- workloads -----------------------------------------------------------

enum class Reads {
  topk_view,  // query_range("mon", sum) + view().latest(1)
  drain,      // query_range("mon", sum) + results_since(cursor)
  dashboard,  // whole-history mon sum, mon avg graph, result last
  fleet,      // parent top_k() + fleet query_range
};

struct Workload {
  const char* name;
  const char* query;
  bool conn_traffic;  // tcp SYN/data/FIN instead of HTTP GETs
  std::size_t frame_bytes;
  std::size_t pkts_per_pump;
  Duration pump_every;
  std::size_t pumps;            // per repetition
  std::size_t first_read_pump;  // the dashboard reads from this pump on
  std::size_t children;         // 0 = one engine, N = federation of N
  Reads reads;
  /// Check the final ranking against the bench's own top-k. Off where
  /// ranks 10 and 11 are a few requests apart: TotalRankingsBolt keeps
  /// the last count of a key that left every local top-k, so near-ties
  /// can leave a stale row there.
  bool check_ranking;

  std::size_t packets() const { return pumps * pkts_per_pump; }
  bool topk() const { return std::strstr(query, "top-k") != nullptr; }
};

// Clients h0-h3 send to h5:80, so every frame crosses two ToR switches.
const Workload kWorkloads[] = {
    {"http_topk",
     "PARSE http_get FROM * TO h5:80 PROCESS (top-k: k=10, w=30s)", false,
     512, 1000, 100 * common::kMillisecond, 600, 0, 0, Reads::topk_view, true},
    {"conn_identity_64",
     "PARSE tcp_conn_time FROM * TO h5:80 PROCESS (identity)", true, 64, 1000,
     100 * common::kMillisecond, 600, 0, 0, Reads::drain, false},
    {"history_dashboard",
     "PARSE http_get FROM * TO h5:80 PROCESS (top-k: k=10, w=30s)", false,
     512, 100, common::kSecond, 7800, 7200, 0, Reads::dashboard, false},
    {"fed_fanin_4", "PARSE http_get FROM * TO h5:80 PROCESS (identity)",
     false, 512, 1000, 100 * common::kMillisecond, 300, 0, 4, Reads::fleet, false},
};

Timestamp packet_ts(const Workload& w, std::size_t n) {
  const std::size_t k = n / w.pkts_per_pump;
  const std::size_t j = n % w.pkts_per_pump;
  return k * w.pump_every + j * (w.pump_every / w.pkts_per_pump);
}
bool is_tick_pump(const Workload& w, std::size_t k) {
  return ((k + 1) * w.pump_every) % common::kSecond == 0;
}

// ---- traffic -------------------------------------------------------------

/// Pre-generated frames, replayed cyclically. Packet n of a repetition is
/// pool frame n % size(); the pool records which URL and which fleet
/// child each frame carries so the gates can recompute the answers.
struct Traffic {
  std::size_t stride = 0;
  std::vector<std::byte> bytes;    // frames back to back, `stride` each
  std::vector<std::uint32_t> url;  // HTTP: URL rank per frame
  std::vector<std::uint8_t> child; // fleet: child engine per frame
  std::vector<std::string> urls;   // URL rank -> URL

  std::size_t size() const { return bytes.size() / stride; }
  std::span<const std::byte> frame(std::size_t n) const {
    return {bytes.data() + (n % size()) * stride, stride};
  }
  void add(const std::vector<std::byte>& f) {
    if (f.size() != stride) throw std::logic_error("frame size mismatch");
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
};

Traffic make_traffic(const Workload& w, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto emu = core::Emulation::make_small(kHostsPerRack);
  const net::Ipv4Addr server = *emu.ip_of_name("h5");
  // kFlows distinct client five-tuples: h0..h3 with seeded source ports.
  std::vector<net::FiveTuple> flows;
  std::vector<bool> used(65536, false);
  while (flows.size() < kFlows) {
    const auto port = static_cast<net::Port>(rng.uniform(1024, 65535));
    if (used[port]) continue;
    used[port] = true;
    const std::string client = "h" + std::to_string(flows.size() % 4);
    flows.push_back({*emu.ip_of_name(client), server, port, 80,
                     static_cast<std::uint8_t>(net::IpProto::tcp)});
  }

  Traffic t;
  t.stride = w.frame_bytes;
  if (w.conn_traffic) {
    // One connection per flow in turn: SYN, one data segment, FIN.
    for (const auto& flow : flows) {
      pktgen::TcpFrameSpec f;
      f.flow = flow;
      f.pad_to_frame_size = w.frame_bytes;
      for (const auto flags :
           {net::tcp_flags::kSyn,
            static_cast<std::uint8_t>(net::tcp_flags::kAck | net::tcp_flags::kPsh),
            static_cast<std::uint8_t>(net::tcp_flags::kFin | net::tcp_flags::kAck)}) {
        f.flags = flags;
        t.add(pktgen::build_tcp_frame(f));
      }
    }
    return t;
  }

  const pktgen::UrlWorkload names(kUrls, kZipf, seed);
  for (std::size_t i = 0; i < kUrls; ++i) t.urls.push_back(names.url(i));
  const common::ZipfSampler zipf(kUrls, kZipf);
  for (std::size_t i = 0; i < kHttpPoolFrames; ++i) {
    const auto rank = static_cast<std::uint32_t>(zipf.sample(rng));
    const auto payload = pktgen::http_get_request(t.urls[rank], "h5");
    pktgen::TcpFrameSpec f;
    f.flow = flows[rng.uniform(0, kFlows - 1)];
    f.flags = net::tcp_flags::kAck | net::tcp_flags::kPsh;
    f.payload = payload;
    f.pad_to_frame_size = w.frame_bytes;
    t.add(pktgen::build_tcp_frame(f));
    t.url.push_back(rank);
    t.child.push_back(w.children == 0
                          ? 0
                          : static_cast<std::uint8_t>(rng.uniform(0, w.children - 1)));
  }
  return t;
}

/// Requests per URL rank among packets with timestamp >= `from`.
std::vector<std::uint64_t> url_counts(const Workload& w, const Traffic& t,
                                      Timestamp from) {
  std::vector<std::uint64_t> counts(t.urls.size(), 0);
  for (std::size_t n = 0; n < w.packets(); ++n) {
    if (packet_ts(w, n) >= from) ++counts[t.url[n % t.size()]];
  }
  return counts;
}

// ---- spans (trace mode only) ---------------------------------------------

enum Lane : int { kLaneFacade = 1, kLaneFleet = 2, kLaneReplay = 3 };
const char* lane_name(int lane) {
  switch (lane) {
    case kLaneFacade: return "facade";
    case kLaneFleet: return "federation steps";
    default: return "layer replay";
  }
}

const Clock::time_point kOrigin = Clock::now();

/// Wall-clock spans around calls into the program, kept in memory and
/// written as chrome-trace JSON when the benchmark ends.
struct Spans {
  struct Span {
    const char* name;
    int lane;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans;

  void add(const char* name, int lane, Clock::time_point a, Clock::time_point b) {
    spans.push_back({name, lane, a, b});
  }
  double total_s(std::string_view name) const {
    double s = 0;
    for (const auto& sp : spans) {
      if (name == sp.name) s += secs(sp.start, sp.end);
    }
    return s;
  }
};

/// Times one call and records it when `spans` is non-null.
template <typename F>
double timed(Spans* spans, const char* name, int lane, F&& f) {
  const auto a = Clock::now();
  f();
  const auto b = Clock::now();
  if (spans != nullptr) spans->add(name, lane, a, b);
  return secs(a, b);
}

void write_chrome_trace(const std::string& path,
                        std::initializer_list<const Spans*> sets) {
  bench_json::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  for (const int lane : {kLaneFacade, kLaneFleet, kLaneReplay}) {
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", lane)
        .key("args")
        .begin_object()
        .field("name", lane_name(lane))
        .end_object()
        .end_object();
  }
  const auto us = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - kOrigin).count();
  };
  for (const Spans* set : sets) {
    for (const auto& sp : set->spans) {
      w.begin_object()
          .field("name", sp.name)
          .field("ph", "X")
          .field("pid", 1)
          .field("tid", sp.lane)
          .field("ts", us(sp.start))
          .field("dur", us(sp.end) - us(sp.start))
          .end_object();
    }
  }
  w.end_array().field("displayTimeUnit", "ns").end_object();
  if (!w.write_file(path)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
  }
}

// ---- gates ---------------------------------------------------------------

/// Outcome of the output checks; the first failure explains itself.
struct Gate {
  bool ok = true;
  std::string why;
  void check(bool cond, const std::string& what) {
    if (!cond && ok) {
      ok = false;
      why = what;
    }
  }
};

/// Σ rx_packets over a whole-range sum query result.
std::uint64_t rx_sum(const core::RangeResult& r) {
  std::uint64_t n = 0;
  for (const auto& s : r.series) {
    if (s.name.ends_with(".rx_packets") && !s.points.empty()) {
      n += static_cast<std::uint64_t>(s.points.front().value);
    }
  }
  return n;
}

/// The final ranking must be a true top-k of the URLs the bench sent in
/// the final window: every row's count equals the bench's own tally, and
/// no unranked URL outnumbers the last row (ties may rank either way).
void check_topk(Gate& g, std::span<const stream::Tuple> rows, const Traffic& t,
                const std::vector<std::uint64_t>& ref) {
  std::unordered_map<std::string, std::size_t> rank_of;
  for (std::size_t i = 0; i < t.urls.size(); ++i) rank_of[t.urls[i]] = i;
  std::vector<bool> ranked(ref.size(), false);
  std::uint64_t min_count = ~std::uint64_t{0};
  std::size_t nonzero = 0;
  for (const auto c : ref) nonzero += c != 0;
  g.check(rows.size() == std::min(kTopK, nonzero),
          "final ranking has " + std::to_string(rows.size()) + " rows");
  for (const auto& row : rows) {
    const auto it = row.size() == 3 && std::holds_alternative<std::string>(row.at(1))
                        ? rank_of.find(stream::as_str(row.at(1)))
                        : rank_of.end();
    if (it == rank_of.end()) {
      g.check(false, "final ranking row is not a sent URL");
      return;
    }
    const std::uint64_t count = stream::as_u64(row.at(2));
    g.check(count == ref[it->second], "ranked count of " + it->first + " is " +
                                          std::to_string(count) + ", sent " +
                                          std::to_string(ref[it->second]));
    ranked[it->second] = true;
    min_count = std::min(min_count, count);
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    g.check(ranked[i] || ref[i] <= min_count,
            "unranked URL " + t.urls[i] + " outnumbers the ranking");
  }
}

/// Ledger losses except parse_no_output: a packet that parses to no record
/// (a data segment under a connection-time query) is the filter working,
/// not an operation that failed.
std::uint64_t query_losses(const core::NetAlytics& engine, const core::QueryHandle& q) {
  std::uint64_t n = engine.drop_ledger().value(common::DropCause::broker_retention);
  for (std::size_t i = 0; i < common::kDropCauseCount; ++i) {
    const auto c = static_cast<common::DropCause>(i);
    if (common::drop_cause_is_loss(c) && c != common::DropCause::parse_no_output) {
      n += q.drop_ledger().value(c);
    }
  }
  return n;
}

// ---- the system under test -------------------------------------------------

core::EngineConfig engine_config(bool profile) {
  core::EngineConfig cfg;
  cfg.executor_profiler = profile;
  return cfg;
}

core::RangeQuery mon_sum() { return {.selector = "mon", .agg = core::Agg::sum}; }

/// What each repetition learns besides its timings.
struct Outcome {
  Gate gate;
  std::uint64_t losses = 0;
  double reduction = 0;
};

/// One engine on one emulated fabric.
class EngineTarget {
 public:
  EngineTarget(const Workload& w, bool profile)
      : w_(w),
        emu_(core::Emulation::make_small(kHostsPerRack)),
        engine_(emu_, engine_config(profile)) {
    auto q = engine_.submit(w.query, 0);
    if (!q) throw std::runtime_error("submit: " + q.error().to_string());
    q_ = *q;
    engine_.pump(0);
  }

  void transmit(const Traffic& t, std::size_t n, Timestamp ts) {
    emu_.transmit(t.frame(n), ts);
  }
  void pump(Timestamp now, Spans*) {
    ranking_begin_ = q_->results().size();
    engine_.pump(now);
  }
  /// One dashboard refresh; returns the rx_packets it read.
  std::uint64_t read() {
    const auto mon = q_->query_range(mon_sum());
    switch (w_.reads) {
      case Reads::topk_view:
        sink_ += q_->view().latest(1).size();
        break;
      case Reads::drain:
        for (const auto& t : q_->results_since(cursor_)) sink_ += stream::as_u64(t.at(0));
        cursor_ = q_->results().size();
        break;
      case Reads::dashboard:
        sink_ += q_->query_range({.selector = "mon",
                                  .step = 60 * common::kSecond,
                                  .agg = core::Agg::avg})
                     .series.size();
        sink_ += q_->query_range({.selector = "result", .agg = core::Agg::last})
                     .series.size();
        break;
      case Reads::fleet:  // FleetTarget's read set
        break;
    }
    return rx_sum(mon);
  }
  void finish(Timestamp now) {
    final_ranking_ = {q_->results().begin() + static_cast<std::ptrdiff_t>(ranking_begin_),
                      q_->results().end()};
    engine_.stop_all(now);
  }
  Outcome check(const Traffic& t, const std::vector<std::uint64_t>& ref) const {
    Outcome o;
    const auto stats = q_->monitor_stats();
    o.gate.check(stats.rx_packets == w_.packets(),
                 "monitor saw " + std::to_string(stats.rx_packets) + " of " +
                     std::to_string(w_.packets()) + " packets");
    if (w_.check_ranking) {
      check_topk(o.gate, final_ranking_, t, ref);
    } else if (!w_.topk()) {
      const auto rec = engine_.reconcile(*q_);
      o.gate.check(rec.exact(), "reconcile inexact:\n" + rec.render());
      o.gate.check(q_->results().size() == stats.records,
                   "results " + std::to_string(q_->results().size()) +
                       " != records " + std::to_string(stats.records));
    }
    o.losses = query_losses(engine_, *q_);
    o.reduction = static_cast<double>(stats.raw_bytes) /
                  static_cast<double>(std::max<std::uint64_t>(stats.record_bytes, 1));
    return o;
  }
  /// Per-layer fed.* metrics: stream this engine's results through a real
  /// child node, link and parent node (the wire path a fleet would pay).
  std::map<std::string, double> fed_layer(const Spans&, Timestamp now);

 private:
  const Workload& w_;
  core::Emulation emu_;
  core::NetAlytics engine_;
  core::QueryHandle* q_ = nullptr;
  std::size_t cursor_ = 0;
  std::size_t ranking_begin_ = 0;
  std::vector<stream::Tuple> final_ranking_;
  std::uint64_t sink_ = 0;  // keeps read results observable
};

std::map<std::string, double> EngineTarget::fed_layer(const Spans&, Timestamp now) {
  const std::size_t results = q_->results().size();
  constexpr std::size_t kPerFrame = 64;
  fed::Link link(fed::LinkConfig{.child_index = 0, .fault_prefix = {}});
  // Key the parent's fan-in on the ranked URL (top-k rows) or the record's
  // fourth field (identity rows), as a fleet parent would.
  fed::ParentNode parent({&link}, fed::ParentConfig{.children = 1,
                                                    .top_k = kTopK,
                                                    .key_field = w_.topk() ? 1u : 3u});
  // The node frames every result in its first pump; size the replay buffer
  // so nothing is shed.
  fed::ChildNode child(engine_, *q_, link,
                       fed::ChildConfig{.index = 0,
                                        .name = "child0",
                                        .replay_capacity = results / kPerFrame + 16,
                                        .records_per_frame = kPerFrame});
  double child_s = 0, parent_s = 0;
  for (int round = 0; round < 16 && parent.total_records_applied() < results; ++round) {
    child_s += timed(nullptr, "", 0, [&] { child.pump(now); });
    parent_s += timed(nullptr, "", 0, [&] { parent.pump(now); });
    child_s += timed(nullptr, "", 0, [&] { child.flush(now); });
    now += w_.pump_every;
  }
  if (parent.total_records_applied() != results) {
    throw std::runtime_error("fed wire replay applied " +
                             std::to_string(parent.total_records_applied()) +
                             " of " + std::to_string(results) + " results");
  }
  const auto n = static_cast<double>(results);
  return {{"fed.child_ns_per_rec", child_s * 1e9 / n},
          {"fed.parent_ns_per_rec", parent_s * 1e9 / n},
          {"fed.wire_bytes_per_rec", static_cast<double>(link.stats().bytes_up) / n}};
}

core::FederationConfig fleet_config(const Workload& w, bool profile) {
  core::FederationConfig cfg;
  cfg.children = w.children;
  cfg.child_engine = engine_config(profile);
  cfg.hosts_per_rack = kHostsPerRack;
  cfg.top_k = kTopK;
  cfg.key_field = 3;  // http_get rows {id, ts, kind, value}: the URL
  return cfg;
}

/// A federation: per-child fabric + engine, links, streaming nodes and the
/// parent that fans the fleet in.
class FleetTarget {
 public:
  FleetTarget(const Workload& w, bool profile) : w_(w), fed_(fleet_config(w, profile)) {
    if (auto ok = fed_.submit(w.query, 0); !ok) {
      throw std::runtime_error("submit: " + ok.error().to_string());
    }
    fed_.pump(0);
  }

  void transmit(const Traffic& t, std::size_t n, Timestamp ts) {
    fed_.emulation(t.child[n % t.size()]).transmit(t.frame(n), ts);
  }
  /// Federation::pump, or its four steps spanned one by one when traced.
  void pump(Timestamp now, Spans* spans) {
    if (spans == nullptr) {
      fed_.pump(now);
      return;
    }
    const std::size_t n = fed_.children();
    for (std::size_t i = 0; i < n; ++i) {
      timed(spans, "engine.pump", kLaneFleet, [&] { fed_.engine(i).pump(now); });
    }
    for (std::size_t i = 0; i < n; ++i) {
      timed(spans, "child.pump", kLaneFleet, [&] { fed_.child(i).pump(now); });
    }
    timed(spans, "parent.pump", kLaneFleet, [&] { fed_.parent().pump(now); });
    for (std::size_t i = 0; i < n; ++i) {
      timed(spans, "child.flush", kLaneFleet, [&] { fed_.child(i).flush(now); });
    }
  }
  std::uint64_t read() {
    sink_ += fed_.parent().top_k().global().entries().size();
    return rx_sum(fed_.query_range({.selector = "fleet.", .agg = core::Agg::sum}));
  }
  void finish(Timestamp now) {
    for (std::size_t i = 0; i < fed_.children(); ++i) fed_.engine(i).stop_all(now);
    fed_.pump(now + w_.pump_every);  // stream what the teardown flushed
  }
  Outcome check(const Traffic& t, const std::vector<std::uint64_t>& ref) {
    Outcome o;
    std::vector<std::uint64_t> sent(fed_.children(), 0);
    for (std::size_t n = 0; n < w_.packets(); ++n) ++sent[t.child[n % t.size()]];
    std::uint64_t raw = 0, shipped = 0, applied = 0, streamed = 0;
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      const auto stats = fed_.query(i)->monitor_stats();
      o.gate.check(stats.rx_packets == sent[i],
                   "child " + std::to_string(i) + " monitor saw " +
                       std::to_string(stats.rx_packets) + " of " + std::to_string(sent[i]));
      raw += stats.raw_bytes;
      shipped += stats.record_bytes;
      o.losses += query_losses(fed_.engine(i), *fed_.query(i));
      applied += fed_.parent().child_stats(i).applied;
      streamed += fed_.child(i).next_offset();
    }
    const auto rec = fed_.reconcile();
    o.gate.check(rec.exact(), "federation reconcile inexact:\n" + rec.render());
    for (const auto& c : rec.children) o.losses += c.lost + c.overflow;
    o.gate.check(applied == streamed, "parent applied " + std::to_string(applied) +
                                          " of " + std::to_string(streamed) + " streamed");
    // The fan-in's per-child tallies must add up to what the bench sent.
    const auto& topk = fed_.parent().top_k();
    for (std::size_t r = 0; r < ref.size(); ++r) {
      std::uint64_t got = 0;
      for (std::size_t i = 0; i < topk.sources(); ++i) {
        const auto& local = topk.local(i);
        if (const auto it = local.find(t.urls[r]); it != local.end()) got += it->second;
      }
      o.gate.check(got == ref[r], "fan-in counted " + std::to_string(got) + " of " +
                                      std::to_string(ref[r]) + " for " + t.urls[r]);
    }
    o.reduction = static_cast<double>(raw) / static_cast<double>(std::max<std::uint64_t>(shipped, 1));
    return o;
  }
  std::map<std::string, double> fed_layer(const Spans& spans, Timestamp) {
    std::uint64_t records = 0, wire = 0;
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      records += fed_.child(i).next_offset();
      wire += fed_.link(i).stats().bytes_up;
    }
    const auto n = static_cast<double>(std::max<std::uint64_t>(records, 1));
    return {{"fed.child_ns_per_rec",
             (spans.total_s("child.pump") + spans.total_s("child.flush")) * 1e9 / n},
            {"fed.parent_ns_per_rec", spans.total_s("parent.pump") * 1e9 / n},
            {"fed.wire_bytes_per_rec", static_cast<double>(wire) / n}};
  }

 private:
  const Workload& w_;
  fed::Federation fed_;
  std::uint64_t sink_ = 0;
};

// ---- one repetition --------------------------------------------------------

struct Rep {
  /// Per pump: transmit + pump wall time; one more entry for the teardown.
  /// Dashboard reads are timed apart and excluded.
  std::vector<double> busy_us;
  std::vector<double> pump_us;  // per pump
  std::vector<double> read_us;  // per dashboard refresh
  Outcome out;
  std::map<std::string, double> layer;  // traced reps: facade.* and fed.*

  double pkts_per_s(const Workload& w) const {
    double us = 0;
    for (const double b : busy_us) us += b;
    return static_cast<double>(w.packets()) / (us * 1e-6);
  }
};

/// One fresh-engine repetition. `spans` non-null makes it the traced run:
/// spans around every façade call and the executor profiler on.
template <typename Target>
Rep run_rep(const Workload& w, const Traffic& t, const std::vector<std::uint64_t>& ref,
            Spans* spans) {
  Rep r;
  std::unique_ptr<Target> target;
  timed(spans, "setup", kLaneFacade,
        [&] { target = std::make_unique<Target>(w, spans != nullptr); });
  std::uint64_t read_rx = 0, sent_at_read = 0;
  std::size_t n = 0;
  Timestamp now = 0;
  for (std::size_t k = 0; k < w.pumps; ++k) {
    const double tx = timed(spans, "transmit", kLaneFacade, [&] {
      for (std::size_t j = 0; j < w.pkts_per_pump; ++j, ++n) {
        target->transmit(t, n, packet_ts(w, n));
      }
    });
    now = (k + 1) * w.pump_every;
    const double p = timed(spans, "pump", kLaneFacade, [&] { target->pump(now, spans); });
    r.busy_us.push_back((tx + p) * 1e6);
    r.pump_us.push_back(p * 1e6);
    if (k >= w.first_read_pump) {
      r.read_us.push_back(1e6 * timed(spans, "read", kLaneFacade,
                                      [&] { read_rx = target->read(); }));
      sent_at_read = n;
    }
  }
  r.busy_us.push_back(1e6 * timed(spans, "stop_all", kLaneFacade, [&] { target->finish(now); }));
  r.out = target->check(t, ref);
  r.out.gate.check(read_rx == sent_at_read,
                   "dashboard read " + std::to_string(read_rx) + " rx_packets, sent " +
                       std::to_string(sent_at_read));
  if (spans != nullptr) {
    r.layer = target->fed_layer(*spans, now + w.pump_every);
    const auto pkts = static_cast<double>(w.packets());
    r.layer["facade.transmit_ns_per_pkt"] = spans->total_s("transmit") * 1e9 / pkts;
    r.layer["facade.pump_ns_per_pkt"] = spans->total_s("pump") * 1e9 / pkts;
  }
  return r;
}

/// Set-up only: construction + submit + first pump, then teardown.
template <typename Target>
double run_setup(const Workload& w) {
  std::unique_ptr<Target> target;
  return timed(nullptr, "", 0, [&] { target = std::make_unique<Target>(w, false); });
}

// ---- layer replay (trace mode) ---------------------------------------------

/// The read set's tsdb queries, scoped the way QueryHandle::query_range
/// scopes them ("q1." + selector) so they can run against a bare store.
std::vector<core::RangeQuery> tsdb_reads(const Workload& w) {
  std::vector<core::RangeQuery> reads{{.selector = "q1.mon", .agg = core::Agg::sum}};
  if (w.reads == Reads::dashboard) {
    reads.push_back({.selector = "q1.mon", .step = 60 * common::kSecond, .agg = core::Agg::avg});
    reads.push_back({.selector = "q1.result", .agg = core::Agg::last});
  }
  return reads;
}

const char* const kComponents[] = {"spout0", "parse0", "filter", "count",
                                   "rank",   "total",  "sink"};

/// Feed the workload's frames through each layer's public functions in
/// pipeline order, each stage consuming the previous stage's recorded
/// output, with the engine's own configuration and pump/tick cadence:
/// fabric (no query installed), net decode, nf::Monitor::process ->
/// captured record batches -> mq::Producer::send/flush -> the query's
/// stream topology (run_until_idle/tick), and per tick the registry
/// snapshot and tsdb capture. Returns per-layer costs.
std::map<std::string, double> replay_layers(const Workload& w, const Traffic& t,
                                            Spans* spans) {
  std::map<std::string, double> m;
  const std::size_t packets = w.packets();
  const auto per_pkt = [packets](double s) { return s * 1e9 / static_cast<double>(packets); };

  {  // SDN fabric alone: two ToR switches, default rules only.
    auto emu = core::Emulation::make_small(kHostsPerRack);
    double s = 0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < w.pumps; ++k) {
      s += timed(spans, "sdn.fabric", kLaneReplay, [&] {
        for (std::size_t j = 0; j < w.pkts_per_pump; ++j, ++n) emu.transmit(t.frame(n), packet_ts(w, n));
      });
    }
    m["sdn.fabric_ns_per_pkt"] = per_pkt(s);
  }
  {  // net decode, once per frame.
    std::uint64_t seen = 0;
    const double s = timed(spans, "net.decode", kLaneReplay, [&] {
      for (std::size_t n = 0; n < packets; ++n) {
        if (const auto d = net::decode_packet(t.frame(n))) seen += d->has_tcp;
      }
    });
    if (seen != packets) throw std::runtime_error("replay: frames failed to decode");
    m["net.decode_ns"] = per_pkt(s);
  }

  // nf -> mq -> stream with the engine's configuration and metric names.
  const core::EngineConfig cfg = engine_config(true);
  parsers::register_builtin_parsers();
  const auto vq = query::parse_and_validate(w.query);
  const auto emu = core::Emulation::make_small(kHostsPerRack);
  const auto plan = core::compile_query(vq.value(), emu, cfg.monitor_strategy).value();
  const auto& call = plan.processors.at(0);

  common::MetricsRegistry registry;
  common::DropLedger engine_ledger(registry, "drop");
  mq::Cluster cluster(cfg.mq_brokers, cfg.broker);
  cluster.bind_metrics(registry);
  cluster.set_drop_ledger(&engine_ledger);
  common::StageTracer tracer(registry, "q1");
  common::DropLedger ledger(registry, "q1.drop");
  common::TraceRecorder recorder(common::TraceRecorder::Config{
      .sample_denominator = cfg.trace_sample_denominator,
      .capacity_per_thread = cfg.trace_span_capacity});
  mq::Producer producer(cluster, 1, nullptr, cfg.producer_retry, cfg.producer_batch);
  producer.bind_metrics(registry, "q1.producer0", &tracer, &recorder, &ledger);

  struct Shipped {
    std::string topic;
    std::vector<std::byte> payload;
    std::size_t records;
    std::vector<std::uint64_t> traces;
  };
  std::vector<Shipped> shipped;
  nf::MonitorConfig mcfg;
  for (const auto& topic : plan.topics) mcfg.parsers.push_back({topic, 1});
  mcfg.sample_rate = plan.initial_sample_rate;
  mcfg.output_batch_records = cfg.monitor_output_batch;
  mcfg.metrics = &registry;
  mcfg.metrics_prefix = "q1.mon0";
  mcfg.tracer = &tracer;
  mcfg.trace_recorder = &recorder;
  mcfg.drop_ledger = &ledger;
  nf::Monitor monitor(mcfg, [&shipped](std::string_view topic, std::vector<std::byte> payload,
                                       const nf::BatchInfo& info) {
    shipped.push_back({std::string(topic), std::move(payload), info.records,
                       {info.traces.begin(), info.traces.end()}});
  });

  tsdb::TieredStore store(cfg.tsdb_store);
  Timestamp now = 0;
  std::vector<stream::Tuple> results;
  const bool identity = call.name == "identity";
  stream::ProcessorContext ctx;
  ctx.cluster = &cluster;
  ctx.consumer_group = "q1-" + call.name + "0";
  ctx.topics = plan.topics;
  ctx.parallelism = cfg.processor_parallelism;
  ctx.spout_group_size = cfg.spout_group_size;
  ctx.metrics = &registry;
  ctx.metrics_prefix = "q1.proc0";
  ctx.tracer = &tracer;
  ctx.trace_recorder = &recorder;
  ctx.drop_ledger = &ledger;
  // The engine's result sink: keep the row, stamp e2e latency on record
  // rows, store ranking rows as per-key result series.
  ctx.result_sink = [&](const stream::Tuple& row) {
    results.push_back(row);
    if (identity) {
      tracer.stamp(common::StageTracer::Stage::e2e, now, stream::as_u64(row.at(1)));
    } else if (row.size() == 3) {
      store.ingest("q1.result.proc0." + stream::format_value(row.at(1)),
                   tsdb::SeriesKind::gauge, now,
                   static_cast<double>(stream::as_u64(row.at(2))));
    }
  };
  stream::ProcessorParams params;
  params.args = call.args;
  auto exec = stream::make_executor(
      stream::build_processor(call.name, params, ctx).value(),
      stream::ExecutorConfig{.workers = 1,
                             .mode = cfg.executor_mode,
                             .inbox_capacity = cfg.executor_inbox_capacity,
                             .profile = cfg.executor_profiler});
  exec->bind_metrics(registry, ctx.metrics_prefix);
  exec->bind_trace(&recorder);

  double nf_s = 0, produce_s = 0, run_s = 0, tick_s = 0, snapshot_s = 0, capture_s = 0;
  std::size_t ticks = 0, captures = 0;
  // Producers stamp sends with the engine's last pump time.
  const auto produce = [&](Timestamp stamp, auto&& ship) {
    produce_s += timed(spans, "mq.produce", kLaneReplay, [&] {
      for (auto& b : shipped) {
        producer.send(b.topic, std::move(b.payload), stamp, b.records, std::move(b.traces));
      }
      shipped.clear();
      ship();
    });
  };
  const auto run = [&] {
    run_s += timed(spans, "stream.run", kLaneReplay, [&] { exec->run_until_idle(now); });
  };
  const auto capture = [&] {
    common::MetricsSnapshot snap;
    snapshot_s += timed(spans, "common.snapshot", kLaneReplay, [&] { snap = registry.snapshot(); });
    capture_s += timed(spans, "tsdb.capture", kLaneReplay, [&] { store.capture(now, snap); });
    ++captures;
  };
  // The engine's pump order: flush producers, drain the topology; on a
  // tick also tick the monitor, drain producers, drain, tick the topology;
  // capture once per tick interval (and at the first pump).
  const auto pump = [&](Timestamp sent_at, bool tick) {
    produce(sent_at, [&] { producer.flush(now); });
    run();
    if (tick) {
      nf_s += timed(spans, "nf.tick", kLaneReplay, [&] { monitor.tick(now); });
      produce(now, [&] { producer.drain(now); });
      run();
      tick_s += timed(spans, "stream.tick", kLaneReplay, [&] { exec->tick(now); });
      ++ticks;
    }
  };
  pump(0, false);
  capture();
  std::size_t n = 0;
  for (std::size_t k = 0; k < w.pumps; ++k) {
    nf_s += timed(spans, "nf.process", kLaneReplay, [&] {
      for (std::size_t j = 0; j < w.pkts_per_pump; ++j, ++n) monitor.process(t.frame(n), packet_ts(w, n));
    });
    const Timestamp sent_at = now;
    now = (k + 1) * w.pump_every;
    pump(sent_at, is_tick_pump(w, k));
    if (is_tick_pump(w, k)) capture();
  }
  // stop_query's teardown: close monitors, drain, final tick, close.
  nf_s += timed(spans, "nf.close", kLaneReplay, [&] { monitor.close(now); });
  produce(now, [&] { producer.drain(now); });
  run();
  tick_s += timed(spans, "stream.tick", kLaneReplay, [&] {
    exec->tick(now);
    exec->run_until_idle(now);
    exec->close(now);
  });

  const auto mon = monitor.stats();
  const auto prod = producer.stats();
  const auto records = static_cast<double>(std::max<std::uint64_t>(mon.records, 1));
  if (identity && results.size() != mon.records) {
    throw std::runtime_error("replay: identity delivered " + std::to_string(results.size()) +
                             " of " + std::to_string(mon.records) + " records");
  }
  m["nf.process_ns_per_pkt"] = per_pkt(nf_s);
  m["nf.records_per_pkt"] = static_cast<double>(mon.records) / static_cast<double>(packets);
  m["nf.bytes_per_rec"] = static_cast<double>(mon.record_bytes) / records;
  m["mq.produce_ns_per_rec"] = produce_s * 1e9 / records;
  m["mq.recs_per_batch"] =
      static_cast<double>(prod.sent_records) / static_cast<double>(std::max<std::uint64_t>(prod.batches, 1));
  m["mq.retries"] = static_cast<double>(prod.retries);
  m["stream.run_ns_per_rec"] = run_s * 1e9 / records;
  m["stream.tick_us"] = tick_s * 1e6 / static_cast<double>(ticks + 1);
  m["common.snapshot_us"] = snapshot_s * 1e6 / static_cast<double>(captures);
  m["tsdb.capture_us"] = capture_s * 1e6 / static_cast<double>(captures);

  // Per-component executor profiler counters, per record into the topology.
  for (const char* c : kComponents) {
    m[std::string("stream.") + c + ".self_ns_per_rec"] = 0;
    m[std::string("stream.") + c + ".wait_ns_per_rec"] = 0;
  }
  const std::string prof = ctx.metrics_prefix + ".profiler.";
  for (const auto& ctr : registry.snapshot(prof).counters) {
    const std::string_view rest = std::string_view(ctr.name).substr(prof.size());
    const auto task = rest.find(".t");
    if (task == std::string_view::npos) continue;  // pool counters
    const std::string comp(rest.substr(0, task));
    const char* leaf = rest.ends_with(".self_ns")         ? ".self_ns_per_rec"
                       : rest.ends_with(".queue_wait_ns") ? ".wait_ns_per_rec"
                                                          : nullptr;
    if (leaf != nullptr) m["stream." + comp + leaf] += static_cast<double>(ctr.value) / records;
  }

  {  // mq fetch: a fresh consumer group re-reads everything still retained.
    std::uint64_t fetched = 0;
    const double s = timed(spans, "mq.fetch", kLaneReplay, [&] {
      for (const auto& topic : plan.topics) {
        for (;;) {
          const auto batch = cluster.poll_batch("bench-fetch", topic, 64);
          if (batch.empty()) break;
          fetched += batch.total_records;
        }
      }
    });
    m["mq.fetch_ns_per_rec"] = s * 1e9 / static_cast<double>(std::max<std::uint64_t>(fetched, 1));
  }
  {  // tsdb reads: the workload's read set against the replayed store.
    const auto snap = registry.snapshot();
    std::vector<double> us;
    std::size_t series = 0;
    for (int i = 0; i < 16; ++i) {
      us.push_back(1e6 * timed(spans, "tsdb.query", kLaneReplay, [&] {
        for (const auto& q : tsdb_reads(w)) {
          series += store.query_range(q, tsdb::LiveHead{now, &snap}).series.size();
        }
      }));
    }
    if (series == 0) throw std::runtime_error("replay: tsdb reads matched no series");
    m["tsdb.query_us"] = median(us);
    const auto st = store.stats();
    m["tsdb.series"] = static_cast<double>(st.series);
    m["tsdb.cold_bytes"] = static_cast<double>(st.cold_bytes);
  }
  // The replayed pipeline's cost per packet (decode and fetch run inside
  // the fabric, monitor and spout already, so they are not added).
  m["replay_ns_per_pkt"] = m["sdn.fabric_ns_per_pkt"] +
                           per_pkt(nf_s + produce_s + run_s + tick_s + snapshot_s + capture_s);
  return m;
}

// ---- metrics and output ----------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

const MetricDef kE2eMetrics[] = {
    {"pkts_per_s", "pkts/s", true},     {"pump_p50_us", "us", false},
    {"tick_pump_p50_us", "us", false},  {"read_p50_us", "us", false},
    {"setup_s", "s", false},            {"peak_rss_mb", "MB", false},
    {"reduction_x", "x", true},
};

const MetricDef kLayerMetrics[] = {
    {"facade.transmit_ns_per_pkt", "ns/pkt", false},
    {"facade.pump_ns_per_pkt", "ns/pkt", false},
    {"sdn.fabric_ns_per_pkt", "ns/pkt", false},
    {"net.decode_ns", "ns", false},
    {"nf.process_ns_per_pkt", "ns/pkt", false},
    {"nf.records_per_pkt", "rec/pkt", false},
    {"nf.bytes_per_rec", "B/rec", false},
    {"mq.produce_ns_per_rec", "ns/rec", false},
    {"mq.fetch_ns_per_rec", "ns/rec", false},
    {"mq.recs_per_batch", "rec/batch", true},
    {"mq.retries", "count", false},
    {"stream.run_ns_per_rec", "ns/rec", false},
    {"stream.tick_us", "us", false},
    {"stream.spout0.self_ns_per_rec", "ns/rec", false},
    {"stream.spout0.wait_ns_per_rec", "ns/rec", false},
    {"stream.parse0.self_ns_per_rec", "ns/rec", false},
    {"stream.parse0.wait_ns_per_rec", "ns/rec", false},
    {"stream.filter.self_ns_per_rec", "ns/rec", false},
    {"stream.filter.wait_ns_per_rec", "ns/rec", false},
    {"stream.count.self_ns_per_rec", "ns/rec", false},
    {"stream.count.wait_ns_per_rec", "ns/rec", false},
    {"stream.rank.self_ns_per_rec", "ns/rec", false},
    {"stream.rank.wait_ns_per_rec", "ns/rec", false},
    {"stream.total.self_ns_per_rec", "ns/rec", false},
    {"stream.total.wait_ns_per_rec", "ns/rec", false},
    {"stream.sink.self_ns_per_rec", "ns/rec", false},
    {"stream.sink.wait_ns_per_rec", "ns/rec", false},
    {"common.snapshot_us", "us", false},
    {"tsdb.capture_us", "us", false},
    {"tsdb.query_us", "us", false},
    {"tsdb.series", "count", false},
    {"tsdb.cold_bytes", "B", false},
    {"fed.child_ns_per_rec", "ns/rec", false},
    {"fed.parent_ns_per_rec", "ns/rec", false},
    {"fed.wire_bytes_per_rec", "B/rec", false},
    {"trace.coverage", "ratio", false},
    {"trace.overhead_pct", "%", false},
};

/// One reported metric plus its per-repetition values (context only).
struct Value {
  const MetricDef* def;
  double value;
  std::vector<double> reps;
};

struct Context {
  std::string name;
  double value;
  std::size_t samples;
};

struct Report {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool trace = false;
  double seconds = 0;
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t reps = 0;
  std::vector<Value> metrics;
  std::vector<Context> context;

  void absorb(const Rep& r) {
    ++reps;
    attempted += w->packets();
    failed += r.out.losses;
    if (!r.out.gate.ok && correct) {
      correct = false;
      why = r.out.gate.why;
    }
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> cpu_affinity() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Threads in this process (Linux /proc), to show the run stayed single-
/// threaded; 0 when unknown.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("Threads:")) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

std::string utc_stamp() {
  const auto t = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y%m%dT%H%M%SZ", &tm);
  return buf;
}

void write_result_file(const Report& r, const std::string& dir) {
  bench_json::Writer w;
  const std::string stamp = utc_stamp();
  w.begin_object()
      .field("bench", "bench_e2e")
      .field("workload", r.w->name)
      .field("seed", r.seed)
      .field("trace", r.trace)
      .field("seconds", r.seconds)
      .field("started_utc", stamp)
      .field("correct", r.correct)
      .field("why", r.why)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .field("loss_frac", static_cast<double>(r.failed) /
                              static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)))
      .field("reps", r.reps)
      .field("hardware_threads", std::thread::hardware_concurrency())
      .field("process_threads", process_threads());
  w.key("cpu_affinity").begin_array();
  for (const int c : cpu_affinity()) w.value(c);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& m : r.metrics) {
    w.key(m.def->name)
        .begin_object()
        .field("value", m.value)
        .field("unit", m.def->unit)
        .field("better", m.def->higher_is_better ? "higher" : "lower")
        .field("kind", "measured");
    if (!m.reps.empty()) {
      w.key("reps");
      bench_json::write_summary(w, bench_json::summarize(m.reps, m.def->higher_is_better));
    }
    w.end_object();
  }
  w.end_object();
  w.key("context").begin_object();
  for (const auto& c : r.context) {
    w.key(c.name).begin_object().field("value", c.value).field("samples", c.samples).end_object();
  }
  w.end_object().end_object();
  const std::string path = dir + "/" + r.w->name + "_seed" + std::to_string(r.seed) + "_trace" +
                           (r.trace ? "1" : "0") + "_" + stamp + "_" +
                           std::to_string(getpid()) + ".json";
  if (w.write_file(path)) {
    std::printf("result file: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
  }
}

/// Human-readable table, then the one-line JSON result last.
void print_report(const Report& r) {
  for (const auto& m : r.metrics) {
    std::printf("%-34s %18.6g %s\n", m.def->name, m.value, m.def->unit);
  }
  for (const auto& c : r.context) {
    std::printf("%-34s %18.6g (%zu samples, context)\n", c.name.c_str(), c.value, c.samples);
  }
  std::printf("gates: %s%s%s\n", r.correct ? "pass" : "FAIL", r.correct ? "" : " - ",
              r.why.c_str());
  bench_json::Writer w;
  w.begin_object()
      .field("correct", r.correct)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .key("metrics")
      .begin_object();
  for (const auto& m : r.metrics) {
    w.key(m.def->name).begin_object().field("value", m.value).field("unit", m.def->unit).end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

const MetricDef& def_of(std::span<const MetricDef> defs, std::string_view name) {
  for (const auto& d : defs) {
    if (name == d.name) return d;
  }
  throw std::logic_error("unknown metric " + std::string(name));
}

// ---- the two modes -----------------------------------------------------------

struct Inputs {
  const Workload& w;
  const Traffic& t;
  const std::vector<std::uint64_t>& ref;
};

template <typename Target>
void measure_e2e(const Inputs& in, double seconds, std::size_t min_setups, Report& report) {
  // Set-ups are timed on their own, a few after every repetition, so the
  // median samples the whole run: interference comes in bursts that would
  // swamp a single back-to-back loop of millisecond set-ups.
  const auto start = Clock::now();
  std::vector<double> setups;
  std::vector<Rep> reps;
  do {
    reps.push_back(run_rep<Target>(in.w, in.t, in.ref, nullptr));
    report.absorb(reps.back());
    for (int i = 0; i < 5; ++i) setups.push_back(run_setup<Target>(in.w));
  } while (seconds_since(start) < seconds);
  while (setups.size() < min_setups) setups.push_back(run_setup<Target>(in.w));

  // Every repetition repeats identical work pump by pump, so each pump's
  // fastest execution across repetitions is the one no interference hit;
  // the metrics are built from those. Per-rep values stay as context.
  const auto fastest = [&reps](std::vector<double> Rep::*series) {
    std::vector<double> best = reps.front().*series;
    for (const auto& r : reps) {
      for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], (r.*series)[i]);
    }
    return best;
  };
  const auto ticks_of = [&in](const std::vector<double>& pump_us) {
    std::vector<double> out;
    for (std::size_t k = 0; k < pump_us.size(); ++k) {
      if (is_tick_pump(in.w, k)) out.push_back(pump_us[k]);
    }
    return out;
  };
  double busy_us = 0;
  for (const double b : fastest(&Rep::busy_us)) busy_us += b;
  const auto pump_best = fastest(&Rep::pump_us);

  std::vector<double> pps, pump, tick, read, pump99, tick99, read99;
  for (const auto& r : reps) {
    pps.push_back(r.pkts_per_s(in.w));
    pump.push_back(median(r.pump_us));
    tick.push_back(median(ticks_of(r.pump_us)));
    read.push_back(median(r.read_us));
    pump99.push_back(p99(r.pump_us));
    tick99.push_back(p99(ticks_of(r.pump_us)));
    read99.push_back(p99(r.read_us));
  }
  const std::span<const MetricDef> defs = kE2eMetrics;
  const auto add = [&](const char* name, double v, std::vector<double> per_rep) {
    report.metrics.push_back({&def_of(defs, name), v, std::move(per_rep)});
  };
  add("pkts_per_s", static_cast<double>(in.w.packets()) / (busy_us * 1e-6), pps);
  add("pump_p50_us", median(pump_best), pump);
  add("tick_pump_p50_us", median(ticks_of(pump_best)), tick);
  add("read_p50_us", median(fastest(&Rep::read_us)), read);
  add("setup_s", median(setups), setups);
  add("peak_rss_mb", peak_rss_mb(), {});
  add("reduction_x", reps.back().out.reduction, {});
  // p99s are context, not gates: they spread 20-40% between invocations.
  const std::size_t n = reps.size();
  report.context = {{"pump_p99_us", median(pump99), n * pump_best.size()},
                    {"tick_pump_p99_us", median(tick99), n * ticks_of(pump_best).size()},
                    {"read_p99_us", median(read99), n * reps.front().read_us.size()}};
}

template <typename Target>
void measure_layers(const Inputs& in, double seconds, const std::string& trace_path,
                    Report& report) {
  double best_untraced = 0, best_traced = 0, best_replay = 0;
  std::map<std::string, double> layer, replay;
  Spans traced_spans, replay_spans;
  const auto keep_min = [](std::map<std::string, double>& into,
                           const std::map<std::string, double>& from) {
    for (const auto& [k, v] : from) {
      const auto it = into.find(k);
      if (it == into.end() || v < it->second) into[k] = v;
    }
  };
  const auto start = Clock::now();
  do {
    const Rep plain = run_rep<Target>(in.w, in.t, in.ref, nullptr);
    report.absorb(plain);
    best_untraced = std::max(best_untraced, plain.pkts_per_s(in.w));

    Spans spans;
    const Rep traced = run_rep<Target>(in.w, in.t, in.ref, &spans);
    report.absorb(traced);
    const double pps = traced.pkts_per_s(in.w);
    if (pps > best_traced) {
      best_traced = pps;
      traced_spans = std::move(spans);
    }
    keep_min(layer, traced.layer);

    Spans rspans;
    const auto r = replay_layers(in.w, in.t, &rspans);
    if (best_replay == 0 || r.at("replay_ns_per_pkt") < best_replay) {
      best_replay = r.at("replay_ns_per_pkt");
      replay_spans = std::move(rspans);
    }
    keep_min(replay, r);
  } while (seconds_since(start) < seconds);

  keep_min(layer, replay);
  double replay_ns = layer.at("replay_ns_per_pkt");
  if (in.w.children != 0) {  // the fleet adds the wire path to the pipeline
    replay_ns += (layer.at("fed.child_ns_per_rec") + layer.at("fed.parent_ns_per_rec")) *
                 layer.at("nf.records_per_pkt");
  }
  layer["trace.coverage"] = replay_ns / (1e9 / best_untraced);
  layer["trace.overhead_pct"] = (best_untraced - best_traced) / best_untraced * 100.0;
  for (const auto& d : kLayerMetrics) report.metrics.push_back({&d, layer.at(d.name), {}});
  report.context = {{"untraced_pkts_per_s", best_untraced, report.reps / 2},
                    {"traced_pkts_per_s", best_traced, report.reps / 2},
                    {"replay_ns_per_pkt", replay_ns, report.reps / 2}};
  write_chrome_trace(trace_path, {&traced_spans, &replay_spans});
  std::printf("chrome trace: %s\n", trace_path.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
               " [--smoke] [--out DIR]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, out = ".bench_build/results";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload" && has_value) {
      name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::string_view(argv[++i]) == "1";
    } else if (a == "--out" && has_value) {
      out = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* found = nullptr;
  for (const auto& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr || !(seconds >= 0)) return usage();

  // Smoke mode: the same pipeline at 1/20 of the packets, for a fast
  // correctness check of every gate and every metric name.
  Workload w = *found;
  if (smoke) {
    w.pumps /= 20;
    w.first_read_pump /= 20;
  }
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  // Keep freed memory in the process. By default glibc returns large frees
  // (the monitors' rings, broker logs) to the kernel and re-faults them on
  // the next engine, so set-up and the first pumps time page zeroing,
  // which swings 2x between runs on a shared VM.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  try {
    const Traffic traffic = make_traffic(w, seed);
    const Timestamp end = w.pumps * w.pump_every;
    // The answers the gates expect: URL tallies of the final top-k window,
    // or of the whole repetition for the fleet's fan-in.
    const std::vector<std::uint64_t> ref =
        w.check_ranking ? url_counts(w, traffic, end > kTopkWindow ? end - kTopkWindow : 0)
        : w.children != 0 ? url_counts(w, traffic, 0)
                          : std::vector<std::uint64_t>{};
    const Inputs in{w, traffic, ref};
    Report report;
    report.w = &w;
    report.seed = seed;
    report.trace = trace;
    report.seconds = seconds;
    const std::size_t min_setups = smoke ? 2 : kMinSetups;
    const std::string trace_path =
        out + "/trace_" + w.name + "_seed" + std::to_string(seed) + ".json";
    if (w.children == 0) {
      trace ? measure_layers<EngineTarget>(in, seconds, trace_path, report)
            : measure_e2e<EngineTarget>(in, seconds, min_setups, report);
    } else {
      trace ? measure_layers<FleetTarget>(in, seconds, trace_path, report)
            : measure_e2e<FleetTarget>(in, seconds, min_setups, report);
    }
    write_result_file(report, out);
    print_report(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
