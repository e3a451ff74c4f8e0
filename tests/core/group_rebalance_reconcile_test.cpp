// Spout consumer-groups under churn: N KafkaSpout tasks of one processor
// share a consumer group and split the aggregation layer's partition grid
// (mq/group.hpp). This suite proves the engine's conservation identity
// packets_in == tuples_out + losses + in_flight stays exact at every pump
// boundary while the group rebalances — members joining and leaving between
// pumps, brokers going down, producers being rejected, and retention
// evicting unread backlog — and that every observable output (results,
// metrics snapshot, trace spans) is identical between executor_workers = 1
// and a real 4-thread pool.
#include "core/netalytics.hpp"

#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "mq/group.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

namespace netalytics::core {
namespace {

constexpr std::string_view kQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)";

/// Consumer group of the first query's identity processor's spouts
/// (deterministic: query id 1, processor index 0 — see
/// NetAlytics::build_processors and stream::add_source).
constexpr std::string_view kSpoutGroup = "q1-identity0-spout0";

/// Emit one HTTP GET session client->server through `emu`'s fabric.
void http_session(Emulation& emu, int port, common::Timestamp start,
                  const char* url = "/r") {
  pktgen::SessionSpec s;
  s.flow = {*emu.ip_of_name("h0"), *emu.ip_of_name("h5"),
            static_cast<net::Port>(30000 + port), 80, 6};
  s.start = start;
  s.rtt = common::kMillisecond;
  s.server_latency = common::kMillisecond;
  const auto req = pktgen::http_get_request(url, "h5");
  const auto resp = pktgen::http_response(200, 100);
  s.request = req;
  s.response = resp;
  pktgen::emit_tcp_session(
      s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
        emu.transmit(f, ts);
      });
}

/// Assert the report is exact, with the full term breakdown on failure.
void expect_exact(NetAlytics& engine, const QueryHandle& q,
                  const char* where) {
  const auto report = engine.reconcile(q);
  EXPECT_TRUE(report.exact()) << where << "\n" << report.render();
}

/// Everything a run exposes to a caller, captured for comparison.
struct RunCapture {
  std::vector<stream::Tuple> results;
  common::MetricsSnapshot metrics;
  std::vector<common::TraceSpan> trace;
};

/// Chaos run with a spout group of 3 over an 8-partition grid, plus
/// membership churn injected between pumps: a phantom member joins the
/// spout group (stealing partitions the engine then cannot drain) and
/// later leaves (handing its cursors back to the real spouts). Broker
/// outage, produce rejections and age-based retention run concurrently.
RunCapture run_churn_chaos(std::size_t workers) {
  Emulation emu = Emulation::make_small(4);
  common::FaultPlan plan(7);
  common::FaultSpec down;
  down.window_start = 2 * common::kSecond;
  down.window_end = 3 * common::kSecond;
  plan.arm("mq.broker.0.down", down);
  plan.arm("mq.broker.1.down", down);
  common::FaultSpec reject;
  reject.every_nth = 2;
  reject.max_fires = 4;
  plan.arm("mq.broker.0.reject", reject);
  emu.install_faults(&plan);

  EngineConfig cfg;
  cfg.broker.retention_age = 2 * common::kSecond;
  cfg.broker.partitions_per_topic = 4;  // 2 brokers x 4 = 8 partitions
  cfg.monitor_output_batch = 1;         // ship every record immediately
  cfg.producer_retry.max_attempts = 0;  // outlast the outage
  cfg.trace_sample_denominator = 4;
  cfg.processor_parallelism = 4;
  cfg.spout_group_size = 3;  // shares of 3/3/2 partitions
  cfg.executor_workers = workers;
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(kQuery, 0);
  EXPECT_TRUE(q.has_value()) << q.error().to_string();
  auto& coord = engine.cluster().coordinator();
  // All three spout tasks joined at topology build, in task order.
  EXPECT_EQ(coord.member_count(kSpoutGroup), 3u);

  for (int i = 0; i < 14; ++i) {
    http_session(engine.emulation(), i,
                 common::kSecond + i * 30 * common::kMillisecond, "/chaos");
  }
  engine.pump(common::kSecond);
  expect_exact(engine, **q, "before churn");

  // Generation 4: a phantom member joins mid-outage. Its share of the grid
  // has no consumer, so those partitions stall — visible as in_flight, not
  // as a residual.
  const auto ghost = coord.join(kSpoutGroup);
  EXPECT_EQ(coord.member_count(kSpoutGroup), 4u);
  engine.pump(2500 * common::kMillisecond);
  expect_exact(engine, **q, "ghost joined, mid-outage");
  engine.pump(3500 * common::kMillisecond);
  expect_exact(engine, **q, "ghost joined, post-outage");

  // Generation 5: the phantom leaves; its cursors hand back to the real
  // spouts, which drain the stalled partitions with no skip or replay.
  EXPECT_TRUE(coord.leave(kSpoutGroup, ghost));
  EXPECT_EQ(coord.member_count(kSpoutGroup), 3u);
  engine.pump(4500 * common::kMillisecond);
  expect_exact(engine, **q, "ghost left");

  // Late traffic past the retention age evicts whatever the churn left
  // unread for too long, charging broker_retention.
  for (int i = 0; i < 4; ++i) {
    http_session(engine.emulation(), 100 + i,
                 5500 * common::kMillisecond + i * common::kMillisecond,
                 "/late");
  }
  // A second churn wave while retention is active.
  const auto ghost2 = coord.join(kSpoutGroup);
  engine.pump(6 * common::kSecond);
  expect_exact(engine, **q, "second ghost joined");
  EXPECT_TRUE(coord.leave(kSpoutGroup, ghost2));
  engine.pump(7 * common::kSecond);
  expect_exact(engine, **q, "second ghost left");
  engine.pump(8 * common::kSecond);
  expect_exact(engine, **q, "drained");

  EXPECT_GT(plan.fires("mq.broker.0.down") + plan.fires("mq.broker.1.down"),
            0u);
  EXPECT_GT(plan.fires("mq.broker.0.reject"), 0u);
  return {(*q)->results(), engine.metrics().snapshot("q1."),
          (*q)->trace_recorder().collect()};
}

/// Clean run parameterized by group size, for the split-vs-solo
/// differential.
RunCapture run_clean(std::size_t group_size, std::size_t workers = 1) {
  Emulation emu = Emulation::make_small(4);
  EngineConfig cfg;
  cfg.broker.partitions_per_topic = 4;
  cfg.trace_sample_denominator = 1;
  cfg.processor_parallelism = 4;
  cfg.spout_group_size = group_size;
  cfg.executor_workers = workers;
  NetAlytics engine(emu, cfg);
  auto q = engine.submit(kQuery, 0);
  EXPECT_TRUE(q.has_value());
  for (int i = 0; i < 8; ++i) {
    http_session(emu, i, common::kSecond + i * 10 * common::kMillisecond);
  }
  engine.pump(2 * common::kSecond);
  expect_exact(engine, **q, "mid clean run");
  engine.pump(3 * common::kSecond);
  expect_exact(engine, **q, "end of clean run");
  return {(*q)->results(), engine.metrics().snapshot("q1."),
          (*q)->trace_recorder().collect()};
}

TEST(GroupRebalanceReconcile, ChurnChaosIsIdenticalAcrossWorkerCounts) {
  const RunCapture serial = run_churn_chaos(1);
  const RunCapture parallel = run_churn_chaos(4);
  // The stalled partitions drained after the handoffs.
  EXPECT_FALSE(serial.results.empty());
  // Assignment, generation bumps and cursor handoff are pure functions of
  // member-index order and virtual time: result tuples, the metrics
  // snapshot and the flight-recorder spans match exactly between the
  // inline executor and the 4-thread pool.
  EXPECT_EQ(serial.results, parallel.results);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

TEST(GroupRebalanceReconcile, SpoutGroupSplitMatchesSoloSpoutResults) {
  // Splitting a topic across 3 members must not change what the query
  // computes — same result tuples (values, order, trace ids) and the same
  // provenance as the single-spout engine.
  const RunCapture solo = run_clean(1);
  const RunCapture split = run_clean(3);
  EXPECT_FALSE(solo.results.empty());
  EXPECT_EQ(solo.results, split.results);
  EXPECT_EQ(solo.trace, split.trace);
}

TEST(GroupRebalanceReconcile, SplitRunIsIdenticalAcrossWorkerCounts) {
  const RunCapture serial = run_clean(3, 1);
  const RunCapture parallel = run_clean(3, 4);
  EXPECT_FALSE(serial.results.empty());
  EXPECT_EQ(serial.results, parallel.results);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

TEST(GroupRebalanceReconcile, SpoutsConsumeEachMessageOnceBetweenThem) {
  // The split is a split, not a fan-out: group members together consume
  // exactly what one spout would, so broker-side consumed counters match
  // between group sizes 1 and 3.
  const auto consumed = [](std::size_t group_size) {
    Emulation emu = Emulation::make_small(4);
    EngineConfig cfg;
    cfg.broker.partitions_per_topic = 4;
    cfg.spout_group_size = group_size;
    NetAlytics engine(emu, cfg);
    auto q = engine.submit(kQuery, 0);
    EXPECT_TRUE(q.has_value());
    for (int i = 0; i < 8; ++i) {
      http_session(emu, i, common::kSecond + i * 10 * common::kMillisecond);
    }
    engine.pump(2 * common::kSecond);
    engine.pump(3 * common::kSecond);
    EXPECT_FALSE((*q)->results().empty());
    return engine.cluster().aggregate_stats().consumed;
  };
  const auto solo = consumed(1);
  EXPECT_GT(solo, 0u);
  EXPECT_EQ(solo, consumed(3));
}

TEST(GroupRebalanceReconcile, GroupSizeIsValidated) {
  EngineConfig cfg;
  EXPECT_TRUE(cfg.validate().has_value());
  cfg.spout_group_size = 0;
  EXPECT_FALSE(cfg.validate().has_value());
  cfg.spout_group_size = 257;
  EXPECT_FALSE(cfg.validate().has_value());
  cfg.spout_group_size = 256;
  EXPECT_TRUE(cfg.validate().has_value());
}

}  // namespace
}  // namespace netalytics::core
