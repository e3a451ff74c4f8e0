// Differential proof of the parallel executor's determinism contract
// (docs/DETERMINISM.md): the full engine pipeline — pktgen traffic through
// SDN mirroring, NFV monitors, the message queue, and the stream
// processors — is run twice on identical input with identical fault
// plans, once with executor_workers = 1 (inline) and once with a real
// 4-thread pool, and every observable output must match exactly:
// result-sink tuples, the query's metrics snapshot, the collected trace
// spans, and a zero reconcile() residual at every pump boundary.
#include "core/netalytics.hpp"

#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "trace_stages.hpp"

namespace netalytics::core {
namespace {

constexpr std::string_view kQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)";

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

/// Everything a run exposes to a caller, captured for comparison.
struct RunCapture {
  std::vector<stream::Tuple> results;
  common::MetricsSnapshot metrics;
  std::vector<common::TraceSpan> trace;
};

/// The chaos workload of trace_reconcile_test.cpp (every discard site at
/// once), parameterized by worker count. Each invocation builds a fresh
/// emulation and a fresh FaultPlan — plans carry mutable fire counters, so
/// sharing one across runs would skew the second run's fault schedule.
RunCapture run_chaos(std::size_t workers) {
  Emulation emu = Emulation::make_small(4);
  common::FaultPlan plan(7);
  common::FaultSpec ring;
  ring.every_nth = 7;
  plan.arm("nf.ring.overflow", ring);
  common::FaultSpec parser;
  parser.every_nth = 5;
  plan.arm("nf.parser.throw", parser);
  common::FaultSpec down;
  down.window_start = 2 * common::kSecond;
  down.window_end = 3 * common::kSecond;
  plan.arm("mq.broker.0.down", down);
  plan.arm("mq.broker.1.down", down);
  common::FaultSpec reject;
  reject.every_nth = 2;
  reject.max_fires = 4;
  plan.arm("mq.broker.0.reject", reject);
  common::FaultSpec spout;
  spout.probability = 1.0;
  plan.arm("stream.spout.poll", spout);
  emu.install_faults(&plan);

  EngineConfig cfg;
  cfg.broker.retention_age = 2 * common::kSecond;
  cfg.monitor_output_batch = 1;
  cfg.producer_retry.max_attempts = 0;
  cfg.trace_sample_denominator = 4;
  // 4 tasks per processing bolt either way; only the thread count differs
  // between the two runs under comparison.
  cfg.processor_parallelism = 4;
  cfg.executor_workers = workers;
  NetAlytics engine(emu, cfg);

  auto q = engine.submit(kQuery, 0);
  EXPECT_TRUE(q.has_value()) << q.error().to_string();
  for (int i = 0; i < 14; ++i) {
    http_session(engine.emulation(), i,
                 common::kSecond + i * 30 * common::kMillisecond, "/chaos");
  }
  // The PR 4 conservation identity must stay exact at every pump boundary
  // in parallel mode, not just at the end.
  for (const common::Timestamp t :
       {common::kSecond, 2500 * common::kMillisecond,
        3500 * common::kMillisecond, 4500 * common::kMillisecond,
        6 * common::kSecond}) {
    engine.pump(t);
    const auto report = engine.reconcile(**q);
    EXPECT_TRUE(report.exact())
        << "workers=" << workers << " t=" << t << "\n"
        << report.render();
  }
  plan.disarm("stream.spout.poll");
  for (const common::Timestamp t : {7 * common::kSecond, 8 * common::kSecond}) {
    engine.pump(t);
    EXPECT_TRUE(engine.reconcile(**q).exact()) << "workers=" << workers;
  }
  return {(*q)->results(), engine.metrics().snapshot("q1."),
          (*q)->trace_recorder().collect()};
}

/// Clean (fault-free) run with every packet traced, for the provenance
/// differential.
RunCapture run_clean(std::size_t workers) {
  Emulation emu = Emulation::make_small(4);
  EngineConfig cfg;
  cfg.trace_sample_denominator = 1;
  cfg.processor_parallelism = 4;
  cfg.executor_workers = workers;
  NetAlytics engine(emu, cfg);
  auto q = engine.submit(kQuery, 0);
  EXPECT_TRUE(q.has_value());
  for (int i = 0; i < 8; ++i) {
    http_session(emu, i, common::kSecond + i * 10 * common::kMillisecond);
  }
  engine.pump(2 * common::kSecond);
  engine.pump(3 * common::kSecond);
  EXPECT_TRUE(engine.reconcile(**q).exact());
  return {(*q)->results(), engine.metrics().snapshot("q1."),
          (*q)->trace_recorder().collect()};
}

TEST(ParallelExecutorDifferential, ChaosRunIsIdenticalAcrossWorkerCounts) {
  const RunCapture serial = run_chaos(1);
  const RunCapture parallel = run_chaos(4);
  // The spouts healed and the surviving backlog drained into results.
  EXPECT_FALSE(serial.results.empty());
  // Same result tuples (values, order, and trace ids), same metrics
  // snapshot (tuple counts, drop causes, stage histograms), same
  // flight-recorder spans.
  EXPECT_EQ(serial.results, parallel.results);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

TEST(ParallelExecutorDifferential, CleanRunProvenanceIsIdentical) {
  const RunCapture serial = run_clean(1);
  const RunCapture parallel = run_clean(4);
  EXPECT_FALSE(serial.results.empty());
  EXPECT_FALSE(serial.trace.empty());
  EXPECT_EQ(serial.results, parallel.results);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
  // The execute stage is stamped identically from pool threads and the
  // stepping thread.
  EXPECT_TRUE(testing::covers_pipeline(parallel.trace));
}

TEST(ParallelExecutorDifferential, OversizedPoolIsStillIdentical) {
  // More workers than any stage has tasks: extra threads must idle at the
  // barrier without disturbing the merge order.
  const RunCapture parallel = run_clean(4);
  const RunCapture oversized = run_clean(9);
  EXPECT_EQ(parallel.results, oversized.results);
  EXPECT_EQ(parallel.metrics, oversized.metrics);
  EXPECT_EQ(parallel.trace, oversized.trace);
}

}  // namespace
}  // namespace netalytics::core
