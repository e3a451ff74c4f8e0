// Metrics overhead — the cost of self-observability on the hot path.
//
// The instrumentation contract (common/metrics.hpp) is that a counter inc
// is one relaxed atomic add and a histogram observe is three, so fully
// instrumented pipeline code stays within noise of uninstrumented code.
// This harness measures both halves of that claim on this machine:
//   1. raw metric-op cost (inc / gauge set / observe), ns per op;
//   2. monitor inline-path throughput (same cell as Figure 5, 256 B HTTP),
//      which crosses every instrumented layer of the monitor. The registry
//      counters are always on. Five arms differ in what else is bound of
//      what an engine query adds: nothing (baseline), all three (a
//      StageTracer, a DropLedger and a 1-in-64 trace recorder), or one of
//      them alone. Each round runs one window of every arm, the arm order
//      rotating every round, and the median with its q1-q3 band is printed
//      for each arm and for its cost against the same round's baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/generator.hpp"

using namespace netalytics;

namespace {

double secs_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// ns per op over `iters` calls of `op` (called with the iteration index).
template <typename Op>
double ns_per_op(std::uint64_t iters, Op&& op) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) op(i);
  return secs_since(start) * 1e9 / static_cast<double>(iters);
}

/// Which of the optional per-query instruments a window binds.
struct Arm {
  const char* label;
  bool tracer;
  bool ledger;
  bool recorder;
};

constexpr Arm kArms[] = {
    {"baseline", false, false, false},
    {"instrumented", true, true, true},
    {"tracer only", true, false, false},
    {"ledger only", false, true, false},
    {"recorder only", false, false, true},
};
constexpr std::size_t kArmCount = std::size(kArms);

/// Monitor inline-path Mpps over one window, with `arm`'s instruments bound.
double monitor_mpps(const Arm& arm) {
  pktgen::GeneratorConfig gcfg;
  gcfg.kind = pktgen::TrafficKind::http_get;
  gcfg.frame_size = 256;
  gcfg.flow_count = 512;
  pktgen::TrafficGenerator gen(gcfg);

  common::MetricsRegistry registry;
  common::StageTracer tracer(registry, "bench.trace");
  common::DropLedger ledger(registry, "bench.drop");
  common::TraceRecorder recorder(common::TraceRecorder::Config{.sample_denominator = 64});

  nf::MonitorConfig mcfg;
  mcfg.parsers = {{"http_get", 1}};
  mcfg.output_batch_records = 64;
  mcfg.metrics = &registry;
  if (arm.tracer) mcfg.tracer = &tracer;
  if (arm.ledger) mcfg.drop_ledger = &ledger;
  if (arm.recorder) mcfg.trace_recorder = &recorder;
  nf::Monitor monitor(mcfg, [](std::string_view, std::vector<std::byte>,
                               const nf::BatchInfo&) {});

  for (int i = 0; i < 20000; ++i) monitor.process(gen.next_frame(), i);

  constexpr auto kWindow = std::chrono::milliseconds(150);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t packets = 0;
  while (std::chrono::steady_clock::now() - start < kWindow) {
    for (int i = 0; i < 2000; ++i) {
      monitor.process(gen.next_frame(), packets);
      ++packets;
    }
  }
  const double secs = secs_since(start);
  monitor.close(packets);
  return static_cast<double>(packets) / secs / 1e6;
}

struct Quartiles {
  double q1, median, q3;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

}  // namespace

int main() {
  parsers::register_builtin_parsers();
  std::printf("== Metrics overhead ==\n");

  common::MetricsRegistry registry;
  auto& counter = registry.counter("bench.hits");
  auto& gauge = registry.gauge("bench.depth");
  auto& hist = registry.histogram("bench.lat");

  constexpr std::uint64_t kOps = 50'000'000;
  std::printf("%-28s %8.2f ns/op\n", "Counter::inc",
              ns_per_op(kOps, [&](std::uint64_t) { counter.inc(); }));
  std::printf("%-28s %8.2f ns/op\n", "Gauge::set",
              ns_per_op(kOps, [&](std::uint64_t i) {
                gauge.set(static_cast<std::int64_t>(i));
              }));
  std::printf("%-28s %8.2f ns/op\n", "HistogramMetric::observe",
              ns_per_op(kOps, [&](std::uint64_t i) {
                hist.observe(i % (10 * common::kSecond));
              }));

  constexpr std::size_t kRounds = 12;
  std::vector<double> mpps[kArmCount];
  std::vector<double> cost_pct[kArmCount];
  for (std::size_t round = 0; round < kRounds; ++round) {
    double got[kArmCount];
    for (std::size_t k = 0; k < kArmCount; ++k) {
      const std::size_t a = (round + k) % kArmCount;
      got[a] = monitor_mpps(kArms[a]);
    }
    for (std::size_t a = 0; a < kArmCount; ++a) {
      mpps[a].push_back(got[a]);
      cost_pct[a].push_back((got[0] - got[a]) / got[0] * 100.0);
    }
  }
  std::printf("monitor inline path (256B), median of %zu rounds, arm order rotating:\n",
              kRounds);
  for (std::size_t a = 0; a < kArmCount; ++a) {
    const Quartiles q = quartiles(mpps[a]);
    std::printf("  %-26s %8.2f Mpps (q1-q3 %.2f-%.2f)", kArms[a].label, q.median,
                q.q1, q.q3);
    if (a != 0) {
      const Quartiles c = quartiles(cost_pct[a]);
      std::printf("  cost %5.1f%% (q1-q3 %.1f-%.1f)", c.median, c.q1, c.q3);
    }
    std::printf("\n");
  }
  return 0;
}
