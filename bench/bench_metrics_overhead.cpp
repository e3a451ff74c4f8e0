// Metrics overhead — the cost of self-observability on the hot path.
//
// The instrumentation contract (common/metrics.hpp) is that a counter inc
// is one relaxed atomic add and a histogram observe is three, so fully
// instrumented pipeline code stays within noise of uninstrumented code.
// This harness measures both halves of that claim on this machine:
//   1. raw metric-op cost (inc / gauge set / observe), ns per op;
//   2. monitor inline-path throughput (same cell as Figure 5, 256 B HTTP),
//      which crosses every instrumented layer of the monitor. The registry
//      counters are always on; the instrumented windows also bind what an
//      engine query adds (a StageTracer, a DropLedger and a 1-in-64 trace
//      recorder), the baseline windows bind none of it. Windows alternate
//      between the two in pairs, the order flipping every pair, and the
//      median with its q1-q3 band is printed for each side and for the
//      per-pair cost.
#include <algorithm>
#include <chrono>
#include <cstdio>
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

/// Monitor inline-path Mpps over one window, with or without the optional
/// per-query instrumentation bound.
double monitor_mpps(bool instrumented) {
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
  if (instrumented) {
    mcfg.tracer = &tracer;
    mcfg.drop_ledger = &ledger;
    mcfg.trace_recorder = &recorder;
  }
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

  constexpr int kPairs = 12;
  std::vector<double> baseline, instrumented, cost_pct;
  for (int i = 0; i < kPairs; ++i) {
    const bool instrumented_first = i % 2 == 0;
    const double first = monitor_mpps(instrumented_first);
    const double second = monitor_mpps(!instrumented_first);
    const double on = instrumented_first ? first : second;
    const double off = instrumented_first ? second : first;
    instrumented.push_back(on);
    baseline.push_back(off);
    cost_pct.push_back((off - on) / off * 100.0);
  }
  const auto print = [](const char* label, const char* unit, const Quartiles& q) {
    std::printf("%-28s %8.2f %-4s (q1-q3 %.2f-%.2f)\n", label, q.median, unit, q.q1,
                q.q3);
  };
  std::printf("monitor inline path (256B), median of %d interleaved pairs:\n", kPairs);
  print("  baseline", "Mpps", quartiles(baseline));
  print("  instrumented", "Mpps", quartiles(instrumented));
  print("  instrumentation cost", "%", quartiles(cost_pct));
  return 0;
}
