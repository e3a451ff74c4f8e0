// Metrics overhead — the cost of self-observability on the hot path.
//
// The instrumentation contract (common/metrics.hpp) is that a counter inc
// is one relaxed atomic add and a histogram observe is three, so fully
// instrumented pipeline code stays within noise of uninstrumented code.
// This harness measures both halves of that claim on this machine:
//   1. raw metric-op cost (inc / gauge set / observe), ns per op;
//   2. monitor inline-path throughput (same cell as Figure 5, 256 B HTTP),
//      which crosses every instrumented layer of the monitor.
#include <chrono>
#include <cstdio>

#include "common/metrics.hpp"
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

double monitor_mpps() {
  pktgen::GeneratorConfig gcfg;
  gcfg.kind = pktgen::TrafficKind::http_get;
  gcfg.frame_size = 256;
  gcfg.flow_count = 512;
  pktgen::TrafficGenerator gen(gcfg);

  nf::MonitorConfig mcfg;
  mcfg.parsers = {{"http_get", 1}};
  mcfg.output_batch_records = 64;
  nf::Monitor monitor(mcfg, [](std::string_view, std::vector<std::byte>,
                               const nf::BatchInfo&) {});

  for (int i = 0; i < 20000; ++i) monitor.process(gen.next_frame(), i);

  constexpr auto kWindow = std::chrono::milliseconds(400);
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

  // Best of two windows, as in the Figure 5 harness.
  const double a = monitor_mpps();
  const double b = monitor_mpps();
  std::printf("%-28s %8.2f Mpps\n", "monitor inline path (256B)",
              a >= b ? a : b);
  return 0;
}
