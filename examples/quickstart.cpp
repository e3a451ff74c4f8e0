// Quickstart: submit a NetAlytics query against an emulated data center,
// push some HTTP traffic through the fabric, and read back the top-k
// result stream.
//
//   $ ./quickstart
//
// The pipeline (paper Fig. 1): query -> SDN mirror rules + NFV monitors ->
// aggregation brokers -> stream processors -> results.
#include <cstdio>

#include "core/netalytics.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

using namespace netalytics;

int main() {
  // 1. An emulated data center: 8 racks x 4 hosts, every ToR switch a live
  //    SDN switch under one controller. Hosts are pre-bound as h0..h31.
  auto emu = core::Emulation::make_small(4);

  // 2. The NetAlytics engine on top of it (brokers, orchestrator, query
  //    interface).
  core::NetAlytics engine(emu);

  // 3. A query in the paper's language: watch HTTP traffic to h5:80 for 60
  //    seconds and keep a rolling top-10 of requested URLs.
  const auto submitted = engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s SAMPLE * "
      "PROCESS (top-k: k=10, w=30s)",
      /*now=*/0);
  if (!submitted) {
    std::fprintf(stderr, "query rejected: %s\n",
                 submitted.error().to_string().c_str());
    return 1;
  }
  core::QueryHandle* query = *submitted;
  std::printf("query %llu deployed: %zu monitor(s), %zu pair(s) mirrored\n",
              static_cast<unsigned long long>(query->id()),
              query->plan().monitors.size(), query->plan().pairs.size());

  // 4. Application traffic: clients fetch pages from h5 with a skewed
  //    popularity (/popular gets most of the hits).
  const char* urls[] = {"/popular", "/popular", "/popular", "/sometimes",
                        "/sometimes", "/rare"};
  common::Timestamp now = common::kSecond;
  int port = 30000;
  for (int i = 0; i < 120; ++i) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h" + std::to_string(i % 4)),  // clients h0..h3
              *emu.ip_of_name("h5"), static_cast<net::Port>(port++), 80, 6};
    s.start = now;
    s.rtt = common::kMillisecond;
    s.server_latency = 2 * common::kMillisecond;
    const auto req = pktgen::http_get_request(urls[i % std::size(urls)], "h5");
    const auto resp = pktgen::http_response(200, 800);
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(s, [&emu](std::span<const std::byte> f,
                                       common::Timestamp ts) { emu.transmit(f, ts); });
    now += 20 * common::kMillisecond;
  }

  // 5. Pump the analytics side as virtual time passes (ticks advance the
  //    rolling windows once per second).
  for (common::Timestamp t = common::kSecond; t <= 5 * common::kSecond;
       t += common::kSecond) {
    engine.pump(t);
  }

  // 6. Read the result stream: [rank, url, count] rows, newest ranking
  //    last; view().latest(1) collapses to the current ranking.
  std::printf("\nTop URLs to h5:80\n");
  for (const auto& row : query->view().latest(1)) {
    std::printf("  #%llu  %-12s %llu requests\n",
                static_cast<unsigned long long>(stream::as_u64(row.at(0))),
                stream::as_str(row.at(1)).c_str(),
                static_cast<unsigned long long>(stream::as_u64(row.at(2))));
  }

  // 7. Monitoring was transparent and cheap: compare raw mirrored bytes
  //    with what actually left the monitors as tuples (§3.1).
  const auto stats = query->monitor_stats();
  std::printf("\nmonitor saw %llu packets (%llu bytes), shipped %llu record "
              "bytes (%.1fx reduction)\n",
              static_cast<unsigned long long>(stats.parsed),
              static_cast<unsigned long long>(stats.raw_bytes),
              static_cast<unsigned long long>(stats.record_bytes),
              stats.record_bytes
                  ? static_cast<double>(stats.raw_bytes) /
                        static_cast<double>(stats.record_bytes)
                  : 0.0);
  engine.stop_all(now);

  // 8. Self-observability: everything this query did — monitor counters,
  //    producer/broker traffic, per-stage latency histograms — is in the
  //    engine's metrics registry, exported in Prometheus text format.
  std::printf("\nper-query metrics (excerpt):\n");
  const std::string metrics = query->export_metrics();
  std::size_t lines = 0, pos = 0;
  while (lines < 8 && pos < metrics.size()) {
    const auto eol = metrics.find('\n', pos);
    std::printf("  %s\n", metrics.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++lines;
  }
  std::printf("  ... (%zu chars total; engine.export_metrics() adds brokers)\n",
              metrics.size());
  return 0;
}
