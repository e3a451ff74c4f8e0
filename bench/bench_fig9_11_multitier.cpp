// Figures 9-11 — multi-tier performance debugging (§7.1): regenerates the
// per-tier response times (Fig. 9), the bimodal client histogram (Fig. 10)
// and the per-pair throughput (Fig. 11) through the full NetAlytics
// pipeline, then checks the paper's shapes.
#include <cstdio>

#include "apps/multitier.hpp"
#include "core/netalytics.hpp"

using namespace netalytics;

int main() {
  auto emu = core::Emulation::make_small(4);
  core::NetAlytics engine(emu);
  apps::MultiTierConfig cfg;
  cfg.app1_misconfigured = true;
  apps::MultiTierApp app(emu, cfg);
  const auto& hosts = app.hosts();

  auto q_conn = engine.submit(
      "PARSE tcp_conn_time FROM * TO " + net::format_ipv4(hosts.proxy) +
          ":80, " + net::format_ipv4(hosts.app1) + ":8080, " +
          net::format_ipv4(hosts.app2) + ":8080, " +
          net::format_ipv4(hosts.mysql) + ":3306, " +
          net::format_ipv4(hosts.memcached) + ":11211 "
          "LIMIT 90s SAMPLE * PROCESS (diff-group: group=destIP)",
      0);
  auto q_bytes = engine.submit(
      "PARSE tcp_pkt_size FROM * TO " + net::format_ipv4(hosts.mysql) +
          ":3306, " + net::format_ipv4(hosts.memcached) + ":11211 "
          "LIMIT 90s SAMPLE * PROCESS (group-sum: group=pair, value=bytes)",
      0);
  if (!q_conn || !q_bytes) {
    std::fprintf(stderr, "query rejected\n");
    return 1;
  }

  common::Timestamp now = 0;
  for (int burst = 0; burst < 12; ++burst) {
    app.run(now, 50, 20 * common::kMillisecond);
    now += common::kSecond + common::kMillisecond;
    engine.pump(now);
  }
  engine.stop_all(now);

  // ---- Fig. 10 -----------------------------------------------------------
  std::printf("== Figure 10: client response-time histogram (ms, count) ==\n");
  common::Histogram hist(0, 200, 40);
  for (const double ms : app.client_response_times_ms().samples()) hist.add(ms);
  std::printf("%s\n", hist.to_rows().c_str());

  // ---- Fig. 9 -------------------------------------------------------------
  std::printf("== Figure 9: avg response time per tier (ms) ==\n");
  double app1_ms = 0, app2_ms = 0, mysql_ms = 0, memc_ms = 0;
  for (const auto& row : (*q_conn)->view().latest(1)) {
    const auto ip = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(0)));
    const double ms = stream::as_f64(row.at(1)) / common::kMillisecond;
    std::printf("  %-16s %8.1f ms (%llu conns)\n", net::format_ipv4(ip).c_str(),
                ms, static_cast<unsigned long long>(stream::as_u64(row.at(2))));
    if (ip == hosts.app1) app1_ms = ms;
    if (ip == hosts.app2) app2_ms = ms;
    if (ip == hosts.mysql) mysql_ms = ms;
    if (ip == hosts.memcached) memc_ms = ms;
  }

  // ---- Fig. 11 ------------------------------------------------------------
  std::printf("\n== Figure 11: per-pair bytes (group-sum of tcp_pkt_size) ==\n");
  double app1_mysql = 0, app2_mysql = 0, app1_memc = 0, app2_memc = 0;
  for (const auto& row : (*q_bytes)->view().latest(2)) {
    const auto src = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(0)));
    const auto dst = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(1)));
    const double bytes = stream::as_f64(row.at(2));
    std::printf("  %-16s -> %-16s %12.0f bytes\n",
                net::format_ipv4(src).c_str(), net::format_ipv4(dst).c_str(),
                bytes);
    if (dst == hosts.app1 && src == hosts.mysql) app1_mysql = bytes;
    if (dst == hosts.app2 && src == hosts.mysql) app2_mysql = bytes;
    if (dst == hosts.app1 && src == hosts.memcached) app1_memc = bytes;
    if (dst == hosts.app2 && src == hosts.memcached) app2_memc = bytes;
  }

  std::printf("\nshape checks (paper §7.1):\n");
  std::printf("  AppServer1 response ~4x AppServer2: %s (%.1f vs %.1f ms)\n",
              app1_ms > app2_ms * 2.5 ? "yes" : "NO", app1_ms, app2_ms);
  std::printf("  MySQL slow, Memcached fast: %s (%.1f vs %.1f ms)\n",
              mysql_ms > memc_ms * 10 ? "yes" : "NO", mysql_ms, memc_ms);
  std::printf("  App1 MySQL bytes >> App2's: %s (%.0f vs %.0f)\n",
              app1_mysql > app2_mysql * 2 ? "yes" : "NO", app1_mysql, app2_mysql);
  std::printf("  App1 Memcached bytes << App2's: %s (%.0f vs %.0f)\n",
              app1_memc * 2 < app2_memc ? "yes" : "NO", app1_memc, app2_memc);
  std::printf("  client histogram bimodal: %s (p25=%.1f, p95=%.1f ms)\n",
              app.client_response_times_ms().percentile(95) >
                      app.client_response_times_ms().percentile(25) * 4
                  ? "yes"
                  : "NO",
              app.client_response_times_ms().percentile(25),
              app.client_response_times_ms().percentile(95));
  return 0;
}
