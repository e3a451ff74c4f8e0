// Use case §7.1 — multi-tier performance debugging (Figs. 9-11).
//
// A proxy load balances over two app servers backed by MySQL and
// Memcached. AppServer1 is misconfigured: most of its requests go to the
// database instead of the cache. The client sees bimodal response times,
// but CPU metrics look fine everywhere. Two NetAlytics queries localize
// the fault without touching any server:
//   1. tcp_conn_time + diff-group(destIP): per-tier response times;
//   2. tcp_pkt_size + group-sum(pair): per-connection-pair throughput.
#include <cstdio>

#include "apps/multitier.hpp"
#include "core/netalytics.hpp"

using namespace netalytics;

namespace {

std::string ip_name(const apps::MultiTierHosts& hosts, net::Ipv4Addr ip) {
  if (ip == hosts.client) return "Client";
  if (ip == hosts.proxy) return "Proxy";
  if (ip == hosts.app1) return "AppServer1";
  if (ip == hosts.app2) return "AppServer2";
  if (ip == hosts.mysql) return "MySQL";
  if (ip == hosts.memcached) return "Memcached";
  return net::format_ipv4(ip);
}

}  // namespace

int main() {
  auto emu = core::Emulation::make_small(4);
  core::NetAlytics engine(emu);

  apps::MultiTierConfig app_cfg;
  app_cfg.app1_misconfigured = true;
  apps::MultiTierApp app(emu, app_cfg);
  const auto& hosts = app.hosts();

  // ---- Step 1: the symptom (Fig. 10) ------------------------------------
  // Run the workload once with no queries to see what the client sees.
  app.run(common::kSecond, 400, 25 * common::kMillisecond);
  std::printf("Fig.10 — client response time histogram (ms bucket, count)\n");
  common::Histogram hist(0, 200, 40);
  for (const double ms : app.client_response_times_ms().samples()) hist.add(ms);
  std::printf("%s\n", hist.to_rows().c_str());
  std::printf("  -> bimodal: p25=%.1fms vs p95=%.1fms\n\n",
              app.client_response_times_ms().percentile(25),
              app.client_response_times_ms().percentile(95));

  // ---- Step 2: per-tier response times (Fig. 9) --------------------------
  auto q1 = engine.submit(
      "PARSE tcp_conn_time FROM * TO " + net::format_ipv4(hosts.proxy) +
          ":80, " + net::format_ipv4(hosts.app1) + ":8080, " +
          net::format_ipv4(hosts.app2) + ":8080, " +
          net::format_ipv4(hosts.mysql) + ":3306, " +
          net::format_ipv4(hosts.memcached) + ":11211 "
          "LIMIT 90s SAMPLE * PROCESS (diff-group: group=destIP)",
      10 * common::kSecond);
  if (!q1) {
    std::fprintf(stderr, "q1 rejected: %s\n", q1.error().to_string().c_str());
    return 1;
  }

  // ---- Step 3: per-pair throughput (Fig. 11) ------------------------------
  auto q2 = engine.submit(
      "PARSE tcp_pkt_size FROM * TO " + net::format_ipv4(hosts.mysql) +
          ":3306, " + net::format_ipv4(hosts.memcached) + ":11211 "
          "LIMIT 90s SAMPLE * PROCESS (group-sum: group=pair, value=bytes)",
      10 * common::kSecond);
  if (!q2) {
    std::fprintf(stderr, "q2 rejected: %s\n", q2.error().to_string().c_str());
    return 1;
  }

  // Re-run the workload with the monitors live, pumping the engine as
  // virtual time advances.
  common::Timestamp now = 10 * common::kSecond;
  for (int burst = 0; burst < 10; ++burst) {
    app.run(now, 40, 25 * common::kMillisecond);
    now += common::kSecond + common::kMillisecond;
    engine.pump(now);
  }
  engine.stop_all(now);

  std::printf("Fig.9 — avg response time per tier (diff-group: group=destIP)\n");
  for (const auto& row : (*q1)->view().latest(1)) {
    const auto ip = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(0)));
    std::printf("  -> %-12s %8.1f ms   (%llu connections)\n",
                ip_name(hosts, ip).c_str(),
                stream::as_f64(row.at(1)) / common::kMillisecond,
                static_cast<unsigned long long>(stream::as_u64(row.at(2))));
  }

  std::printf("\nFig.11 — bytes per src->dst pair (group-sum over tcp_pkt_size)\n");
  for (const auto& row : (*q2)->view().latest(2)) {
    const auto src = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(0)));
    const auto dst = static_cast<net::Ipv4Addr>(stream::as_u64(row.at(1)));
    std::printf("  %-12s -> %-10s %10.0f bytes\n", ip_name(hosts, src).c_str(),
                ip_name(hosts, dst).c_str(), stream::as_f64(row.at(2)));
  }

  std::printf(
      "\nDiagnosis: AppServer1's response time is several times AppServer2's,\n"
      "and its MySQL byte volume dwarfs its Memcached volume — the classic\n"
      "signature of a cache misconfiguration, found with zero instrumentation.\n");
  return 0;
}
