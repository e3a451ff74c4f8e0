// Observability export walkthrough (docs/OBSERVABILITY.md): run a traced,
// profiled top-k query and write every export format the engine offers —
// a chrome://tracing JSON you can load in Perfetto (ui.perfetto.dev), a
// Prometheus text exposition, and a flamegraph.pl collapsed-stack profile.
//
//   $ ./observability_export [output-dir]
//
// Files land in output-dir (default: the system temp directory):
// netalytics_q1.trace.json, netalytics_q1.prom, netalytics_q1.folded. Each
// is listed with its line count rather than its size: the Prometheus and
// collapsed-stack files carry wall-clock profiler values, so their sizes
// vary from run to run while their line counts do not.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/netalytics.hpp"
#include "obs/export.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"

using namespace netalytics;

int main(int argc, char** argv) {
  const std::string out_dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path().string();

  auto emu = core::Emulation::make_small(4);

  // Tracing + profiling on: every packet gets a trace id carried through
  // the whole pipeline (including the aggregating bolts, via trace
  // continuation), and both executors publish per-task stage timings.
  core::EngineConfig cfg;
  cfg.trace_sample_denominator = 1;
  cfg.executor_profiler = true;
  cfg.processor_parallelism = 2;
  core::NetAlytics engine(emu, cfg);

  const auto submitted = engine.submit(
      "PARSE http_get FROM * TO h5:80 LIMIT 60s "
      "PROCESS (top-k: k=5, w=1s)",
      /*now=*/0);
  if (!submitted) {
    std::fprintf(stderr, "query rejected: %s\n",
                 submitted.error().to_string().c_str());
    return 1;
  }
  core::QueryHandle* query = *submitted;

  // A skewed HTTP workload so the top-k has something to rank.
  const char* urls[] = {"/popular", "/popular", "/sometimes", "/rare"};
  common::Timestamp now = common::kSecond;
  int port = 30000;
  for (int i = 0; i < 60; ++i) {
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name("h" + std::to_string(i % 4)),
              *emu.ip_of_name("h5"), static_cast<net::Port>(port++), 80, 6};
    s.start = now;
    s.rtt = common::kMillisecond;
    s.server_latency = 2 * common::kMillisecond;
    const auto req = pktgen::http_get_request(urls[i % std::size(urls)], "h5");
    const auto resp = pktgen::http_response(200, 400);
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(s,
                             [&emu](std::span<const std::byte> f,
                                    common::Timestamp ts) { emu.transmit(f, ts); });
    now += 30 * common::kMillisecond;
  }
  for (common::Timestamp t = common::kSecond; t <= 4 * common::kSecond;
       t += common::kSecond) {
    engine.pump(t);
  }

  // One file per registered export format.
  const std::string base = out_dir + "/netalytics_q" + std::to_string(query->id());
  struct Job {
    const char* format;
    std::string content;
  } jobs[] = {
      {"chrome-trace", query->export_chrome_trace()},
      {"prometheus", query->export_metrics()},
      {"collapsed-stack", query->export_profile()},
  };
  for (const auto& job : jobs) {
    const obs::ExporterFormat* fmt = obs::find_format(job.format);
    if (fmt == nullptr) continue;
    const std::string path = base + std::string(fmt->extension);
    if (const auto ok = obs::write_file(path, job.content); !ok) {
      std::fprintf(stderr, "write failed: %s\n", ok.error().to_string().c_str());
      return 1;
    }
    std::printf("%-16s %-60s %zu lines\n", fmt->name.data(), path.c_str(),
                static_cast<std::size_t>(
                    std::count(job.content.begin(), job.content.end(), '\n')));
  }

  // The engine-wide exposition a scraper would poll; the per-query dump
  // above is the same format filtered to "q1.".
  std::printf("\nengine exposition (excerpt):\n");
  const std::string prom = engine.export_metrics("engine.");
  std::size_t lines = 0, pos = 0;
  while (lines < 6 && pos < prom.size()) {
    const auto eol = prom.find('\n', pos);
    std::printf("  %s\n", prom.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++lines;
  }

  std::printf("\nopen %s.trace.json at ui.perfetto.dev to see one lane per\n"
              "pipeline stage; spans for one packet share an args.trace id.\n",
              base.c_str());
  engine.stop_all(now);
  return 0;
}
