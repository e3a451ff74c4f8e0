// Mutation harness for the monitor's raw-bytes ingress: seeded mutants of
// pktgen traffic (byte flips, truncations, splices, false IPv4 total-length
// and TCP data-offset fields) go through Monitor::process(frame, ts), one
// monitor per Table-1 parser. Nothing may escape the monitor, every packet
// offered to a parser group must end in exactly one outcome, and every
// discard must appear under its DropLedger cause.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "support/frame_mutator.hpp"

namespace netalytics::nf {
namespace {

/// Fixed budget: mutants per seed (each monitor sees every one).
constexpr std::size_t kMutantsPerSeed = 20000;

using Frame = std::vector<std::byte>;

/// Whole sessions for every Table-1 parser: HTTP GETs, memcached GETs,
/// MySQL queries with their result sets, and bare TCP connections.
std::vector<Frame> pktgen_traffic() {
  std::vector<Frame> frames;
  const pktgen::FrameSink collect = [&frames](std::span<const std::byte> f,
                                              common::Timestamp) {
    frames.emplace_back(f.begin(), f.end());
  };
  const auto session = [&collect](net::Port client, net::Port server,
                                  std::span<const std::byte> request,
                                  std::span<const std::byte> response) {
    pktgen::SessionSpec s;
    s.flow = {net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 1, 2), client,
              server, 6};
    s.request = request;
    s.response = response;
    s.mss = 256;  // some responses span several segments
    pktgen::emit_tcp_session(s, collect);
  };
  const auto http_resp = pktgen::http_response(200, 600);
  const auto mc_resp = pktgen::memcached_value_response("user:7", 300);
  const auto sql_resp = pktgen::mysql_resultset_packet(400);
  for (int i = 0; i < 4; ++i) {
    const auto port = static_cast<net::Port>(30000 + 10 * i);
    const auto get = pktgen::http_get_request("/page" + std::to_string(i), "h");
    session(port, 80, get, http_resp);
    const auto mc = pktgen::memcached_get_request("user:" + std::to_string(i));
    session(port + 1, 11211, mc, mc_resp);
    const auto sql = pktgen::mysql_query_packet("SELECT " + std::to_string(i));
    session(port + 2, 3306, sql, sql_resp);
    session(port + 3, 5001, {}, {});
  }
  return frames;
}

/// One seeded mutant: a random clean frame put through one to three
/// mutations, the splice donor being another random clean frame.
Frame mutant(const std::vector<Frame>& clean, common::Rng& rng) {
  Frame m = clean[rng.uniform(0, clean.size() - 1)];
  const auto rounds = rng.uniform(1, 3);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    switch (rng.uniform(0, 2)) {
      case 0:
        fuzz::mutate_headers(m, rng);
        break;
      case 1:
        fuzz::flip_byte(m, rng);
        break;
      default:
        fuzz::splice(m, clean[rng.uniform(0, clean.size() - 1)], rng);
        break;
    }
  }
  return m;
}

/// One monitor running a single parser, with its own registry, ledger and
/// chaos plan, so its counters describe exactly one parser group.
struct Harness {
  common::MetricsRegistry registry;
  common::DropLedger ledger{registry};
  common::FaultPlan faults{11};
  std::unique_ptr<Monitor> monitor;
  std::uint64_t escaped = 0;  // exceptions that left the monitor
  std::string first_escape;

  explicit Harness(std::string_view parser) {
    MonitorConfig cfg;
    cfg.parsers = {{std::string(parser), 2}};
    cfg.output_batch_records = 8;
    cfg.sample_rate = 0.8;
    cfg.metrics = &registry;
    cfg.metrics_prefix = "mon";
    cfg.drop_ledger = &ledger;
    monitor = std::make_unique<Monitor>(
        cfg, [](std::string_view, std::vector<std::byte>, const BatchInfo&) {});
    faults.arm(std::string(kFaultRxOverflow), {.every_nth = 23});
    faults.arm(std::string(kFaultParserThrow), {.every_nth = 29});
    monitor->install_faults(&faults);
  }

  template <typename F>
  void guarded(F&& call) {
    try {
      call();
    } catch (const std::exception& e) {
      if (escaped++ == 0) first_escape = e.what();
    } catch (...) {
      if (escaped++ == 0) first_escape = "non-std exception";
    }
  }

  std::uint64_t counter(const char* leaf) {
    return registry.counter(std::string("mon.") + leaf).value();
  }
};

TEST(MonitorMutation, MutatedFramesAreParsedOrDroppedUnderTheirCause) {
  parsers::register_builtin_parsers();
  const auto clean = pktgen_traffic();
  ASSERT_GT(clean.size(), 40u);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<std::unique_ptr<Harness>> harnesses;
    for (const auto parser : parsers::kBuiltinParsers) {
      harnesses.push_back(std::make_unique<Harness>(parser));
    }
    common::Rng rng(seed);
    common::Timestamp ts = 0;
    for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
      // Clean frames between the mutants keep flows and parser state alive
      // for the mutants to collide with.
      const Frame frame = i % 4 == 0 ? clean[i / 4 % clean.size()] : mutant(clean, rng);
      ts += common::kMillisecond;
      for (auto& h : harnesses) {
        h->guarded([&] { h->monitor->process(frame, ts); });
        if (i % 64 == 63) h->guarded([&] { h->monitor->tick(ts); });
      }
    }
    for (std::size_t p = 0; p < harnesses.size(); ++p) {
      Harness& h = *harnesses[p];
      SCOPED_TRACE(std::string(parsers::kBuiltinParsers[p]));
      h.guarded([&] { h.monitor->close(ts + 1); });
      EXPECT_EQ(h.escaped, 0u) << h.first_escape;

      const MonitorStats s = h.monitor->stats();
      EXPECT_EQ(s.rx_packets, kMutantsPerSeed);
      // One parser group: every offered packet ends in exactly one outcome.
      EXPECT_EQ(s.rx_packets, s.rx_dropped + s.decode_failed + s.sampled_out +
                                  s.parsed + s.parser_errors);
      EXPECT_EQ(s.dispatched, s.parsed + s.parser_errors);
      // Each discard is under its ledger cause, and only there.
      using common::DropCause;
      EXPECT_EQ(h.ledger.value(DropCause::ingest_ring_overflow), s.rx_dropped);
      EXPECT_EQ(h.ledger.value(DropCause::ingest_decode_error), s.decode_failed);
      EXPECT_EQ(h.ledger.value(DropCause::sample_rejected), s.sampled_out);
      EXPECT_EQ(h.ledger.value(DropCause::parse_error), s.parser_errors);
      EXPECT_EQ(h.ledger.value(DropCause::parse_no_output),
                s.parsed - h.counter("parse_with_output"));
      // The mutants reached every branch the identities are about.
      EXPECT_GT(s.rx_dropped, 0u);
      EXPECT_GT(s.decode_failed, 0u);
      EXPECT_GT(s.sampled_out, 0u);
      EXPECT_GT(s.parsed, 0u);
      EXPECT_GT(s.parser_errors, 0u);
    }
  }
}

}  // namespace
}  // namespace netalytics::nf
