// Federation integration (docs/FEDERATION.md): child engines monitoring
// disjoint traffic slices stream records and metric snapshots to the
// parent, whose global views — record multiset, fan-in top-k, fleet
// metrics, historical store — must account for the whole fleet exactly.
#include "fed/federation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "common/byte_io.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "stream/tuple.hpp"

namespace netalytics::fed {
namespace {

constexpr std::string_view kQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)";

/// One HTTP GET session h0 -> h5 through `emu`, distinguished by port/url.
void http_session(core::Emulation& emu, int port, common::Timestamp start,
                  const char* url) {
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

/// Canonical string of one record's fields (transport-independent view:
/// topic/id/timestamp are streaming artifacts and excluded on purpose).
std::string fields_key(const nf::Record& r) {
  std::string out;
  for (const auto& f : r.fields) {
    out += stream::format_value(f);
    out += '|';
  }
  return out;
}

std::string fields_key(const stream::Tuple& t) {
  std::string out;
  for (const auto& v : t.values) {
    out += stream::format_value(v);
    out += '|';
  }
  return out;
}

/// Sorted multiset view of a record/tuple collection's field rows.
template <typename Range>
std::vector<std::string> field_multiset(const Range& rows) {
  std::vector<std::string> keys;
  for (const auto& row : rows) keys.push_back(fields_key(row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

core::FederationConfig small_config(std::size_t children) {
  core::FederationConfig cfg;
  cfg.children = children;
  cfg.key_field = 3;  // http_get schema {"id","ts","kind","value"}
  cfg.top_k = 5;
  return cfg;
}

TEST(Federation, StreamsEveryChildResultToTheParentExactly) {
  Federation fed(small_config(2));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());

  // Disjoint slices: child 0 serves /a twice and /hot once; child 1
  // serves /b once and /hot twice.
  http_session(fed.emulation(0), 0, common::kSecond, "/a");
  http_session(fed.emulation(0), 1, 1100 * common::kMillisecond, "/a");
  http_session(fed.emulation(0), 2, 1200 * common::kMillisecond, "/hot");
  http_session(fed.emulation(1), 0, common::kSecond, "/b");
  http_session(fed.emulation(1), 1, 1100 * common::kMillisecond, "/hot");
  http_session(fed.emulation(1), 2, 1300 * common::kMillisecond, "/hot");

  for (common::Timestamp t = common::kSecond; t <= 4 * common::kSecond;
       t += common::kSecond) {
    fed.pump(t);
    const auto report = fed.reconcile();
    EXPECT_TRUE(report.exact()) << "t=" << t << "\n" << report.render();
  }
  fed.settle(5 * common::kSecond);

  // Every child result reached the parent exactly once.
  const auto report = fed.reconcile();
  ASSERT_TRUE(report.exact()) << report.render();
  std::vector<std::string> expected;
  std::uint64_t results = 0;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    ASSERT_FALSE(fed.query(i)->results().empty()) << "child " << i;
    results += fed.query(i)->results().size();
    for (const auto& key : field_multiset(fed.query(i)->results())) {
      expected.push_back(key);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fed.parent().total_records_applied(), results);
  EXPECT_EQ(field_multiset(fed.parent().all_records()), expected);

  // The global top-k equals a direct tally of the union, summed across
  // children (FanInTopK semantics).
  std::map<std::string, std::uint64_t> tally;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    for (const auto& t : fed.query(i)->results()) {
      tally[stream::format_value(t.at(3))] += 1;
    }
  }
  const stream::Rankings global = fed.parent().top_k().global();
  for (const auto& entry : global.entries()) {
    EXPECT_EQ(entry.count, tally.at(entry.key)) << entry.key;
  }
  EXPECT_EQ(fed.render_top_k(), fed.render_top_k());  // deterministic
  EXPECT_NE(fed.render_top_k().find("/hot"), std::string::npos);
}

TEST(Federation, FleetMetricsMirrorEveryChildRegistry) {
  Federation fed(small_config(2));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  http_session(fed.emulation(0), 0, common::kSecond, "/m0");
  http_session(fed.emulation(1), 0, common::kSecond, "/m1");
  fed.settle(2 * common::kSecond);

  // METRICS frames carry absolute values for changed series; after settle
  // the parent's fleet.child<i>.* mirror equals each child registry for
  // every counter and gauge (histograms stay child-local in protocol v1).
  const auto fleet = fed.parent().metrics().snapshot();
  for (std::size_t i = 0; i < fed.children(); ++i) {
    const auto child = fed.engine(i).metrics().snapshot();
    const std::string prefix = "fleet.child" + std::to_string(i) + ".";
    ASSERT_FALSE(child.counters.empty());
    for (const auto& c : child.counters) {
      EXPECT_EQ(fleet.counter_value(prefix + c.name), c.value)
          << prefix << c.name;
    }
    for (const auto& g : child.gauges) {
      EXPECT_EQ(fleet.gauge_value(prefix + g.name), g.value)
          << prefix << g.name;
    }
  }

  // The Prometheus exposition lifts child<i> into a child label.
  const std::string prom = fed.export_metrics();
  EXPECT_NE(prom.find("child=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("child=\"1\""), std::string::npos);
  EXPECT_EQ(prom, fed.export_metrics());

  // The fleet store answers range queries over child history.
  tsdb::RangeQuery q;
  q.selector = "fleet.child0.engine.pumps";
  const auto range = fed.query_range(q);
  ASSERT_EQ(range.series.size(), 1u);
  ASSERT_FALSE(range.series[0].points.empty());
  EXPECT_GT(range.series[0].points[0].value, 0.0);
}

TEST(Federation, ReplayOverflowUnderOutageIsCountedNotHidden) {
  core::FederationConfig cfg = small_config(1);
  cfg.replay_capacity = 2;    // frames
  cfg.records_per_frame = 1;  // one record per frame
  common::FaultPlan plan(3);
  common::FaultSpec down;
  down.window_start = 0;
  down.window_end = 7 * common::kSecond;
  plan.arm("fed.link.0.down", down);
  Federation fed(cfg, &plan);
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());

  for (int i = 0; i < 6; ++i) {
    http_session(fed.emulation(0), i,
                 common::kSecond + i * 200 * common::kMillisecond, "/ovf");
  }
  for (common::Timestamp t = common::kSecond; t <= 6 * common::kSecond;
       t += common::kSecond) {
    fed.pump(t);
    EXPECT_FALSE(fed.child(0).streaming()) << "outage window still open";
  }
  fed.settle(7 * common::kSecond);

  const auto report = fed.reconcile();
  ASSERT_EQ(report.children.size(), 1u);
  const ChildReconcile& c = report.children[0];
  ASSERT_GT(c.results, 2u) << "need more results than the replay buffer";
  // The buffer shed the oldest frames; after recovery the parent observed
  // the shed range as an offset gap. Under a pure outage (nothing was
  // applied before the shedding) the conservative child-side overflow
  // count is exact: lost == overflow, and the accounting still closes.
  EXPECT_GT(c.overflow, 0u);
  EXPECT_EQ(c.lost, c.overflow);
  EXPECT_EQ(c.residual(), 0);
  EXPECT_FALSE(c.exact());
  EXPECT_EQ(fed.parent().records(0).size(), c.streamed - c.lost);
  // What did survive is the newest suffix of the result stream.
  std::vector<std::string> tail;
  const auto& results = fed.query(0)->results();
  for (std::size_t i = results.size() - (c.streamed - c.lost);
       i < results.size(); ++i) {
    tail.push_back(fields_key(results[i]));
  }
  std::sort(tail.begin(), tail.end());
  EXPECT_EQ(field_multiset(fed.parent().records(0)), tail);
}

TEST(Federation, ChildRestartIsExactlyIdempotent) {
  Federation fed(small_config(2));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  http_session(fed.emulation(0), 0, common::kSecond, "/pre");
  http_session(fed.emulation(1), 0, common::kSecond, "/pre");
  fed.pump(common::kSecond);
  fed.pump(2 * common::kSecond);
  ASSERT_TRUE(fed.reconcile().exact());

  // Child 1's streaming node dies and comes back with no state: it
  // re-frames its engine's result stream from offset 0, and the parent's
  // watermark discards everything already applied.
  fed.restart_child(1, 2 * common::kSecond);
  http_session(fed.emulation(1), 1, 2500 * common::kMillisecond, "/post");
  fed.settle(3 * common::kSecond);

  const auto report = fed.reconcile();
  EXPECT_TRUE(report.exact()) << report.render();
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    for (const auto& key : field_multiset(fed.query(i)->results())) {
      expected.push_back(key);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(field_multiset(fed.parent().all_records()), expected);
  EXPECT_GE(fed.child(1).stats().reconnects, 1u);
}

/// A 40-byte RECORDS frame whose batch claims 2^32-1 records.
std::vector<std::byte> huge_count_records_frame() {
  common::ByteWriter batch;
  batch.u8(1);  // uniform-topic layout
  batch.str("");
  batch.u32(0xffffffffu);
  batch.u32(0);
  batch.u16(0);
  common::ByteWriter w;
  w.u32(1 + 8 + 8 + 4 + static_cast<std::uint32_t>(batch.size()));
  w.u8(static_cast<std::uint8_t>(MsgType::records));
  w.u64(0);  // offset
  w.u64(0);  // tick
  w.bytes(batch.view());
  return w.take();
}

/// A well-framed RECORDS frame whose payload stops mid-batch.
std::vector<std::byte> truncated_records_frame() {
  nf::Record r;
  r.topic = "http_get";
  r.fields = {std::string("/cut")};
  auto bytes = encode(RecordsFrame{.offset = 0, .tick = 0, .records = {r}});
  bytes.resize(bytes.size() - 6);
  const auto len = static_cast<std::uint32_t>(bytes.size() - 4);
  std::memcpy(bytes.data(), &len, sizeof len);  // little-endian prefix
  return bytes;
}

TEST(Federation, HostileRecordsFramesAreRejectedNotThrown) {
  Federation fed(small_config(2));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  http_session(fed.emulation(0), 0, common::kSecond, "/a");
  http_session(fed.emulation(1), 0, common::kSecond, "/b");
  fed.pump(common::kSecond);
  fed.pump(2 * common::kSecond);
  ASSERT_TRUE(fed.child(0).streaming());
  ASSERT_EQ(huge_count_records_frame().size(), 40u);

  // Each bad frame is counted and drops the link (RST rules); the child
  // reconnects, and gap replication closes the accounting again.
  common::Timestamp t = 3 * common::kSecond;
  for (const auto& bad : {huge_count_records_frame(), truncated_records_frame()}) {
    ASSERT_TRUE(fed.link(0).send_up(bad, t));
    EXPECT_NO_THROW(fed.pump(t));
    EXPECT_FALSE(fed.link(0).connected());
    http_session(fed.emulation(0), static_cast<int>(t / common::kSecond), t, "/c");
    t = fed.settle(t + common::kSecond) + common::kSecond;
    ASSERT_TRUE(fed.child(0).streaming());
  }

  EXPECT_EQ(fed.parent().child_stats(0).malformed_frames, 2u);
  EXPECT_EQ(fed.parent().child_stats(1).malformed_frames, 0u);
  EXPECT_NE(fed.export_metrics().find("malformed_frames"), std::string::npos);
  const auto report = fed.reconcile();
  EXPECT_TRUE(report.exact()) << report.render();
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    for (const auto& key : field_multiset(fed.query(i)->results())) {
      expected.push_back(key);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(field_multiset(fed.parent().all_records()), expected);
}

TEST(Federation, UnframeableBytesAreRejectedNotThrown) {
  Federation fed(small_config(1));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  fed.pump(common::kSecond);
  fed.pump(2 * common::kSecond);
  ASSERT_TRUE(fed.child(0).streaming());
  // A zero length prefix, then an unknown type byte: neither frames.
  const std::vector<std::byte> zero_length(4, std::byte{0});
  ASSERT_TRUE(fed.link(0).send_up(zero_length, 3 * common::kSecond));
  EXPECT_NO_THROW(fed.pump(3 * common::kSecond));
  const common::Timestamp t = fed.settle(4 * common::kSecond) + common::kSecond;
  ASSERT_TRUE(fed.child(0).streaming());
  const std::vector<std::byte> unknown_type = {std::byte{1}, std::byte{0},
                                               std::byte{0}, std::byte{0},
                                               std::byte{0x7f}};
  ASSERT_TRUE(fed.link(0).send_up(unknown_type, t));
  EXPECT_NO_THROW(fed.pump(t));
  fed.settle(t + common::kSecond);
  EXPECT_EQ(fed.parent().child_stats(0).malformed_frames, 2u);
  EXPECT_TRUE(fed.reconcile().exact()) << fed.reconcile().render();
}

TEST(Federation, RejectsBadConfigAndDoubleSubmit) {
  core::FederationConfig zero;
  zero.children = 0;
  EXPECT_THROW(Federation{zero}, std::invalid_argument);

  Federation fed(small_config(1));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  const auto again = fed.submit(kQuery, 0);
  ASSERT_FALSE(again.has_value());
  EXPECT_EQ(again.error().code, "fed");
}

}  // namespace
}  // namespace netalytics::fed
