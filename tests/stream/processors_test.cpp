// End-to-end processor tests: records are produced into the aggregation
// cluster exactly as a monitor would ship them, then each named processor
// topology is built and run on the stepped executor.
#include "stream/processors.hpp"

#include <gtest/gtest.h>

#include "common/byte_io.hpp"
#include "mq/producer.hpp"
#include "nf/record.hpp"
#include "stream/stepped.hpp"

namespace netalytics::stream {
namespace {

class ProcessorsTest : public ::testing::Test {
 protected:
  ProcessorsTest() : cluster_(2), producer_(cluster_, 1) {}

  void ship(nf::Record record) {
    const std::vector<nf::Record> batch = {std::move(record)};
    producer_.send(batch[0].topic, nf::serialize_batch(batch), 0);
  }

  nf::Record conn_event(std::uint64_t id, common::Timestamp ts, const char* event,
                        std::uint64_t dst_ip) {
    nf::Record r;
    r.topic = "tcp_conn_time";
    r.id = id;
    r.timestamp = ts;
    r.fields = {std::string(event), std::uint64_t{0x0a000001}, dst_ip,
                std::uint64_t{40000 + id}, std::uint64_t{80}};
    return r;
  }

  nf::Record http_request(std::uint64_t id, const std::string& url) {
    nf::Record r;
    r.topic = "http_get";
    r.id = id;
    r.timestamp = 1;
    r.fields = {std::string("request"), url};
    return r;
  }

  ProcessorContext context() {
    ProcessorContext ctx;
    ctx.cluster = &cluster_;
    ctx.result_sink = [this](const Tuple& t) { results_.push_back(t); };
    return ctx;
  }

  mq::Cluster cluster_;
  mq::Producer producer_;
  std::vector<Tuple> results_;
};

TEST_F(ProcessorsTest, RegistryKnowsAllNames) {
  for (const auto& name : processor_names()) {
    EXPECT_TRUE(is_known_processor(name)) << name;
  }
  EXPECT_FALSE(is_known_processor("bogus"));
}

TEST_F(ProcessorsTest, SchemasCoverBuiltinParsers) {
  EXPECT_EQ(record_schema("tcp_conn_time").size(), 7u);
  EXPECT_EQ(record_schema("http_get").size(), 4u);
  EXPECT_EQ(record_schema("mysql_query").size(), 4u);
  EXPECT_TRUE(record_schema("unknown").empty());
}

TEST_F(ProcessorsTest, ErrorsAreRecoverable) {
  auto ctx = context();
  ctx.topics = {"http_get"};
  EXPECT_FALSE(build_processor("bogus", {}, ctx).has_value());

  ProcessorContext no_cluster = ctx;
  no_cluster.cluster = nullptr;
  EXPECT_FALSE(build_processor("top-k", {}, no_cluster).has_value());

  ProcessorContext no_topics = ctx;
  no_topics.topics.clear();
  EXPECT_FALSE(build_processor("top-k", {}, no_topics).has_value());

  // diff-group without tcp_conn_time.
  ProcessorContext wrong = ctx;
  wrong.topics = {"http_get"};
  EXPECT_FALSE(build_processor("diff-group", {}, wrong).has_value());
}

TEST_F(ProcessorsTest, TopKRanksHotUrls) {
  // 30 requests for /hot, 10 for /warm, 1 for /cold.
  std::uint64_t id = 1;
  for (int i = 0; i < 30; ++i) ship(http_request(id++, "/hot"));
  for (int i = 0; i < 10; ++i) ship(http_request(id++, "/warm"));
  ship(http_request(id++, "/cold"));

  auto ctx = context();
  ctx.topics = {"http_get"};
  ProcessorParams params;
  params.args["k"] = "2";
  params.args["w"] = "10s";
  auto spec = build_processor("top-k", params, ctx);
  ASSERT_TRUE(spec.has_value());

  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);  // counting emits, rankers emit

  // Results are [rank, key, count] rows.
  ASSERT_GE(results_.size(), 2u);
  EXPECT_EQ(as_u64(results_[0].at(0)), 1u);
  EXPECT_EQ(as_str(results_[0].at(1)), "/hot");
  EXPECT_EQ(as_u64(results_[0].at(2)), 30u);
  EXPECT_EQ(as_str(results_[1].at(1)), "/warm");
}

TEST_F(ProcessorsTest, TopKIgnoresHttpResponses) {
  nf::Record resp;
  resp.topic = "http_get";
  resp.id = 99;
  resp.fields = {std::string("response"), std::uint64_t{200}};
  ship(resp);
  ship(http_request(1, "/only"));

  auto ctx = context();
  ctx.topics = {"http_get"};
  auto spec = build_processor("top-k", {}, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(as_str(results_[0].at(1)), "/only");
}

TEST_F(ProcessorsTest, TopKWritesToKvStoreWhenProvided) {
  ship(http_request(1, "/page"));
  KvStore store;
  auto ctx = context();
  ctx.topics = {"http_get"};
  ctx.kvstore = &store;
  auto spec = build_processor("top-k", {}, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);
  EXPECT_EQ(store.get("topk:rank:1").value(), "/page");
  EXPECT_EQ(results_.size(), 1u);  // sink still fed via the database bolt
}

TEST_F(ProcessorsTest, DiffGroupAveragesByDestIp) {
  // Two servers: dst 0xB gets 100ms connections, dst 0xC gets 400ms.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ship(conn_event(10 + i, 0, "start", 0xB));
    ship(conn_event(10 + i, 100 * common::kMillisecond, "end", 0xB));
    ship(conn_event(20 + i, 0, "start", 0xC));
    ship(conn_event(20 + i, 400 * common::kMillisecond, "end", 0xC));
  }

  auto ctx = context();
  ctx.topics = {"tcp_conn_time"};
  ProcessorParams params;
  params.args["group"] = "destIP";
  auto spec = build_processor("diff-group-avg", params, ctx);
  ASSERT_TRUE(spec.has_value());

  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);

  // [dst_ip, avg, samples] rows.
  ASSERT_EQ(results_.size(), 2u);
  double avg_b = 0, avg_c = 0;
  for (const auto& t : results_) {
    if (as_u64(t.at(0)) == 0xB) avg_b = as_f64(t.at(1));
    if (as_u64(t.at(0)) == 0xC) avg_c = as_f64(t.at(1));
    EXPECT_EQ(as_u64(t.at(2)), 4u);
  }
  EXPECT_NEAR(avg_b, 100.0 * common::kMillisecond, 1.0);
  EXPECT_NEAR(avg_c, 400.0 * common::kMillisecond, 1.0);
}

TEST_F(ProcessorsTest, DiffGroupByGetJoinsUrls) {
  // §7.2 query: PARSE (tcp_conn_time, http_get) ... PROCESS
  // (diff-group: group=get).
  for (std::uint64_t i = 0; i < 3; ++i) {
    ship(conn_event(100 + i, 0, "start", 0xB));
    ship(http_request(100 + i, "/slow.php"));
    ship(conn_event(100 + i, 2 * common::kSecond, "end", 0xB));
  }
  ship(conn_event(200, 0, "start", 0xB));
  ship(http_request(200, "/fast.php"));
  ship(conn_event(200, 10 * common::kMillisecond, "end", 0xB));

  auto ctx = context();
  ctx.topics = {"tcp_conn_time", "http_get"};
  ProcessorParams params;
  params.args["group"] = "get";
  auto spec = build_processor("diff-group", params, ctx);
  ASSERT_TRUE(spec.has_value());

  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);

  ASSERT_EQ(results_.size(), 2u);
  for (const auto& t : results_) {
    const auto& url = as_str(t.at(0));
    const double avg = as_f64(t.at(1));
    if (url == "/slow.php") {
      EXPECT_NEAR(avg, 2.0 * common::kSecond, 1.0);
      EXPECT_EQ(as_u64(t.at(2)), 3u);
    } else {
      EXPECT_EQ(url, "/fast.php");
      EXPECT_NEAR(avg, 10.0 * common::kMillisecond, 1.0);
    }
  }
}

TEST_F(ProcessorsTest, DiffGroupAggNoneEmitsRawDurations) {
  ship(conn_event(1, 0, "start", 0xB));
  ship(conn_event(1, 500, "end", 0xB));
  auto ctx = context();
  ctx.topics = {"tcp_conn_time"};
  ProcessorParams params;
  params.args["agg"] = "none";
  auto spec = build_processor("diff-group", params, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  ASSERT_EQ(results_.size(), 1u);  // no tick needed: raw rows stream out
  EXPECT_EQ(as_u64(results_[0].at(1)), 500u);
}

TEST_F(ProcessorsTest, GroupSumAggregatesBytesPerPair) {
  // tcp_pkt_size records: [src_ip, dst_ip, dst_port, bytes, packets].
  auto pkt_size = [](std::uint64_t id, std::uint64_t src, std::uint64_t dst,
                     std::uint64_t bytes) {
    nf::Record r;
    r.topic = "tcp_pkt_size";
    r.id = id;
    r.fields = {src, dst, std::uint64_t{3306}, bytes, std::uint64_t{1}};
    return r;
  };
  ship(pkt_size(1, 0xA, 0xDB, 1000));
  ship(pkt_size(2, 0xA, 0xDB, 2000));
  ship(pkt_size(3, 0xB, 0xDB, 500));

  auto ctx = context();
  ctx.topics = {"tcp_pkt_size"};
  ProcessorParams params;
  params.args["group"] = "pair";
  params.args["value"] = "bytes";
  auto spec = build_processor("group-sum", params, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);

  ASSERT_EQ(results_.size(), 2u);
  for (const auto& t : results_) {
    if (as_u64(t.at(0)) == 0xA) {
      EXPECT_DOUBLE_EQ(as_f64(t.at(2)), 3000.0);
    } else {
      EXPECT_DOUBLE_EQ(as_f64(t.at(2)), 500.0);
    }
  }
}

TEST_F(ProcessorsTest, GroupAvgOverMysqlLatencies) {
  auto query = [](std::uint64_t id, const std::string& stmt, std::uint64_t ns) {
    nf::Record r;
    r.topic = "mysql_query";
    r.id = id;
    r.fields = {stmt, ns};
    return r;
  };
  ship(query(1, "SELECT a", 100));
  ship(query(2, "SELECT a", 300));
  ship(query(3, "SELECT b", 1000));

  auto ctx = context();
  ctx.topics = {"mysql_query"};
  auto spec = build_processor("group-avg", {}, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);
  ASSERT_EQ(results_.size(), 2u);
  for (const auto& t : results_) {
    if (as_str(t.at(0)) == "SELECT a") {
      EXPECT_DOUBLE_EQ(as_f64(t.at(1)), 200.0);
    } else {
      EXPECT_DOUBLE_EQ(as_f64(t.at(1)), 1000.0);
    }
  }
}

TEST_F(ProcessorsTest, JoinCorrelatesTwoParsersById) {
  // §3.4 leaves join as future work; this library provides it. Join the
  // URL from http_get with the statement latency from mysql_query for the
  // same flow id.
  ship(http_request(7, "/checkout"));
  nf::Record sql;
  sql.topic = "mysql_query";
  sql.id = 7;
  sql.fields = {std::string("SELECT cart"), std::uint64_t{12345}};
  ship(sql);
  ship(http_request(8, "/unmatched"));  // no right side: stays pending

  auto ctx = context();
  ctx.topics = {"http_get", "mysql_query"};
  ProcessorParams params;
  params.args["left"] = "value";
  params.args["right"] = "latency_ns";
  auto spec = build_processor("join", params, ctx);
  ASSERT_TRUE(spec.has_value()) << spec.error().to_string();

  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(as_u64(results_[0].at(0)), 7u);
  EXPECT_EQ(as_str(results_[0].at(1)), "/checkout");
  EXPECT_EQ(as_u64(results_[0].at(2)), 12345u);
}

TEST_F(ProcessorsTest, JoinDefaultsToLastFields) {
  ship(http_request(3, "/page"));
  nf::Record sql;
  sql.topic = "mysql_query";
  sql.id = 3;
  sql.fields = {std::string("SELECT 1"), std::uint64_t{500}};
  ship(sql);
  auto ctx = context();
  ctx.topics = {"http_get", "mysql_query"};
  auto spec = build_processor("join", {}, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(as_str(results_[0].at(1)), "/page");     // http "value"
  EXPECT_EQ(as_u64(results_[0].at(2)), 500u);        // mysql "latency_ns"
}

TEST_F(ProcessorsTest, JoinErrors) {
  auto ctx = context();
  ctx.topics = {"http_get"};
  EXPECT_FALSE(build_processor("join", {}, ctx).has_value());  // one parser

  ctx.topics = {"http_get", "mysql_query"};
  ProcessorParams bad;
  bad.args["left"] = "nope";
  EXPECT_FALSE(build_processor("join", bad, ctx).has_value());

  ctx.topics = {"http_get", "mysql_query"};
  EXPECT_TRUE(build_processor("join", {}, ctx).has_value());
}

TEST_F(ProcessorsTest, IdentityStreamsRawRecords) {
  ship(http_request(1, "/x"));
  ship(http_request(2, "/y"));
  auto ctx = context();
  ctx.topics = {"http_get"};
  auto spec = build_processor("identity", {}, ctx);
  ASSERT_TRUE(spec.has_value());
  SteppedTopology topo(*spec);
  topo.run_until_idle(0);
  ASSERT_EQ(results_.size(), 2u);
  EXPECT_EQ(as_str(results_[0].at(3)), "/x");
}

TEST_F(ProcessorsTest, ParamsParseDurationsAndDefaults) {
  ProcessorParams p;
  p.args = {{"k", "5"},   {"w", "30s"}, {"bad", "abc"}, {"n", "7"},
            {"min", "2m"}, {"x", "5x"},  {"m", "m"},     {"o", "1O"},
            {"neg", "-3s"}};
  EXPECT_EQ(p.get_u64("k", 10).value(), 5u);
  EXPECT_EQ(p.get_ticks("w", 10).value(), 30u);
  EXPECT_EQ(p.get_ticks("n", 10).value(), 7u);
  EXPECT_EQ(p.get_ticks("min", 10).value(), 120u);  // minutes, as in LIMIT
  EXPECT_EQ(p.get_u64("missing", 7).value(), 7u);
  EXPECT_EQ(p.get_ticks("missing", 7).value(), 7u);
  // Malformed values are errors naming the argument, never a fallback.
  for (const char* bad : {"bad", "x", "m", "o", "neg"}) {
    const auto ticks = p.get_ticks(bad, 10);
    ASSERT_FALSE(ticks.has_value()) << bad;
    EXPECT_NE(ticks.error().message.find(std::string(bad) + "="),
              std::string::npos);
  }
  EXPECT_FALSE(p.get_u64("bad", 7).has_value());
  EXPECT_FALSE(p.get_u64("w", 7).has_value());  // a count takes no unit
  EXPECT_EQ(p.get("k", "x"), "5");
  EXPECT_EQ(p.get("missing", "x"), "x");
}

TEST_F(ProcessorsTest, TopKRejectsMalformedArgumentsByName) {
  auto ctx = context();
  ctx.topics = {"http_get"};
  const auto build = [&](std::string key, std::string value) {
    ProcessorParams p;
    p.args[key] = value;
    return build_processor("top-k", p, ctx);
  };
  EXPECT_TRUE(build("w", "2m").has_value());
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"w", "5x"}, {"w", "abc"}, {"k", "1O"}, {"k", "10s"}}) {
    const auto spec = build(key, value);
    ASSERT_FALSE(spec.has_value()) << key << "=" << value;
    EXPECT_NE(spec.error().message.find(key + "='" + value + "'"),
              std::string::npos)
        << spec.error().message;
  }
}

}  // namespace
}  // namespace netalytics::stream
