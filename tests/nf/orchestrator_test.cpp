#include "nf/orchestrator.hpp"

#include <gtest/gtest.h>

#include "parsers/parsers.hpp"

namespace netalytics::nf {
namespace {

BatchSink null_sink() {
  return [](std::string_view, std::vector<std::byte>, const BatchInfo&) {};
}

class OrchestratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { parsers::register_builtin_parsers(); }
  MonitorConfig config() {
    MonitorConfig c;
    c.parsers = {{"tcp_flow_key", 1}};
    return c;
  }
};

TEST_F(OrchestratorTest, DeployAndFind) {
  NfvOrchestrator orch;
  const auto id = orch.deploy("host-3", config(), null_sink());
  EXPECT_NE(id.find("host-3"), std::string::npos);
  EXPECT_NE(orch.find(id), nullptr);
  EXPECT_EQ(orch.find("nope"), nullptr);
  EXPECT_EQ(orch.count(), 1u);
}

TEST_F(OrchestratorTest, UndeployRemoves) {
  NfvOrchestrator orch;
  const auto id = orch.deploy("h", config(), null_sink());
  EXPECT_TRUE(orch.undeploy(id));
  EXPECT_FALSE(orch.undeploy(id));
  EXPECT_EQ(orch.count(), 0u);
}

TEST_F(OrchestratorTest, ListReportsParsers) {
  NfvOrchestrator orch;
  MonitorConfig c;
  c.parsers = {{"http_get", 1}, {"tcp_conn_time", 1}};
  orch.deploy("rack5-host2", c, null_sink());
  const auto infos = orch.list();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].host, "rack5-host2");
  ASSERT_EQ(infos[0].parser_names.size(), 2u);
  EXPECT_EQ(infos[0].parser_names[0], "http_get");
}

TEST_F(OrchestratorTest, UndeployAllClearsEverything) {
  NfvOrchestrator orch;
  orch.deploy("a", config(), null_sink());
  orch.deploy("b", config(), null_sink());
  orch.undeploy_all();
  EXPECT_EQ(orch.count(), 0u);
}

TEST_F(OrchestratorTest, IdsAreUnique) {
  NfvOrchestrator orch;
  const auto a = orch.deploy("same-host", config(), null_sink());
  const auto b = orch.deploy("same-host", config(), null_sink());
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace netalytics::nf
