#include "stream/topology.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::ListSpout;

SpoutFactory dummy_spout() {
  return [] { return std::make_unique<ListSpout>(std::vector<Tuple>{}); };
}

class PassBolt final : public Bolt {
 public:
  void execute(Tuple&& input, Collector& out) override {
    out.emit(std::move(input));
  }
};

BoltFactory dummy_bolt() {
  return [] { return std::make_unique<PassBolt>(); };
}

TEST(TopologyBuilder, ValidLinearTopologyBuilds) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {"a", "b"});
  b.set_bolt("x", dummy_bolt(), {"c"}).shuffle_grouping("s");
  b.set_bolt("y", dummy_bolt(), {}).fields_grouping("x", {"c"});
  const auto spec = b.build();
  EXPECT_EQ(spec.components.size(), 3u);
  EXPECT_NE(spec.find("x"), nullptr);
  EXPECT_EQ(spec.find("zzz"), nullptr);
}

TEST(TopologyBuilder, RejectsDuplicateNames) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {});
  b.set_bolt("s", dummy_bolt(), {}).shuffle_grouping("s");
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(TopologyBuilder, RejectsUnknownSource) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {});
  b.set_bolt("x", dummy_bolt(), {}).shuffle_grouping("ghost");
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(TopologyBuilder, RejectsBoltWithoutInput) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {});
  b.set_bolt("orphan", dummy_bolt(), {});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(TopologyBuilder, RejectsUnknownGroupingField) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {"a"});
  b.set_bolt("x", dummy_bolt(), {}).fields_grouping("s", {"nope"});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(TopologyBuilder, RejectsEmptyFieldsGrouping) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {"a"});
  b.set_bolt("x", dummy_bolt(), {}).fields_grouping("s", {});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(TopologyBuilder, RejectsCycle) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {});
  b.set_bolt("x", dummy_bolt(), {}).shuffle_grouping("s").shuffle_grouping("y");
  b.set_bolt("y", dummy_bolt(), {}).shuffle_grouping("x");
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(TopologyBuilder, ParallelismZeroClampsToOne) {
  TopologyBuilder b("t");
  b.set_spout("s", dummy_spout(), {}, 0);
  const auto spec = b.build();
  EXPECT_EQ(spec.components[0].parallelism, 1u);
}

TEST(TopologyBuilder, MultipleSubscriptionsAllowed) {
  TopologyBuilder b("t");
  b.set_spout("s1", dummy_spout(), {"a"});
  b.set_spout("s2", dummy_spout(), {"b"});
  b.set_bolt("join", dummy_bolt(), {})
      .fields_grouping("s1", {"a"})
      .fields_grouping("s2", {"b"});
  EXPECT_NO_THROW(b.build());
}

}  // namespace
}  // namespace netalytics::stream
