#include "stream/stepped.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "stream/bolts.hpp"
#include "stream/executor.hpp"
#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::ListSpout;

std::vector<Tuple> number_tuples(int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Tuple{{std::uint64_t(i), std::string("k" + std::to_string(i % 3))}});
  }
  return out;
}

/// Records which task instance saw which tuples (for grouping tests).
class TaskTagBolt final : public Bolt {
 public:
  static inline std::mutex mutex;
  static inline int next_tag = 0;
  static inline std::map<int, std::vector<Tuple>> seen;
  static void reset() {
    std::lock_guard lock(mutex);
    next_tag = 0;
    seen.clear();
  }

  TaskTagBolt() {
    std::lock_guard lock(mutex);
    tag_ = next_tag++;
  }
  void execute(Tuple&& input, Collector&) override {
    std::lock_guard lock(mutex);
    seen[tag_].push_back(std::move(input));
  }

 private:
  int tag_ = 0;
};

TEST(SteppedTopology, LinearPipelineDeliversAll) {
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(10)); },
              {"n", "k"});
  std::vector<Tuple> results;
  b.set_bolt("sink",
             [&results] {
               return std::make_unique<SinkBolt>(
                   [&results](const Tuple& t) { results.push_back(t); });
             },
             {})
      .shuffle_grouping("s");
  SteppedTopology topo(b.build());
  topo.run_until_idle(0);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(as_u64(results[0].at(0)), 0u);
  EXPECT_EQ(as_u64(results[9].at(0)), 9u);
  EXPECT_EQ(topo.tuples_executed(), 10u);
}

TEST(SteppedTopology, FieldsGroupingIsConsistent) {
  TaskTagBolt::reset();
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(30)); },
              {"n", "k"});
  b.set_bolt("tag", [] { return std::make_unique<TaskTagBolt>(); }, {}, 3)
      .fields_grouping("s", {"k"});
  SteppedTopology topo(b.build());
  topo.run_until_idle(0);

  // Each key must land on exactly one task.
  std::map<std::string, std::set<int>> key_to_tasks;
  for (const auto& [tag, tuples] : TaskTagBolt::seen) {
    for (const auto& t : tuples) key_to_tasks[as_str(t.at(1))].insert(tag);
  }
  ASSERT_EQ(key_to_tasks.size(), 3u);
  for (const auto& [key, tasks] : key_to_tasks) {
    EXPECT_EQ(tasks.size(), 1u) << key;
  }
}

TEST(SteppedTopology, ShuffleGroupingBalances) {
  TaskTagBolt::reset();
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(30)); },
              {"n", "k"});
  b.set_bolt("tag", [] { return std::make_unique<TaskTagBolt>(); }, {}, 3)
      .shuffle_grouping("s");
  SteppedTopology topo(b.build());
  topo.run_until_idle(0);
  ASSERT_EQ(TaskTagBolt::seen.size(), 3u);
  for (const auto& [tag, tuples] : TaskTagBolt::seen) {
    EXPECT_EQ(tuples.size(), 10u);  // perfect round robin
  }
}

TEST(SteppedTopology, GlobalGroupingUsesTaskZero) {
  TaskTagBolt::reset();
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(10)); },
              {"n", "k"});
  b.set_bolt("tag", [] { return std::make_unique<TaskTagBolt>(); }, {}, 3)
      .global_grouping("s");
  SteppedTopology topo(b.build());
  topo.run_until_idle(0);
  ASSERT_EQ(TaskTagBolt::seen.size(), 1u);
  EXPECT_EQ(TaskTagBolt::seen.begin()->second.size(), 10u);
}

TEST(SteppedTopology, AllGroupingBroadcasts) {
  TaskTagBolt::reset();
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(10)); },
              {"n", "k"});
  b.set_bolt("tag", [] { return std::make_unique<TaskTagBolt>(); }, {}, 3)
      .all_grouping("s");
  SteppedTopology topo(b.build());
  topo.run_until_idle(0);
  ASSERT_EQ(TaskTagBolt::seen.size(), 3u);
  for (const auto& [tag, tuples] : TaskTagBolt::seen) {
    EXPECT_EQ(tuples.size(), 10u);
  }
}

TEST(SteppedTopology, MultiHopFlowsInOneStep) {
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(5)); },
              {"n", "k"});
  b.set_bolt("f1",
             [] {
               return std::make_unique<FilterBolt>([](const Tuple&) { return true; });
             },
             {"n", "k"})
      .shuffle_grouping("s");
  std::vector<Tuple> results;
  b.set_bolt("sink",
             [&results] {
               return std::make_unique<SinkBolt>(
                   [&results](const Tuple& t) { results.push_back(t); });
             },
             {})
      .shuffle_grouping("f1");
  SteppedTopology topo(b.build());
  // A single step with enough spout budget must push tuples end to end.
  topo.step(0, 16);
  EXPECT_EQ(results.size(), 5u);
}

TEST(SteppedTopology, SpoutBudgetLimitsPerStep) {
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(10)); },
              {"n", "k"});
  std::vector<Tuple> results;
  b.set_bolt("sink",
             [&results] {
               return std::make_unique<SinkBolt>(
                   [&results](const Tuple& t) { results.push_back(t); });
             },
             {})
      .shuffle_grouping("s");
  SteppedTopology topo(b.build());
  topo.step(0, 3);
  EXPECT_EQ(results.size(), 3u);
  topo.step(0, 3);
  EXPECT_EQ(results.size(), 6u);
}

/// Emits one tuple whose string is too long for the small-string buffer,
/// and records where that string's heap bytes live.
class LongStringSpout final : public Spout {
 public:
  explicit LongStringSpout(const char** emitted) : emitted_(emitted) {}
  bool next_tuple(Collector& out, common::Timestamp /*now*/) override {
    if (done_) return false;
    done_ = true;
    Tuple t;
    t.values.emplace_back(std::string(256, 'x'));
    *emitted_ = as_str(t.at(0)).data();
    out.emit(std::move(t));
    return true;
  }

 private:
  const char** emitted_;
  bool done_ = false;
};

TEST(TupleOwnership, ForwardingBoltsMoveTheirInput) {
  // Bolt::execute owns its input: a tuple that passes a filter on its way
  // to the sink is moved at every hop, so the sink sees the very string
  // buffer the spout allocated. A copy anywhere on the way (a filter that
  // emits `input` instead of moving it) gives the sink a new buffer.
  for (const ExecutorMode mode : {ExecutorMode::stepped, ExecutorMode::free_running}) {
    SCOPED_TRACE(to_string(mode));
    const char* emitted = nullptr;
    const char* seen = nullptr;
    std::size_t delivered = 0;
    TopologyBuilder b("move");
    b.set_spout("s", [&emitted] { return std::make_unique<LongStringSpout>(&emitted); },
                {"s"});
    b.set_bolt("filter",
               [] {
                 return std::make_unique<FilterBolt>([](const Tuple&) { return true; });
               },
               {"s"})
        .shuffle_grouping("s");
    b.set_bolt("sink",
               [&seen, &delivered] {
                 return std::make_unique<SinkBolt>([&seen, &delivered](Tuple&& t) {
                   seen = as_str(t.at(0)).data();
                   ++delivered;
                 });
               },
               {})
        .shuffle_grouping("filter");
    const auto exec = make_executor(b.build(), ExecutorConfig{.mode = mode});
    exec->run_until_idle(0);
    exec->close(0);
    ASSERT_EQ(delivered, 1u);
    ASSERT_NE(emitted, nullptr);
    EXPECT_EQ(seen, emitted);
  }
}

}  // namespace
}  // namespace netalytics::stream
