// The stepped executor's determinism contract (docs/DETERMINISM.md):
// ExecutorConfig::workers must not be observable in the results. Every
// test here runs the same topology at workers = 1 (inline) and workers > 1
// (stage-parallel pool) and demands bit-identical sink contents, plus the
// stage-ordering guarantees for tick() and close(): a component's window
// advances only after every upstream emission of the round has been
// executed, and its own emissions drain before the next component's
// window advances.
#include "stream/stepped.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stream/bolts.hpp"
#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::ListSpout;

std::vector<Tuple> number_tuples(int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(
        Tuple{{std::uint64_t(i), std::string("k" + std::to_string(i % 5))}});
  }
  return out;
}

/// Pass-through window probe: forwards every input, counts regular tuples
/// and upstream tick/cleanup markers (first value is a string) separately,
/// and emits [tag, regular, markers] when its own window advances. The
/// marker count is the ordering witness: it can only be nonzero if the
/// upstream stage's tick ran — and drained through this bolt's execute —
/// before this bolt's tick.
class WindowProbeBolt final : public Bolt {
 public:
  explicit WindowProbeBolt(std::string tag) : tag_(std::move(tag)) {}

  void execute(Tuple&& input, Collector& out) override {
    if (std::holds_alternative<std::string>(input.at(0))) {
      ++markers_;
    } else {
      ++regular_;
    }
    out.emit(std::move(input));
  }
  void tick(common::Timestamp /*now*/, Collector& out) override {
    out.emit(Tuple{{tag_, regular_, markers_}});
    regular_ = 0;
    markers_ = 0;
  }
  void cleanup(common::Timestamp /*now*/, Collector& out) override {
    out.emit(Tuple{{tag_ + ".final", regular_, markers_}});
  }

 private:
  std::string tag_;
  std::uint64_t regular_ = 0;
  std::uint64_t markers_ = 0;
};

/// Build spout -> A (3 tasks) -> B (2 tasks) -> sink, run a fixed
/// step/tick/close schedule, and return everything the sink saw.
std::vector<Tuple> run_probe_topology(std::size_t workers) {
  TopologyBuilder b("probe");
  b.set_spout("s",
              [] { return std::make_unique<ListSpout>(number_tuples(12)); },
              {"n", "k"});
  b.set_bolt("A", [] { return std::make_unique<WindowProbeBolt>("A"); },
             {"n", "k"}, 3)
      .shuffle_grouping("s");
  b.set_bolt("B", [] { return std::make_unique<WindowProbeBolt>("B"); },
             {"n", "k"}, 2)
      .shuffle_grouping("A");
  auto results = std::make_shared<std::vector<Tuple>>();
  b.set_bolt("sink",
             [results] {
               return std::make_unique<SinkBolt>(
                   [results](const Tuple& t) { results->push_back(t); });
             },
             {})
      .global_grouping("B");
  SteppedTopology topo(b.build(), ExecutorConfig{.workers = workers});
  EXPECT_EQ(topo.workers(), workers);
  topo.run_until_idle(0);
  topo.tick(common::kSecond);
  topo.close(2 * common::kSecond);
  return *results;
}

/// Multi-hop topology exercising every grouping type with a stateful
/// aggregation; returns the sink contents for differential comparison.
std::vector<Tuple> run_grouping_topology(std::size_t workers) {
  TopologyBuilder b("groupings");
  b.set_spout("s",
              [] { return std::make_unique<ListSpout>(number_tuples(40)); },
              {"n", "k"});
  b.set_bolt("pass",
             [] {
               return std::make_unique<FilterBolt>(
                   [](const Tuple& t) { return as_u64(t.at(0)) % 7 != 3; });
             },
             {"n", "k"}, 4)
      .shuffle_grouping("s");
  b.set_bolt("agg",
             [] {
               GroupAggConfig cfg;
               cfg.group_indices = {1};
               cfg.value_index = 0;
               cfg.op = AggOp::sum;
               return std::make_unique<GroupAggBolt>(cfg);
             },
             {"k", "sum", "samples"}, 3)
      .fields_grouping("pass", {"k"});
  b.set_bolt("fanout", [] { return std::make_unique<TagBolt>("seen"); },
             {"k", "sum", "samples", "tag"}, 2)
      .all_grouping("agg");
  auto results = std::make_shared<std::vector<Tuple>>();
  b.set_bolt("sink",
             [results] {
               return std::make_unique<SinkBolt>(
                   [results](const Tuple& t) { results->push_back(t); });
             },
             {})
      .global_grouping("fanout");
  SteppedTopology topo(b.build(), ExecutorConfig{.workers = workers});
  topo.run_until_idle(0);
  topo.tick(common::kSecond);
  topo.close(2 * common::kSecond);
  return *results;
}

TEST(ParallelStepped, GroupingDifferentialAcrossWorkerCounts) {
  const auto serial = run_grouping_topology(1);
  ASSERT_FALSE(serial.empty());
  // Same tuples, same order, at every worker count — including counts
  // exceeding the widest stage (4 tasks), which leaves threads idle.
  EXPECT_EQ(serial, run_grouping_topology(2));
  EXPECT_EQ(serial, run_grouping_topology(4));
  EXPECT_EQ(serial, run_grouping_topology(8));
}

/// The sink records whose first value is the string `tag` (B passes
/// regular tuples and A's markers through, so the sink stream holds the
/// full interleaving; the window records are extracted by tag).
std::vector<Tuple> tagged(const std::vector<Tuple>& all,
                          const std::string& tag) {
  std::vector<Tuple> out;
  for (const auto& t : all) {
    if (std::holds_alternative<std::string>(t.at(0)) && as_str(t.at(0)) == tag) {
      out.push_back(t);
    }
  }
  return out;
}

TEST(ParallelStepped, TickAdvancesWindowsStageByStage) {
  const auto sink = run_probe_topology(4);
  // 12 regular tuples + A's 3 tick markers + B's 2 tick records + A's 3
  // final markers + B's 2 final records.
  EXPECT_EQ(sink.size(), 22u);
  const auto b_tick = tagged(sink, "B");
  ASSERT_EQ(b_tick.size(), 2u);  // one window record per B task, task order
  // All 12 spout tuples of the round were executed by B before B's
  // window advanced...
  EXPECT_EQ(as_u64(b_tick[0].at(1)) + as_u64(b_tick[1].at(1)), 12u);
  // ...and so were all 3 marker tuples A's tick emitted: stage N's tick
  // output reaches stage N+1's execute before stage N+1 ticks.
  EXPECT_EQ(as_u64(b_tick[0].at(2)) + as_u64(b_tick[1].at(2)), 3u);
}

TEST(ParallelStepped, CloseFlushesUpstreamCleanupsThroughDownstreamWindows) {
  const auto sink = run_probe_topology(4);
  const auto b_final = tagged(sink, "B.final");
  ASSERT_EQ(b_final.size(), 2u);
  // close() runs cleanups in topological order with drains in between:
  // A's 3 final markers must be inside B's final windows.
  EXPECT_EQ(as_u64(b_final[0].at(2)) + as_u64(b_final[1].at(2)), 3u);
  // Nothing but A's cleanup markers arrived between tick and close.
  EXPECT_EQ(as_u64(b_final[0].at(1)) + as_u64(b_final[1].at(1)), 0u);
}

TEST(ParallelStepped, ProbeDifferentialAcrossWorkerCounts) {
  const auto serial = run_probe_topology(1);
  EXPECT_EQ(serial, run_probe_topology(2));
  EXPECT_EQ(serial, run_probe_topology(4));
}

TEST(ParallelStepped, RepeatedParallelRunsAreBitIdentical) {
  // Thread-schedule independence, not just serial/parallel agreement:
  // repeated parallel runs must agree with each other too.
  const auto first = run_grouping_topology(4);
  EXPECT_EQ(first, run_grouping_topology(4));
}

}  // namespace
}  // namespace netalytics::stream
