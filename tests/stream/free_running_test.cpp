// The free-running executor's relaxed contract (docs/DETERMINISM.md,
// "relaxed mode"): inter-key order is surrendered, so these tests compare
// sorted multisets against the stepped oracle instead of raw sequences —
// but everything else must hold exactly. Per-key order is asserted per
// grouping type with an order-probe bolt, tick()/close() must still be
// quiescence points (windows fire exactly once over complete contents),
// and repeated parallel runs must produce the same multiset. A tiny-inbox
// run forces the help-on-full backpressure path through the same checks.
#include "stream/free_running.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stream/bolts.hpp"
#include "stream/executor.hpp"
#include "stream/stepped.hpp"
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

/// Canonical multiset view: renders of every tuple, sorted. Two runs with
/// relaxed inter-key order compare equal iff they delivered the same
/// tuples the same number of times.
std::vector<std::string> sorted_renders(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const auto& t : tuples) out.push_back(format_tuple(t));
  std::sort(out.begin(), out.end());
  return out;
}

/// The multi-hop grouping topology of parallel_stepped_test.cpp (shuffle ->
/// fields -> all -> global with a stateful aggregation), parameterized by
/// executor mode. `inbox_capacity` shrinks the free-running inboxes to
/// force the help-on-full path.
std::vector<Tuple> run_grouping_topology(ExecutorMode mode,
                                         std::size_t workers,
                                         std::size_t inbox_capacity = 4096) {
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
  auto topo = make_executor(b.build(),
                            ExecutorConfig{.workers = workers,
                                           .mode = mode,
                                           .inbox_capacity = inbox_capacity});
  EXPECT_EQ(topo->mode(), mode);
  EXPECT_EQ(topo->workers(), workers);
  topo->run_until_idle(0);
  topo->tick(common::kSecond);
  topo->close(2 * common::kSecond);
  return *results;
}

TEST(FreeRunning, FactoryDispatchesOnMode) {
  TopologyBuilder b("dispatch");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(1)); },
              {"n", "k"});
  auto stepped = make_executor(b.build(), ExecutorConfig{.workers = 2});
  EXPECT_EQ(stepped->mode(), ExecutorMode::stepped);
  EXPECT_NE(dynamic_cast<SteppedTopology*>(stepped.get()), nullptr);
  auto free = make_executor(
      b.build(),
      ExecutorConfig{.workers = 2, .mode = ExecutorMode::free_running});
  EXPECT_EQ(free->mode(), ExecutorMode::free_running);
  EXPECT_NE(dynamic_cast<FreeRunningTopology*>(free.get()), nullptr);
  EXPECT_STREQ(to_string(ExecutorMode::stepped), "stepped");
  EXPECT_STREQ(to_string(ExecutorMode::free_running), "free_running");
}

TEST(FreeRunning, GroupingMultisetMatchesSteppedAcrossWorkerCounts) {
  const auto oracle =
      sorted_renders(run_grouping_topology(ExecutorMode::stepped, 1));
  ASSERT_FALSE(oracle.empty());
  // Same multiset at every worker count — including counts exceeding the
  // widest stage (4 tasks) and the single-worker case where the driving
  // thread does all the draining itself.
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(oracle, sorted_renders(run_grouping_topology(
                          ExecutorMode::free_running, workers)))
        << "workers=" << workers;
  }
}

TEST(FreeRunning, TinyInboxesForceHelpOnFullAndStayCorrect) {
  // Capacity 2 makes nearly every push hit a full inbox, so emitters must
  // help drain their destination (the deadlock-freedom induction in
  // free_running.hpp). The multiset must be unaffected.
  const auto oracle =
      sorted_renders(run_grouping_topology(ExecutorMode::stepped, 1));
  EXPECT_EQ(oracle, sorted_renders(run_grouping_topology(
                        ExecutorMode::free_running, 4, /*inbox_capacity=*/2)));
}

TEST(FreeRunning, RepeatedRunsDeliverTheSameMultiset) {
  // Thread-schedule independence of the *multiset* (the relaxed analogue
  // of the stepped executor's bit-identical repeat guarantee).
  const auto first =
      sorted_renders(run_grouping_topology(ExecutorMode::free_running, 4));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first, sorted_renders(
                         run_grouping_topology(ExecutorMode::free_running, 4)))
        << "repeat=" << i;
  }
}

/// Records, per key, the sequence numbers it observes; any regression in a
/// key's sequence bumps the shared violation counter. Forwards its input so
/// it can sit mid-topology.
class KeyOrderProbeBolt final : public Bolt {
 public:
  explicit KeyOrderProbeBolt(std::shared_ptr<std::atomic<std::uint64_t>> v)
      : violations_(std::move(v)) {}

  void execute(Tuple&& input, Collector& out) override {
    const std::uint64_t seq = as_u64(input.at(0));
    const std::string& key = as_str(input.at(1));
    auto [it, inserted] = last_seq_.try_emplace(key, seq);
    if (!inserted) {
      if (seq <= it->second) violations_->fetch_add(1);
      it->second = seq;
    }
    out.emit(std::move(input));
  }

 private:
  std::map<std::string, std::uint64_t> last_seq_;  // per task instance
  std::shared_ptr<std::atomic<std::uint64_t>> violations_;
};

TEST(FreeRunning, PerKeyOrderHoldsThroughFieldsAndGlobalGroupings) {
  // 400 tuples over 8 keys; each key's sequence numbers are strictly
  // increasing at the spout. The fields-grouped probe (3 tasks) checks the
  // spout->fields channel; the global-grouped probe (1 task) checks that
  // each fields task's in-order emissions survive the fan-in. Shuffle
  // edges are deliberately absent: redistribution across tasks carries no
  // order promise in relaxed mode.
  std::vector<Tuple> input;
  for (int i = 0; i < 400; ++i) {
    input.push_back(Tuple{{std::uint64_t(i),
                           std::string("k" + std::to_string(i % 8))}});
  }
  auto violations = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::size_t delivered = 0;
  for (int repeat = 0; repeat < 5; ++repeat) {
    TopologyBuilder b("key-order");
    b.set_spout("s", [&input] { return std::make_unique<ListSpout>(input); },
                {"n", "k"});
    b.set_bolt("fields_probe",
               [violations] {
                 return std::make_unique<KeyOrderProbeBolt>(violations);
               },
               {"n", "k"}, 3)
        .fields_grouping("s", {"k"});
    b.set_bolt("global_probe",
               [violations] {
                 return std::make_unique<KeyOrderProbeBolt>(violations);
               },
               {"n", "k"})
        .global_grouping("fields_probe");
    auto results = std::make_shared<std::vector<Tuple>>();
    b.set_bolt("sink",
               [results] {
                 return std::make_unique<SinkBolt>(
                     [results](const Tuple& t) { results->push_back(t); });
               },
               {})
        .global_grouping("global_probe");
    FreeRunningTopology topo(
        b.build(), ExecutorConfig{.workers = 4, .inbox_capacity = 64});
    topo.run_until_idle(0);
    topo.close(common::kSecond);
    delivered += results->size();
  }
  EXPECT_EQ(delivered, 5u * 400u);
  EXPECT_EQ(violations->load(), 0u);
}

/// Pass-through window probe (as in parallel_stepped_test.cpp): counts
/// regular tuples and upstream tick/cleanup markers, emits [tag, regular,
/// markers] when its own window advances.
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
  FreeRunningTopology topo(b.build(), ExecutorConfig{.workers = workers});
  topo.run_until_idle(0);
  topo.tick(common::kSecond);
  topo.close(2 * common::kSecond);
  return *results;
}

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

TEST(FreeRunning, TickIsAQuiescencePointPerComponent) {
  const auto sink = run_probe_topology(4);
  // Exactly once per task, over complete contents: 12 regular tuples +
  // A's 3 tick markers + B's 2 tick records + A's 3 final markers + B's 2
  // final records — same census as the stepped run, any interleaving.
  EXPECT_EQ(sink.size(), 22u);
  const auto b_tick = tagged(sink, "B");
  ASSERT_EQ(b_tick.size(), 2u);
  // Quiescence before B's tick: every spout tuple of the round had been
  // executed by B...
  EXPECT_EQ(as_u64(b_tick[0].at(1)) + as_u64(b_tick[1].at(1)), 12u);
  // ...and the per-component quiesce inside tick() means A's 3 markers
  // drained through B's execute before B's window advanced.
  EXPECT_EQ(as_u64(b_tick[0].at(2)) + as_u64(b_tick[1].at(2)), 3u);
}

TEST(FreeRunning, CloseFlushesUpstreamCleanupsThroughDownstreamWindows) {
  const auto sink = run_probe_topology(4);
  const auto a_final = tagged(sink, "A.final");
  ASSERT_EQ(a_final.size(), 3u);  // one cleanup per A task, exactly once
  const auto b_final = tagged(sink, "B.final");
  ASSERT_EQ(b_final.size(), 2u);
  // close() quiesces between components: A's 3 final markers landed inside
  // B's final windows, and nothing else arrived between tick and close.
  EXPECT_EQ(as_u64(b_final[0].at(2)) + as_u64(b_final[1].at(2)), 3u);
  EXPECT_EQ(as_u64(b_final[0].at(1)) + as_u64(b_final[1].at(1)), 0u);
}

TEST(FreeRunning, TuplesExecutedMatchesSteppedTotal) {
  // The executed census is schedule-independent even though the schedule
  // is not: both executors push the same tuples through the same bolts.
  TopologyBuilder b("census");
  b.set_spout("s",
              [] { return std::make_unique<ListSpout>(number_tuples(30)); },
              {"n", "k"});
  b.set_bolt("A", [] { return std::make_unique<TagBolt>("t"); },
             {"n", "k", "tag"}, 2)
      .shuffle_grouping("s");
  auto sink_count = std::make_shared<std::atomic<std::uint64_t>>(0);
  b.set_bolt("sink",
             [sink_count] {
               return std::make_unique<SinkBolt>(
                   [sink_count](const Tuple&) { sink_count->fetch_add(1); });
             },
             {})
      .global_grouping("A");
  const TopologySpec spec = b.build();
  SteppedTopology stepped(spec, ExecutorConfig{.workers = 1});
  stepped.run_until_idle(0);
  FreeRunningTopology free_running(
      spec, ExecutorConfig{.workers = 4, .mode = ExecutorMode::free_running});
  free_running.run_until_idle(0);
  EXPECT_EQ(free_running.tuples_executed(), stepped.tuples_executed());
  EXPECT_EQ(sink_count->load(), 2u * 30u);  // both executors' sinks fired
}

}  // namespace
}  // namespace netalytics::stream
