// Topology model (§2.2, §3.2): "Storm conceptualizes its workflow as a
// directed acyclic graph wherein one processor emits data to other
// processors in the graph... a graph is a 'topology' whose root nodes, or
// 'spouts', feed other nodes, or 'bolts'". Components declare output
// fields; edges carry a grouping (shuffle / fields / global / all) that
// determines which task of the consumer receives each tuple.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "stream/tuple.hpp"

namespace netalytics::stream {

/// Passed to components so they can emit downstream.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void emit(Tuple tuple) = 0;
};

/// A data source. next_tuple() returns false when nothing is available
/// right now (the executor will retry later). `now` is the executor's
/// current virtual time, so sources can measure residency of the data
/// they pull.
class Spout {
 public:
  virtual ~Spout() = default;
  virtual void open() {}
  virtual bool next_tuple(Collector& out, common::Timestamp now) = 0;
  virtual void close(Collector& /*out*/) {}
};

/// A processing node.
///
/// Ownership: `execute` owns its input. The executors hand over the tuple
/// they popped from the task's inbox, so a bolt that forwards or keeps its
/// input (filter, tag, sink, the join and diff state) moves it rather than
/// copying; a bolt that only reads it lets it drop.
class Bolt {
 public:
  virtual ~Bolt() = default;
  virtual void prepare() {}
  virtual void execute(Tuple&& input, Collector& out) = 0;
  /// Periodic tick (rolling windows, ranking emission). Storm models this
  /// with tick tuples; here it is an explicit callback.
  virtual void tick(common::Timestamp /*now*/, Collector& /*out*/) {}
  /// Final flush when the topology shuts down.
  virtual void cleanup(common::Timestamp /*now*/, Collector& /*out*/) {}
};

/// How an edge picks the consumer task for each tuple (Storm's groupings):
/// `shuffle` round-robins, `fields` hashes a subset of the values so equal
/// keys always land on the same task, `global` pins everything to task 0,
/// `all` broadcasts a copy to every task.
enum class GroupingType { shuffle, fields, global, all };

struct Grouping {
  GroupingType type = GroupingType::shuffle;
  Fields fields{};  // for GroupingType::fields: names in the source's schema
};

/// Which executor make_executor() builds over a TopologySpec.
/// `stepped` (default): stage barriers, bit-identical results at any worker
/// count. `free_running`: work-stealing run-to-completion over per-task
/// MPMC inboxes — relaxed inter-key ordering, but the multiset of results,
/// per-key order for fields groupings, and reconcile/ledger accounting are
/// preserved (docs/DETERMINISM.md "relaxed mode", proven in
/// tests/core/free_running_differential_test.cpp).
enum class ExecutorMode { stepped, free_running };

const char* to_string(ExecutorMode mode) noexcept;

/// Execution-resource configuration for a topology executor. `workers` is
/// the total number of threads a scheduling round may use — the stepping
/// thread plus `workers - 1` pool threads. 1 (the default) runs everything
/// inline on the stepping thread; in stepped mode any value produces
/// bit-identical results (see docs/DETERMINISM.md for the contract and
/// tests/core/parallel_executor_differential_test.cpp for the proof).
/// `inbox_capacity` bounds each free-running task inbox (backpressure);
/// ignored by the stepped executor, whose inboxes are unbounded deques.
/// `profile` turns on the executor stage profiler: per-task wall-clock
/// self-time / queue-wait / pool-event counters published into the bound
/// registry under "<prefix>.profiler." (see docs/OBSERVABILITY.md). Off by
/// default because wall-clock values are not part of the determinism
/// contract.
struct ExecutorConfig {
  std::size_t workers = 1;
  ExecutorMode mode = ExecutorMode::stepped;
  std::size_t inbox_capacity = 4096;
  bool profile = false;
};

/// Factories, not instances: every task of a component gets its own
/// spout/bolt object, which is what lets tasks run concurrently without
/// sharing mutable state (the per-task isolation the parallel executor
/// relies on — docs/DETERMINISM.md).
using SpoutFactory = std::function<std::unique_ptr<Spout>()>;
using BoltFactory = std::function<std::unique_ptr<Bolt>()>;

/// One incoming edge of a bolt: which component it consumes and how tuples
/// are distributed over this bolt's tasks.
struct Subscription {
  std::string source;
  Grouping grouping;
};

/// One node of the DAG: a named spout or bolt, its task count, the output
/// schema its tuples follow, and the edges it consumes.
struct ComponentSpec {
  std::string name;
  std::size_t parallelism = 1;
  Fields output_fields;
  SpoutFactory spout_factory;  // exactly one of spout/bolt factory is set
  BoltFactory bolt_factory;
  std::vector<Subscription> subscriptions;  // empty for spouts

  bool is_spout() const noexcept { return static_cast<bool>(spout_factory); }
};

/// A validated, executor-agnostic topology: both executors instantiate
/// their tasks from the same spec through one TaskGraph (task_graph.hpp).
struct TopologySpec {
  std::string name;
  std::vector<ComponentSpec> components;

  const ComponentSpec* find(const std::string& component) const noexcept;
};

/// Fluent builder mirroring Storm's TopologyBuilder.
class TopologyBuilder {
 public:
  explicit TopologyBuilder(std::string name);

  class BoltHandle {
   public:
    BoltHandle& shuffle_grouping(const std::string& source);
    BoltHandle& fields_grouping(const std::string& source, Fields fields);
    BoltHandle& global_grouping(const std::string& source);
    BoltHandle& all_grouping(const std::string& source);

   private:
    friend class TopologyBuilder;
    BoltHandle(TopologyBuilder& builder, std::size_t index)
        : builder_(builder), index_(index) {}
    TopologyBuilder& builder_;
    std::size_t index_;
  };

  void set_spout(const std::string& name, SpoutFactory factory, Fields output_fields,
                 std::size_t parallelism = 1);
  BoltHandle set_bolt(const std::string& name, BoltFactory factory,
                      Fields output_fields, std::size_t parallelism = 1);

  /// Validate wiring (unique names, known sources, grouping fields exist,
  /// acyclic) and return the spec. Throws std::invalid_argument on errors.
  TopologySpec build();

 private:
  TopologySpec spec_;
};

}  // namespace netalytics::stream
