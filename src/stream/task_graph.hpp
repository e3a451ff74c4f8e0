// The task graph both topology executors schedule over. A TopologySpec
// names components; the graph instantiates them: one opened spout or
// prepared bolt per task, every subscription resolved into an out-edge
// with grouping field indices, the topological order, the grouping ->
// destination-task choice, and the per-component executed / per-task
// stage-profiler counters. SteppedTopology and FreeRunningTopology add
// only their scheduling policy (inboxes, claims, pools) on top, so both
// modes agree on task order and grouping by construction
// (docs/DETERMINISM.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "stream/topology.hpp"

namespace netalytics::stream {

/// Kahn order of `spec`'s components over subscription edges, with a FIFO
/// frontier seeded in component-index order — the stage order the stepped
/// executor's renders depend on. Throws std::invalid_argument on an
/// unknown source or a cycle.
std::vector<std::size_t> topological_order(const TopologySpec& spec);

class TaskGraph {
 public:
  /// One task: exactly one of spout/bolt is set.
  struct Task {
    std::size_t component = 0;
    std::unique_ptr<Spout> spout;
    std::unique_ptr<Bolt> bolt;
  };

  struct Edge {
    std::size_t dst = 0;  // component index
    GroupingType type = GroupingType::shuffle;
    std::vector<std::size_t> field_indices;
    std::atomic<std::size_t> rr_cursor{0};  // shuffle round-robin
  };

  /// Tasks of a component are the contiguous range
  /// [first_task, first_task + spec->parallelism) of the graph's tasks.
  struct Component {
    const ComponentSpec* spec = nullptr;
    std::size_t first_task = 0;
    std::vector<Edge> out_edges;
    common::Counter* executed = nullptr;  // null until bind_metrics

    std::size_t end_task() const noexcept { return first_task + spec->parallelism; }
  };

  /// Stage-profiler counters of one task. Wall-clock values: never part
  /// of the determinism contract (docs/DETERMINISM.md).
  struct TaskProf {
    common::Counter* tuples = nullptr;
    common::Counter* self_ns = nullptr;
    common::Counter* queue_wait_ns = nullptr;
  };

  /// Instantiates, opens and prepares every task. `profile` arms the stage
  /// profiler (counters appear at bind_metrics).
  TaskGraph(TopologySpec spec, bool profile);

  const TopologySpec& spec() const noexcept { return spec_; }
  const std::vector<std::size_t>& order() const noexcept { return order_; }
  Component& component(std::size_t c) noexcept { return components_[c]; }
  std::size_t task_count() const noexcept { return tasks_.size(); }
  Task& task(std::size_t t) noexcept { return tasks_[t]; }
  bool profiling() const noexcept { return profile_; }
  /// Profiler counters of task `t`; null unless profiling and bound.
  TaskProf* prof(std::size_t t) noexcept {
    return prof_.empty() ? nullptr : &prof_[t];
  }

  /// Publish "<prefix>.<component>.executed" and, when profiling,
  /// "<prefix>.profiler.<component>.t<k>.{tuples,self_ns,queue_wait_ns}".
  void bind_metrics(common::MetricsRegistry& registry, const std::string& prefix);

  /// Route `tuple`, emitted by component `src`, over each out-edge in
  /// order: `deliver(task, Tuple&&)` receives the destination task its
  /// grouping picks (every task for `all`). The last edge gets the tuple
  /// itself, earlier ones a copy. `kShared` makes the shuffle cursor an
  /// atomic increment for executors that route from several threads; the
  /// task a shuffled tuple lands on is then schedule-dependent.
  template <bool kShared, class Deliver>
  void route(std::size_t src, Tuple tuple, Deliver&& deliver) {
    std::vector<Edge>& edges = components_[src].out_edges;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      Edge& edge = edges[e];
      const Component& dst = components_[edge.dst];
      const std::size_t tasks = dst.spec->parallelism;
      std::size_t k = 0;
      switch (edge.type) {
        case GroupingType::shuffle:
          if constexpr (kShared) {
            k = edge.rr_cursor.fetch_add(1, std::memory_order_relaxed) % tasks;
          } else {
            k = edge.rr_cursor.load(std::memory_order_relaxed);
            edge.rr_cursor.store(k + 1, std::memory_order_relaxed);
            k %= tasks;
          }
          break;
        case GroupingType::fields:
          k = hash_fields(tuple, edge.field_indices) % tasks;
          break;
        case GroupingType::global:
          break;
        case GroupingType::all:
          for (std::size_t i = 0; i < tasks; ++i) {
            deliver(dst.first_task + i, Tuple(tuple));
          }
          continue;
      }
      deliver(dst.first_task + k,
              e + 1 == edges.size() ? std::move(tuple) : Tuple(tuple));
    }
  }

 private:
  TopologySpec spec_;
  bool profile_ = false;
  std::vector<Component> components_;
  std::vector<Task> tasks_;
  std::vector<std::size_t> order_;
  std::vector<TaskProf> prof_;  // one per task once bound; empty otherwise
};

}  // namespace netalytics::stream
