// Deterministic topology executor with an optional worker pool. Components
// run in topological order each step, so a tuple emitted by a spout flows
// through every downstream bolt within the same step. With
// ExecutorConfig::workers > 1 each bolt stage fans its tasks out to real
// threads behind a stage barrier while keeping the single-threaded
// executor's exact virtual-time semantics — same tuple counts, same
// grouping destinations, same window/tick ordering (the contract is
// documented in docs/DETERMINISM.md and proven differentially in
// tests/core/parallel_executor_differential_test.cpp). Used by the
// simulated use-case pipelines, the figure benches, and the tests;
// FreeRunningTopology (free_running.hpp) schedules the same TaskGraph
// without stage barriers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "stream/executor.hpp"

namespace netalytics::stream {

class SteppedTopology final : public TopologyExecutor {
 public:
  /// Instantiates the task graph. `exec.workers` > 1 enables the
  /// stage-parallel execution mode; pool threads are started lazily on
  /// the first parallel stage.
  explicit SteppedTopology(TopologySpec spec, ExecutorConfig exec = {});
  ~SteppedTopology() override;

  /// One scheduling round: every spout task may emit up to
  /// `spout_budget_per_task` tuples, then all inboxes drain through the
  /// bolts in topological order. Returns the number of tuples executed.
  std::size_t step(common::Timestamp now,
                   std::size_t spout_budget_per_task = 32) override;

  /// Deliver a tick to every bolt (rolling windows advance, rankings emit)
  /// and drain the results. Stage-ordered: a component's tick runs only
  /// after every upstream emission of this round has been drained, and its
  /// own emissions are drained before the next component ticks.
  void tick(common::Timestamp now) override;

  /// cleanup() every bolt and drain final emissions.
  void close(common::Timestamp now) override;

  std::uint64_t tuples_executed() const noexcept override { return executed_; }
  ExecutorMode mode() const noexcept override { return ExecutorMode::stepped; }

  /// Also creates "<prefix>.profiler.pool.{stage_dispatches,parallel_stages}"
  /// with ExecutorConfig::profile.
  void bind_metrics(common::MetricsRegistry& registry,
                    const std::string& prefix) override;

 private:
  /// Scheduling state of one graph task.
  struct Slot {
    std::deque<Tuple> inbox;
    // Emissions buffered during a stage, routed at the barrier in task
    // order — the mechanism that makes parallel execution deterministic.
    std::vector<Tuple> outbox;
    std::size_t processed = 0;  // tuples executed this stage
  };

  /// Collector handed to components: appends to the executing task's
  /// outbox. Routing happens later, single-threaded, at the stage barrier.
  class OutboxCollector final : public Collector {
   public:
    explicit OutboxCollector(std::vector<Tuple>& out) : out_(out) {}
    void emit(Tuple tuple) override { out_.push_back(std::move(tuple)); }

   private:
    std::vector<Tuple>& out_;
  };

  enum class StageKind { execute, tick, cleanup };

  std::size_t drain(common::Timestamp now);
  /// Run one bolt stage (all tasks of `component`), inline or on the pool.
  void run_bolt_stage(std::size_t component, StageKind kind, common::Timestamp now);
  /// Execute graph task `t` for the current stage (worker or stepping
  /// thread).
  void exec_task(std::size_t t, StageKind kind, common::Timestamp now);
  /// Route every task's outbox in task-index order (the stage barrier's
  /// deterministic merge). Returns the tuples processed this stage.
  std::size_t merge_stage(std::size_t component);
  void claim_loop(std::size_t component, StageKind kind, common::Timestamp now,
                  std::uint64_t generation);
  void start_workers();
  void worker_loop();

  std::vector<Slot> slots_;  // indexed like the graph's tasks
  std::uint64_t executed_ = 0;

  // Stage profiler (graph_.profiling()). prof_stage_start_ns_ is the
  // wall-clock instant the current stage was dispatched; each task's
  // queue-wait is its start minus that instant.
  common::Counter* prof_stage_dispatches_ = nullptr;
  common::Counter* prof_parallel_stages_ = nullptr;
  std::atomic<std::uint64_t> prof_stage_start_ns_{0};

  // Stage-synchronous worker pool (empty until the first parallel stage).
  // All coordination state is guarded by pool_mutex_; task claims go
  // through next_task_ under the same mutex, so a worker can never act on
  // a stale stage.
  std::vector<std::thread> pool_;
  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // stepping thread waits for completion
  std::uint64_t generation_ = 0;
  std::size_t stage_component_ = 0;
  StageKind stage_kind_ = StageKind::execute;
  common::Timestamp stage_now_ = 0;
  std::size_t next_task_ = 0;
  std::size_t tasks_remaining_ = 0;
  bool stop_workers_ = false;
};

}  // namespace netalytics::stream
