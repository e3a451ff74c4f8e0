// Executor-agnostic interface over a TopologySpec. Two implementations
// share it and the TaskGraph it owns (task_graph.hpp), each adding only a
// scheduling policy: SteppedTopology (stage barriers, bit-identical
// determinism — stepped.hpp) and FreeRunningTopology (work-stealing
// run-to-completion, relaxed inter-key ordering — free_running.hpp).
// Both are driven by the same virtual-time loop: step()/run_until_idle()
// pump tuples, tick() fires windows and rankings, close() flushes. The
// engine picks one via make_executor(ExecutorConfig::mode); everything
// downstream of the factory call is mode-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "stream/task_graph.hpp"
#include "stream/topology.hpp"

namespace netalytics::stream {

class TopologyExecutor {
 public:
  virtual ~TopologyExecutor() = default;

  TopologyExecutor(const TopologyExecutor&) = delete;
  TopologyExecutor& operator=(const TopologyExecutor&) = delete;

  /// One scheduling round: every spout task may emit up to
  /// `spout_budget_per_task` tuples, then emitted tuples are executed
  /// through the bolts. Returns the number of tuples executed. Both
  /// executors return quiescent — the stepped one drains in topological
  /// stage order, the free-running one lets its pool race ahead and then
  /// helps drain to in_flight == 0 — so every step boundary is a valid
  /// reconcile point.
  virtual std::size_t step(common::Timestamp now,
                           std::size_t spout_budget_per_task = 32) = 0;

  /// Step until a round executes nothing, or until `max_rounds` is hit.
  /// Returns tuples executed. On return the topology is quiescent in both
  /// modes: no tuple is buffered or in flight, which is what makes
  /// engine.reconcile() exact at pump boundaries regardless of mode.
  std::size_t run_until_idle(common::Timestamp now, std::size_t max_rounds = 4096);

  /// Deliver a tick to every bolt (rolling windows advance, rankings
  /// emit). Both executors order ticks per component over a quiescent
  /// topology, so windows fire exactly once with identical contents.
  virtual void tick(common::Timestamp now) = 0;

  /// cleanup() every bolt and drain final emissions.
  virtual void close(common::Timestamp now) = 0;

  virtual std::uint64_t tuples_executed() const noexcept = 0;
  virtual ExecutorMode mode() const noexcept = 0;
  const TopologySpec& spec() const noexcept { return graph_.spec(); }
  /// Total execution threads the executor may use (1 = inline).
  std::size_t workers() const noexcept { return exec_.workers; }

  /// Publish per-component executed-tuple counters into `registry` as
  /// "<prefix>.<component>.executed". With ExecutorConfig::profile also
  /// creates the stage-profiler counters
  /// ("<prefix>.profiler.<component>.t<k>.{tuples,self_ns,queue_wait_ns}"
  /// plus the executor's "<prefix>.profiler.pool.*"). Bind before stepping.
  virtual void bind_metrics(common::MetricsRegistry& registry,
                            const std::string& prefix) = 0;

  /// Stamp a TraceStage::execute span for every executed tuple whose
  /// `Tuple::trace` is nonzero. Bind before stepping; pass nullptr to
  /// disable (the default).
  void bind_trace(common::TraceRecorder* recorder) noexcept { recorder_ = recorder; }

 protected:
  /// Normalizes `exec.workers` (0 -> 1) and instantiates the task graph.
  TopologyExecutor(TopologySpec spec, ExecutorConfig exec);

  ExecutorConfig exec_;
  TaskGraph graph_;
  common::TraceRecorder* recorder_ = nullptr;
};

/// Instantiate the executor `exec.mode` selects over `spec`.
std::unique_ptr<TopologyExecutor> make_executor(TopologySpec spec,
                                                ExecutorConfig exec = {});

}  // namespace netalytics::stream
