// Free-running topology executor: work-stealing, run-to-completion. Where
// SteppedTopology buys bit-identical determinism with stage barriers, this
// executor routes every emission immediately into bounded per-task MPMC
// inboxes and lets a worker pool drain whichever task has work — the
// Storm-style datapath the paper assumes (§2.2), with the stepped executor
// retained as the correctness oracle.
//
// What survives the relaxation (docs/DETERMINISM.md "relaxed mode",
// proven differentially in tests/core/free_running_differential_test.cpp):
//   - the multiset of delivered results (inter-key order is relaxed, but
//     every fields/global-grouped bolt still sees its whole key stream),
//   - per-key order: one task's emissions enter a downstream inbox in
//     emission order, because a task has at most one claimer at a time and
//     emissions are routed while the claim is held,
//   - tick/close semantics: both are quiescence points (in_flight_ == 0),
//     so windows and rankings fire exactly once over the same contents the
//     stepped executor would show them,
//   - metrics/trace/DropLedger accounting, and engine.reconcile() at pump
//     boundaries — step() returns quiescent, so nothing is silently in
//     flight.
//
// Deadlock freedom: a thread whose push finds a full inbox helps drain the
// destination task (if it can claim it) and retries. A claim holder only
// blocks pushing further downstream, and sinks never emit, so every chain
// of full inboxes bottoms out at a task whose claimer is making progress —
// induction on the (acyclic) topology depth.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "stream/executor.hpp"

namespace netalytics::stream {

class FreeRunningTopology final : public TopologyExecutor {
 public:
  /// Instantiates the task graph and starts `exec.workers - 1` pool
  /// threads (the driving thread is the remaining worker: it helps drain
  /// during step/quiesce).
  explicit FreeRunningTopology(TopologySpec spec, ExecutorConfig exec = {});
  ~FreeRunningTopology() override;

  /// Emit up to `spout_budget_per_task` tuples per spout task (spouts run
  /// sequentially on the driving thread: broker poll order is the data
  /// assignment), then drain to quiescence — pool workers execute
  /// concurrently with the spout emission and the drain. Returns tuples
  /// executed during the call.
  std::size_t step(common::Timestamp now,
                   std::size_t spout_budget_per_task = 32) override;

  /// Quiesce, then tick each component in topological order, quiescing
  /// again after every component so downstream windows observe fresh
  /// upstream emissions — the same once-per-tick firing the stepped
  /// executor guarantees.
  void tick(common::Timestamp now) override;

  /// Quiesce, then close spouts / cleanup bolts in topological order with
  /// a quiescence point after every component.
  void close(common::Timestamp now) override;

  std::uint64_t tuples_executed() const noexcept override {
    return executed_total_.load(std::memory_order_relaxed);
  }
  ExecutorMode mode() const noexcept override {
    return ExecutorMode::free_running;
  }

  /// Also creates "<prefix>.profiler.pool.{claims,helps,parks}" with
  /// ExecutorConfig::profile.
  void bind_metrics(common::MetricsRegistry& registry,
                    const std::string& prefix) override;

 private:
  /// Scheduling state of one graph task: its bounded inbox and claim
  /// flag. `claimed` is the single-claimer gate — exchange(true, acquire)
  /// to claim, store(false, release) to hand it back, so claim hand-offs
  /// publish the bolt's state to the next claimer.
  struct Slot {
    explicit Slot(std::size_t inbox_capacity) : inbox(inbox_capacity) {}
    common::MpmcQueue<Tuple> inbox;
    std::atomic<bool> claimed{false};
    // Stage profiler: wall-clock instant the inbox last went empty ->
    // nonempty; the next chunk's start minus this is the queue-wait.
    std::atomic<std::uint64_t> pending_since_ns{0};
  };

  /// Routes immediately from whichever thread is executing — the
  /// free-running replacement for the stepped executor's OutboxCollector.
  class RouteCollector final : public Collector {
   public:
    RouteCollector(FreeRunningTopology& topo, std::size_t src)
        : topo_(topo), src_(src) {}
    void emit(Tuple tuple) override { topo_.route(src_, std::move(tuple)); }

   private:
    FreeRunningTopology& topo_;
    std::size_t src_;
  };

  static bool try_claim(Slot& slot) noexcept {
    return !slot.claimed.exchange(true, std::memory_order_acquire);
  }
  static void release_claim(Slot& slot) noexcept {
    slot.claimed.store(false, std::memory_order_release);
  }
  /// Claim graph task `t`, spinning while a straggling worker holds it.
  void claim_blocking(std::size_t t);

  void route(std::size_t src_component, Tuple tuple);
  void enqueue(std::size_t t, Tuple tuple);
  /// Execute up to `limit` inbox tuples of claimed graph task `t`. Returns
  /// the number executed.
  std::size_t execute_chunk(std::size_t t, std::size_t limit);
  /// One work-finding pass over every bolt task (claim, run to completion,
  /// release). Returns the number of tuples executed.
  std::size_t run_pass();
  /// Drive (and help) until in_flight_ hits zero.
  void quiesce();
  void wake_workers();
  void worker_loop();

  // std::deque because Slot holds non-movable members (queue, atomics) —
  // deque never relocates elements. Indexed like the graph's tasks.
  std::deque<Slot> slots_;

  /// Tuples enqueued but not yet executed. Incremented before the inbox
  /// push; decremented only after the bolt's execute() returns, so a
  /// parent tuple stays counted until its children are — zero therefore
  /// means the whole topology is quiescent, not just that inboxes look
  /// empty.
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> executed_total_{0};
  std::atomic<common::Timestamp> now_{0};  // worker-side trace stamps

  // Worker parking: an eventcount. Workers snapshot wake_seq_ before
  // scanning for work and park only if the sequence is unchanged when they
  // get the mutex; every enqueue bumps the sequence, so a push that lands
  // after a failed scan flips the predicate before the scanner can sleep.
  // The bounded wait_for is a belt-and-braces liveness net, and the
  // driving thread never parks (quiesce() spins/helps), so forward
  // progress never depends on a wakeup.
  std::vector<std::thread> pool_;
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> wake_seq_{0};
  std::atomic<std::size_t> idle_workers_{0};
  std::atomic<bool> stop_{false};

  // Stage profiler (graph_.profiling()). Pool counters are atomic
  // pointers because workers run (and may park) from construction, before
  // bind_metrics installs the counters.
  std::atomic<common::Counter*> prof_claims_{nullptr};
  std::atomic<common::Counter*> prof_helps_{nullptr};
  std::atomic<common::Counter*> prof_parks_{nullptr};
};

}  // namespace netalytics::stream
