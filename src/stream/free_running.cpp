#include "stream/free_running.hpp"

#include <chrono>

namespace netalytics::stream {

namespace {
// Run-to-completion chunk: how many tuples a claimer executes before
// re-checking the claim (keeps tick()'s claim spin bounded).
constexpr std::size_t kChunk = 128;
// Help-on-full drains less so the blocked pusher gets back to its own
// tuple quickly once space exists.
constexpr std::size_t kHelpChunk = 32;
}  // namespace

FreeRunningTopology::FreeRunningTopology(TopologySpec spec,
                                         ExecutorConfig exec)
    : TopologyExecutor(std::move(spec), exec) {
  if (exec_.inbox_capacity == 0) exec_.inbox_capacity = 1;
  for (std::size_t t = 0; t < graph_.task_count(); ++t) {
    slots_.emplace_back(exec_.inbox_capacity);
  }
  pool_.reserve(exec_.workers - 1);
  for (std::size_t i = 0; i + 1 < exec_.workers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

FreeRunningTopology::~FreeRunningTopology() {
  {
    std::lock_guard lock(park_mutex_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  park_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void FreeRunningTopology::bind_metrics(common::MetricsRegistry& registry,
                                       const std::string& prefix) {
  graph_.bind_metrics(registry, prefix);
  if (graph_.profiling()) {
    prof_claims_.store(&registry.counter(prefix + ".profiler.pool.claims"),
                       std::memory_order_release);
    prof_helps_.store(&registry.counter(prefix + ".profiler.pool.helps"),
                      std::memory_order_release);
    prof_parks_.store(&registry.counter(prefix + ".profiler.pool.parks"),
                      std::memory_order_release);
  }
}

void FreeRunningTopology::route(std::size_t src_component, Tuple tuple) {
  // The shared shuffle cursor makes shuffle destinations race-free but no
  // longer reproducible — part of what the relaxed mode gives up
  // (docs/DETERMINISM.md).
  graph_.route<true>(src_component, std::move(tuple),
                     [this](std::size_t t, Tuple&& routed) {
                       enqueue(t, std::move(routed));
                     });
}

void FreeRunningTopology::claim_blocking(std::size_t t) {
  while (!try_claim(slots_[t])) std::this_thread::yield();
}

void FreeRunningTopology::enqueue(std::size_t t, Tuple tuple) {
  Slot& slot = slots_[t];
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  while (!slot.inbox.try_push_keep(tuple)) {
    // Full inbox: help drain the destination instead of spinning — the
    // backpressure mechanism that keeps the bounded inboxes deadlock-free
    // (progress argument in free_running.hpp).
    if (try_claim(slot)) {
      if (graph_.profiling()) {
        if (auto* c = prof_helps_.load(std::memory_order_acquire)) c->inc();
      }
      execute_chunk(t, kHelpChunk);
      release_claim(slot);
    } else {
      std::this_thread::yield();
    }
  }
  if (graph_.profiling() &&
      slot.pending_since_ns.load(std::memory_order_relaxed) == 0) {
    slot.pending_since_ns.store(common::wall_now_ns(), std::memory_order_relaxed);
  }
  wake_workers();
}

std::size_t FreeRunningTopology::execute_chunk(std::size_t t, std::size_t limit) {
  TaskGraph::Task& task = graph_.task(t);
  Slot& slot = slots_[t];
  common::Counter* executed = graph_.component(task.component).executed;
  TaskGraph::TaskProf* prof = graph_.prof(t);
  std::uint64_t t0 = 0;
  if (prof != nullptr) {
    t0 = common::wall_now_ns();
    const std::uint64_t pending =
        slot.pending_since_ns.exchange(0, std::memory_order_relaxed);
    if (pending != 0 && t0 > pending) {
      prof->queue_wait_ns->inc(t0 - pending);
    }
  }
  RouteCollector out(*this, task.component);
  std::size_t done = 0;
  while (done < limit) {
    auto tuple = slot.inbox.try_pop();
    if (!tuple) break;
    if (recorder_ != nullptr && tuple->trace != 0) {
      const common::Timestamp now = now_.load(std::memory_order_relaxed);
      recorder_->stamp(tuple->trace, common::TraceStage::execute, now, now);
    }
    task.bolt->execute(std::move(*tuple), out);
    if (executed != nullptr) executed->inc();
    executed_total_.fetch_add(1, std::memory_order_relaxed);
    // Decrement only after execute() returned: the children this tuple
    // emitted are already counted, so in_flight_ never dips to zero while
    // work is still reachable.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    ++done;
  }
  if (prof != nullptr) {
    prof->self_ns->inc(common::wall_now_ns() - t0);
    if (done != 0) prof->tuples->inc(done);
  }
  return done;
}

std::size_t FreeRunningTopology::run_pass() {
  std::size_t executed = 0;
  for (const std::size_t n : graph_.order()) {
    const TaskGraph::Component& c = graph_.component(n);
    if (c.spec->is_spout()) continue;
    for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
      Slot& slot = slots_[t];
      if (slot.inbox.size() == 0) continue;
      if (!try_claim(slot)) continue;
      if (graph_.profiling()) {
        if (auto* p = prof_claims_.load(std::memory_order_acquire)) p->inc();
      }
      // Run to completion: drain until the inbox stays empty.
      std::size_t chunk;
      do {
        chunk = execute_chunk(t, kChunk);
        executed += chunk;
      } while (chunk == kChunk);
      release_claim(slot);
    }
  }
  return executed;
}

void FreeRunningTopology::quiesce() {
  // The driving thread is one of the workers: it helps drain, so
  // quiescence never depends on pool wakeups. A nonzero in_flight_ with
  // empty inboxes means some worker is mid-execute — yield until its
  // decrement lands.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    if (run_pass() == 0) std::this_thread::yield();
  }
}

void FreeRunningTopology::wake_workers() {
  if (pool_.empty()) return;
  wake_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (idle_workers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
}

void FreeRunningTopology::worker_loop() {
  for (;;) {
    // Snapshot the eventcount BEFORE scanning: any push that the scan
    // misses bumps wake_seq_ afterwards, so the park predicate below sees
    // it and refuses to sleep.
    const std::uint64_t seq = wake_seq_.load(std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (run_pass() > 0) continue;
    std::unique_lock lock(park_mutex_);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (graph_.profiling()) {
      if (auto* c = prof_parks_.load(std::memory_order_acquire)) c->inc();
    }
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return stop_.load(std::memory_order_relaxed) ||
             wake_seq_.load(std::memory_order_seq_cst) != seq;
    });
    idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

std::size_t FreeRunningTopology::step(common::Timestamp now,
                                      std::size_t spout_budget_per_task) {
  now_.store(now, std::memory_order_relaxed);
  const std::uint64_t before =
      executed_total_.load(std::memory_order_relaxed);
  // Spouts run sequentially on the driving thread, exactly like the
  // stepped executor: the broker poll order *is* the data assignment, and
  // group membership joins must happen in task order. Workers execute the
  // routed tuples concurrently while the spouts are still emitting.
  for (const std::size_t n : graph_.order()) {
    const TaskGraph::Component& c = graph_.component(n);
    if (!c.spec->is_spout()) continue;
    RouteCollector out(*this, n);
    for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
      TaskGraph::TaskProf* prof = graph_.prof(t);
      const std::uint64_t t0 = prof != nullptr ? common::wall_now_ns() : 0;
      Spout& spout = *graph_.task(t).spout;
      for (std::size_t i = 0; i < spout_budget_per_task; ++i) {
        if (!spout.next_tuple(out, now)) break;
      }
      if (prof != nullptr) prof->self_ns->inc(common::wall_now_ns() - t0);
    }
  }
  // Return quiescent so every step boundary is a reconcile point —
  // nothing is ever silently in flight between pumps.
  quiesce();
  return executed_total_.load(std::memory_order_relaxed) - before;
}

void FreeRunningTopology::tick(common::Timestamp now) {
  now_.store(now, std::memory_order_relaxed);
  quiesce();
  for (const std::size_t n : graph_.order()) {
    const TaskGraph::Component& c = graph_.component(n);
    if (c.spec->is_spout()) continue;
    RouteCollector out(*this, n);
    for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
      // Claim so a straggling worker can't execute concurrently with the
      // tick; after quiesce() the inboxes are empty, so any holder is in
      // its final (empty) chunk check and releases promptly.
      claim_blocking(t);
      graph_.task(t).bolt->tick(now, out);
      release_claim(slots_[t]);
    }
    // Drain before the next component ticks: a ranking bolt's tick must
    // observe this tick's fresh window counts, same as stepped tick().
    quiesce();
  }
}

void FreeRunningTopology::close(common::Timestamp now) {
  now_.store(now, std::memory_order_relaxed);
  quiesce();
  for (const std::size_t n : graph_.order()) {
    const TaskGraph::Component& c = graph_.component(n);
    RouteCollector out(*this, n);
    for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
      TaskGraph::Task& task = graph_.task(t);
      if (task.spout != nullptr) {
        task.spout->close(out);
        continue;
      }
      claim_blocking(t);
      task.bolt->cleanup(now, out);
      release_claim(slots_[t]);
    }
    quiesce();
  }
}

}  // namespace netalytics::stream
