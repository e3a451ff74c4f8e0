#include "stream/stepped.hpp"

namespace netalytics::stream {

SteppedTopology::SteppedTopology(TopologySpec spec, ExecutorConfig exec)
    : TopologyExecutor(std::move(spec), exec), slots_(graph_.task_count()) {}

SteppedTopology::~SteppedTopology() {
  {
    std::lock_guard lock(pool_mutex_);
    stop_workers_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void SteppedTopology::exec_task(std::size_t t, StageKind kind,
                                common::Timestamp now) {
  TaskGraph::Task& task = graph_.task(t);
  Slot& slot = slots_[t];
  TaskGraph::TaskProf* prof = graph_.prof(t);
  std::uint64_t t0 = 0;
  if (prof != nullptr) {
    t0 = common::wall_now_ns();
    const std::uint64_t dispatched =
        prof_stage_start_ns_.load(std::memory_order_relaxed);
    if (dispatched != 0 && t0 > dispatched) {
      prof->queue_wait_ns->inc(t0 - dispatched);
    }
  }
  OutboxCollector out(slot.outbox);
  switch (kind) {
    case StageKind::execute: {
      const std::size_t before = slot.processed;
      while (!slot.inbox.empty()) {
        Tuple tuple = std::move(slot.inbox.front());
        slot.inbox.pop_front();
        if (recorder_ != nullptr && tuple.trace != 0) {
          recorder_->stamp(tuple.trace, common::TraceStage::execute, now, now);
        }
        task.bolt->execute(std::move(tuple), out);
        ++slot.processed;
      }
      // One add per stage: nothing reads these counters mid-stage.
      const std::size_t n = slot.processed - before;
      if (common::Counter* executed = graph_.component(task.component).executed) {
        executed->inc(n);
      }
      if (prof != nullptr) prof->tuples->inc(n);
      break;
    }
    case StageKind::tick:
      task.bolt->tick(now, out);
      break;
    case StageKind::cleanup:
      task.bolt->cleanup(now, out);
      break;
  }
  if (prof != nullptr) prof->self_ns->inc(common::wall_now_ns() - t0);
}

std::size_t SteppedTopology::merge_stage(std::size_t component) {
  const TaskGraph::Component& c = graph_.component(component);
  std::size_t processed = 0;
  for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
    Slot& slot = slots_[t];
    processed += slot.processed;
    slot.processed = 0;
    for (auto& tuple : slot.outbox) {
      graph_.route<false>(component, std::move(tuple),
                          [this](std::size_t dst, Tuple&& routed) {
                            slots_[dst].inbox.push_back(std::move(routed));
                          });
    }
    slot.outbox.clear();
  }
  return processed;
}

void SteppedTopology::start_workers() {
  if (!pool_.empty()) return;
  pool_.reserve(exec_.workers - 1);
  for (std::size_t i = 0; i + 1 < exec_.workers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

void SteppedTopology::claim_loop(std::size_t component, StageKind kind,
                                 common::Timestamp now,
                                 std::uint64_t generation) {
  const TaskGraph::Component& c = graph_.component(component);
  for (;;) {
    std::size_t t;
    {
      std::lock_guard lock(pool_mutex_);
      // Claims and the generation check share the pool mutex, so a thread
      // that slept through a stage can never claim into the next one.
      if (generation_ != generation || next_task_ >= c.end_task()) return;
      t = next_task_++;
    }
    exec_task(t, kind, now);
    {
      std::lock_guard lock(pool_mutex_);
      if (--tasks_remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void SteppedTopology::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t component = 0;
    StageKind kind = StageKind::execute;
    common::Timestamp now = 0;
    std::uint64_t generation = 0;
    {
      std::unique_lock lock(pool_mutex_);
      pool_cv_.wait(lock, [&] { return stop_workers_ || generation_ != seen; });
      if (stop_workers_) return;
      generation = seen = generation_;
      component = stage_component_;
      kind = stage_kind_;
      now = stage_now_;
    }
    claim_loop(component, kind, now, generation);
  }
}

void SteppedTopology::run_bolt_stage(std::size_t component, StageKind kind,
                                     common::Timestamp now) {
  const TaskGraph::Component& c = graph_.component(component);
  if (graph_.profiling()) {
    prof_stage_start_ns_.store(common::wall_now_ns(), std::memory_order_relaxed);
    if (prof_stage_dispatches_ != nullptr) prof_stage_dispatches_->inc();
  }
  if (exec_.workers <= 1 || c.spec->parallelism <= 1) {
    for (std::size_t t = c.first_task; t < c.end_task(); ++t) exec_task(t, kind, now);
    return;
  }
  if (prof_parallel_stages_ != nullptr) prof_parallel_stages_->inc();
  start_workers();
  std::uint64_t generation;
  {
    std::lock_guard lock(pool_mutex_);
    stage_component_ = component;
    stage_kind_ = kind;
    stage_now_ = now;
    next_task_ = c.first_task;
    tasks_remaining_ = c.spec->parallelism;
    generation = ++generation_;
  }
  pool_cv_.notify_all();
  // The stepping thread is one of the `workers` execution threads.
  claim_loop(component, kind, now, generation);
  std::unique_lock lock(pool_mutex_);
  done_cv_.wait(lock, [this] { return tasks_remaining_ == 0; });
}

std::size_t SteppedTopology::drain(common::Timestamp now) {
  std::size_t processed = 0;
  for (const std::size_t n : graph_.order()) {
    if (graph_.component(n).spec->is_spout()) continue;
    run_bolt_stage(n, StageKind::execute, now);
    processed += merge_stage(n);
  }
  executed_ += processed;
  return processed;
}

void SteppedTopology::bind_metrics(common::MetricsRegistry& registry,
                                   const std::string& prefix) {
  graph_.bind_metrics(registry, prefix);
  if (graph_.profiling()) {
    prof_stage_dispatches_ =
        &registry.counter(prefix + ".profiler.pool.stage_dispatches");
    prof_parallel_stages_ =
        &registry.counter(prefix + ".profiler.pool.parallel_stages");
  }
}

std::size_t SteppedTopology::step(common::Timestamp now,
                                  std::size_t spout_budget_per_task) {
  // Spouts always run sequentially in task order: they pull from shared
  // sources (the mq brokers), where the poll order *is* the data
  // assignment — racing them would trade determinism for nothing, since
  // spout work is a budgeted trickle compared to the bolt stages.
  for (const std::size_t n : graph_.order()) {
    const TaskGraph::Component& c = graph_.component(n);
    if (!c.spec->is_spout()) continue;
    for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
      TaskGraph::TaskProf* prof = graph_.prof(t);
      const std::uint64_t t0 = prof != nullptr ? common::wall_now_ns() : 0;
      OutboxCollector collector(slots_[t].outbox);
      Spout& spout = *graph_.task(t).spout;
      for (std::size_t i = 0; i < spout_budget_per_task; ++i) {
        if (!spout.next_tuple(collector, now)) break;
      }
      if (prof != nullptr) prof->self_ns->inc(common::wall_now_ns() - t0);
    }
    merge_stage(n);
  }
  return drain(now);
}

void SteppedTopology::tick(common::Timestamp now) {
  for (const std::size_t n : graph_.order()) {
    if (graph_.component(n).spec->is_spout()) continue;
    run_bolt_stage(n, StageKind::tick, now);
    merge_stage(n);
    // Drain immediately so downstream bolts see window emissions in the
    // same tick (a ranking bolt's tick must observe fresh counts).
    drain(now);
  }
}

void SteppedTopology::close(common::Timestamp now) {
  for (const std::size_t n : graph_.order()) {
    const TaskGraph::Component& c = graph_.component(n);
    if (c.spec->is_spout()) {
      for (std::size_t t = c.first_task; t < c.end_task(); ++t) {
        OutboxCollector collector(slots_[t].outbox);
        graph_.task(t).spout->close(collector);
      }
    } else {
      run_bolt_stage(n, StageKind::cleanup, now);
    }
    merge_stage(n);
    drain(now);
  }
}

}  // namespace netalytics::stream
