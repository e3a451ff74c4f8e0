#include "stream/executor.hpp"

#include "stream/free_running.hpp"
#include "stream/stepped.hpp"

namespace netalytics::stream {

const char* to_string(ExecutorMode mode) noexcept {
  switch (mode) {
    case ExecutorMode::stepped:
      return "stepped";
    case ExecutorMode::free_running:
      return "free_running";
  }
  return "unknown";
}

TopologyExecutor::TopologyExecutor(TopologySpec spec, ExecutorConfig exec)
    : exec_(exec), graph_(std::move(spec), exec.profile) {
  if (exec_.workers == 0) exec_.workers = 1;
}

std::size_t TopologyExecutor::run_until_idle(common::Timestamp now,
                                             std::size_t max_rounds) {
  std::size_t total = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::size_t n = step(now);
    total += n;
    if (n == 0) break;
  }
  return total;
}

std::unique_ptr<TopologyExecutor> make_executor(TopologySpec spec,
                                                ExecutorConfig exec) {
  if (exec.mode == ExecutorMode::free_running) {
    return std::make_unique<FreeRunningTopology>(std::move(spec), exec);
  }
  return std::make_unique<SteppedTopology>(std::move(spec), exec);
}

}  // namespace netalytics::stream
