#include "stream/task_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace netalytics::stream {

namespace {
std::size_t index_of(const TopologySpec& spec, const std::string& name) {
  const ComponentSpec* c = spec.find(name);
  if (c == nullptr) {
    throw std::invalid_argument("topology: unknown component '" + name + "'");
  }
  return static_cast<std::size_t>(c - spec.components.data());
}
}  // namespace

std::vector<std::size_t> topological_order(const TopologySpec& spec) {
  const std::size_t n = spec.components.size();
  // downstream[src] lists subscribers by subscriber index, then by
  // subscription order — the out-edge order TaskGraph wires.
  std::vector<std::vector<std::size_t>> downstream(n);
  std::vector<std::size_t> in_degree(n, 0);
  for (std::size_t dst = 0; dst < n; ++dst) {
    for (const auto& sub : spec.components[dst].subscriptions) {
      downstream[index_of(spec, sub.source)].push_back(dst);
      ++in_degree[dst];
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) order.push_back(i);
  }
  // `order` doubles as the FIFO frontier: [next, size) is still queued.
  for (std::size_t next = 0; next < order.size(); ++next) {
    for (const std::size_t d : downstream[order[next]]) {
      if (--in_degree[d] == 0) order.push_back(d);
    }
  }
  if (order.size() != n) {
    throw std::invalid_argument("topology: subscription graph has a cycle");
  }
  return order;
}

TaskGraph::TaskGraph(TopologySpec spec, bool profile)
    : spec_(std::move(spec)), profile_(profile) {
  order_ = topological_order(spec_);
  const std::size_t n = spec_.components.size();
  std::vector<std::size_t> out_degree(n, 0);
  for (const auto& c : spec_.components) {
    for (const auto& sub : c.subscriptions) ++out_degree[index_of(spec_, sub.source)];
  }

  components_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ComponentSpec& c = spec_.components[i];
    components_.push_back(
        Component{&c, tasks_.size(), std::vector<Edge>(out_degree[i]), nullptr});
    for (std::size_t k = 0; k < c.parallelism; ++k) {
      Task& task = tasks_.emplace_back();
      task.component = i;
      if (c.is_spout()) {
        task.spout = c.spout_factory();
        task.spout->open();
      } else {
        task.bolt = c.bolt_factory();
        task.bolt->prepare();
      }
    }
  }

  // Wire edges source -> subscriber with resolved grouping field indices.
  std::vector<std::size_t> wired(n, 0);
  for (std::size_t dst = 0; dst < n; ++dst) {
    for (const auto& sub : spec_.components[dst].subscriptions) {
      const std::size_t src = index_of(spec_, sub.source);
      Edge& edge = components_[src].out_edges[wired[src]++];
      edge.dst = dst;
      edge.type = sub.grouping.type;
      if (edge.type != GroupingType::fields) continue;
      const Fields& schema = spec_.components[src].output_fields;
      for (const auto& f : sub.grouping.fields) {
        const auto it = std::find(schema.begin(), schema.end(), f);
        edge.field_indices.push_back(static_cast<std::size_t>(it - schema.begin()));
      }
    }
  }
}

void TaskGraph::bind_metrics(common::MetricsRegistry& registry,
                             const std::string& prefix) {
  for (auto& c : components_) {
    c.executed = &registry.counter(prefix + "." + c.spec->name + ".executed");
  }
  if (!profile_) return;
  prof_.assign(tasks_.size(), TaskProf{});
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const Component& c = components_[tasks_[t].component];
    const std::string base = prefix + ".profiler." + c.spec->name + ".t" +
                             std::to_string(t - c.first_task) + ".";
    prof_[t].tuples = &registry.counter(base + "tuples");
    prof_[t].self_ns = &registry.counter(base + "self_ns");
    prof_[t].queue_wait_ns = &registry.counter(base + "queue_wait_ns");
  }
}

}  // namespace netalytics::stream
