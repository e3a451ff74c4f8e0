#include "stream/topology.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "stream/task_graph.hpp"

namespace netalytics::stream {

const ComponentSpec* TopologySpec::find(const std::string& component) const noexcept {
  for (const auto& c : components) {
    if (c.name == component) return &c;
  }
  return nullptr;
}

TopologyBuilder::TopologyBuilder(std::string name) { spec_.name = std::move(name); }

void TopologyBuilder::set_spout(const std::string& name, SpoutFactory factory,
                                Fields output_fields, std::size_t parallelism) {
  ComponentSpec c;
  c.name = name;
  c.parallelism = parallelism == 0 ? 1 : parallelism;
  c.output_fields = std::move(output_fields);
  c.spout_factory = std::move(factory);
  spec_.components.push_back(std::move(c));
}

TopologyBuilder::BoltHandle TopologyBuilder::set_bolt(const std::string& name,
                                                      BoltFactory factory,
                                                      Fields output_fields,
                                                      std::size_t parallelism) {
  ComponentSpec c;
  c.name = name;
  c.parallelism = parallelism == 0 ? 1 : parallelism;
  c.output_fields = std::move(output_fields);
  c.bolt_factory = std::move(factory);
  spec_.components.push_back(std::move(c));
  return BoltHandle(*this, spec_.components.size() - 1);
}

TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::shuffle_grouping(
    const std::string& source) {
  builder_.spec_.components[index_].subscriptions.push_back(
      {source, {GroupingType::shuffle, {}}});
  return *this;
}

TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::fields_grouping(
    const std::string& source, Fields fields) {
  builder_.spec_.components[index_].subscriptions.push_back(
      {source, {GroupingType::fields, std::move(fields)}});
  return *this;
}

TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::global_grouping(
    const std::string& source) {
  builder_.spec_.components[index_].subscriptions.push_back(
      {source, {GroupingType::global, {}}});
  return *this;
}

TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::all_grouping(
    const std::string& source) {
  builder_.spec_.components[index_].subscriptions.push_back(
      {source, {GroupingType::all, {}}});
  return *this;
}

TopologySpec TopologyBuilder::build() {
  std::set<std::string> names;
  for (const auto& c : spec_.components) {
    if (!names.insert(c.name).second) {
      throw std::invalid_argument("topology: duplicate component '" + c.name + "'");
    }
    if (c.is_spout() == static_cast<bool>(c.bolt_factory)) {
      throw std::invalid_argument("topology: component '" + c.name +
                                  "' must be exactly one of spout/bolt");
    }
    if (c.is_spout() && !c.subscriptions.empty()) {
      throw std::invalid_argument("topology: spout '" + c.name +
                                  "' cannot subscribe to streams");
    }
  }

  for (const auto& c : spec_.components) {
    if (!c.is_spout() && c.subscriptions.empty()) {
      throw std::invalid_argument("topology: bolt '" + c.name +
                                  "' has no input stream");
    }
    for (const auto& sub : c.subscriptions) {
      const ComponentSpec* src = spec_.find(sub.source);
      if (src == nullptr) {
        throw std::invalid_argument("topology: '" + c.name +
                                    "' subscribes to unknown component '" +
                                    sub.source + "'");
      }
      if (sub.grouping.type == GroupingType::fields) {
        if (sub.grouping.fields.empty()) {
          throw std::invalid_argument("topology: fields grouping on '" + c.name +
                                      "' declares no fields");
        }
        for (const auto& f : sub.grouping.fields) {
          if (std::find(src->output_fields.begin(), src->output_fields.end(), f) ==
              src->output_fields.end()) {
            throw std::invalid_argument("topology: grouping field '" + f +
                                        "' not in output of '" + sub.source + "'");
          }
        }
      }
    }
  }

  topological_order(spec_);  // throws on a cycle
  return spec_;
}

}  // namespace netalytics::stream
