#include "mq/group.hpp"

#include <algorithm>

namespace netalytics::mq {

GroupCoordinator::GroupCoordinator(std::size_t brokers,
                                   std::size_t partitions_per_broker)
    : brokers_(brokers == 0 ? 1 : brokers),
      partitions_per_broker_(partitions_per_broker == 0 ? 1
                                                        : partitions_per_broker) {}

std::uint64_t GroupCoordinator::join(std::string_view group) {
  std::lock_guard lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    it = groups_.emplace(std::string(group), Group{}).first;
  }
  Group& g = it->second;
  const std::uint64_t id = g.next_member++;
  g.members.push_back(id);
  ++g.generation;
  return id;
}

bool GroupCoordinator::leave(std::string_view group, std::uint64_t member) {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(group);
  if (it == groups_.end()) return false;
  Group& g = it->second;
  const auto m = std::find(g.members.begin(), g.members.end(), member);
  if (m == g.members.end()) return false;
  g.members.erase(m);
  ++g.generation;
  return true;
}

std::uint64_t GroupCoordinator::generation(std::string_view group) const {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.generation;
}

std::size_t GroupCoordinator::member_count(std::string_view group) const {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.members.size();
}

std::vector<TopicPartition> GroupCoordinator::share(std::size_t rank,
                                                    std::size_t n) const {
  std::vector<TopicPartition> out;
  // Global index order is (broker, partition) order already — the poll
  // iteration order every member shares.
  for (std::size_t g = rank; g < partition_count(); g += n) {
    out.push_back({g / partitions_per_broker_, g % partitions_per_broker_});
  }
  return out;
}

std::vector<TopicPartition> GroupCoordinator::assignment(
    std::string_view group, std::uint64_t member) const {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  const Group& g = it->second;
  const auto m = std::find(g.members.begin(), g.members.end(), member);
  if (m == g.members.end()) return {};
  return share(static_cast<std::size_t>(m - g.members.begin()),
               g.members.size());
}

std::vector<std::vector<TopicPartition>> GroupCoordinator::assignments(
    std::string_view group) const {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  const Group& g = it->second;
  std::vector<std::vector<TopicPartition>> out;
  out.reserve(g.members.size());
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    out.push_back(share(r, g.members.size()));
  }
  return out;
}

}  // namespace netalytics::mq
