// Consumer-group membership and partition assignment for the aggregation
// layer — the piece that lets "multiple Kafka 'Spouts' poll for new
// messages" (§5.3) split a topic instead of each draining every broker.
//
// A group is a set of members; every join or leave bumps the group's
// generation and implicitly recomputes the assignment: a pure function of
// the surviving members' ranks (join order) and the cluster's partition
// grid (brokers × partitions_per_topic), dealt round-robin: global
// partition index g (broker-major) goes to rank g % n. Nothing about the
// assignment is negotiated or timed — the same membership sequence always
// yields the same ownership map, which is what the determinism contract
// (docs/DETERMINISM.md "Consumer-group assignment & handoff") requires.
//
// Cursor handoff is free by construction: read cursors live per *group*
// (not per member) inside each broker partition, so when a rebalance moves
// a partition from member A to member B, B's first poll resumes at exactly
// the offset A's last poll advanced the shared cursor to. No offset is
// skipped and none is re-read, because a partition has exactly one owner
// per generation and owners poll sequentially.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace netalytics::mq {

/// One partition of the cluster-wide grid: partition `partition` of every
/// topic on broker `broker` (all topics share the partitions_per_topic
/// layout, so an assignment is topic-independent).
struct TopicPartition {
  std::size_t broker = 0;
  std::size_t partition = 0;

  friend bool operator==(const TopicPartition&, const TopicPartition&) = default;
};

/// Membership registry for every consumer group of one mq::Cluster. All
/// methods are thread-safe (one mutex — membership changes are rare and
/// poll-path reads are a lookup, not a scan).
class GroupCoordinator {
 public:
  GroupCoordinator(std::size_t brokers, std::size_t partitions_per_broker);

  /// Add a member to `group`; returns its id (> 0, unique within the group
  /// for the coordinator's lifetime, never reused) and bumps the group's
  /// generation. Rank order is join order, so callers that join in a
  /// deterministic order get a deterministic assignment.
  std::uint64_t join(std::string_view group);

  /// Remove a member; later members' ranks shift down by one and the
  /// generation bumps. Unknown (group, member) pairs are ignored (returns
  /// false) so leave() is idempotent.
  bool leave(std::string_view group, std::uint64_t member);

  /// Current generation of `group`: 0 before the first join, bumped by
  /// every join/leave. Consumers cache their assignment keyed by this.
  std::uint64_t generation(std::string_view group) const;

  std::size_t member_count(std::string_view group) const;

  /// Member `member`'s current share of the partition grid, sorted by
  /// (broker, partition). Empty when the member is not (or no longer) in
  /// the group — a departed member consumes nothing.
  std::vector<TopicPartition> assignment(std::string_view group,
                                         std::uint64_t member) const;

  /// The full ownership map of `group` in rank order (assignment(m) for
  /// every member, by rank). Ranks with no partitions get empty vectors.
  std::vector<std::vector<TopicPartition>> assignments(
      std::string_view group) const;

  std::size_t partition_count() const noexcept {
    return brokers_ * partitions_per_broker_;
  }

 private:
  struct Group {
    std::vector<std::uint64_t> members;  // in join order == rank order
    std::uint64_t next_member = 1;
    std::uint64_t generation = 0;
  };

  /// Partitions of rank `rank` out of `n` members (round-robin). Caller
  /// holds mutex_ (or the inputs are immutable config).
  std::vector<TopicPartition> share(std::size_t rank, std::size_t n) const;

  std::size_t brokers_;
  std::size_t partitions_per_broker_;
  mutable std::mutex mutex_;
  std::map<std::string, Group, std::less<>> groups_;
};

}  // namespace netalytics::mq
