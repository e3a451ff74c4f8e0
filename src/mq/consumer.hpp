// Consumer facade for the stream engine's spouts: "Storm then uses multiple
// Kafka 'Spouts' (i.e. data sources linked to the Kafka servers) to poll
// for new messages" (§5.3). Offsets are tracked per consumer group inside
// the brokers; distinct group names replay independently.
//
// Every consumer is a *member* of its group from construction: the
// cluster's GroupCoordinator assigns it a deterministic share of the
// partition grid and poll_batch() fetches only that share, so N members
// split a topic instead of each draining every broker. A group of one owns
// the whole grid.
#pragma once

#include <string>
#include <string_view>

#include "mq/cluster.hpp"

namespace netalytics::mq {

class Consumer {
 public:
  /// Joins `group` as a member (Cluster::poll_batch with this member id).
  Consumer(Cluster& cluster, std::string group);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Fetch up to `max` new records of `topic` from this member's share.
  /// Payload bytes stay shared with the broker log (refcounted, zero-copy).
  /// A member that has left the group fetches nothing until rejoin().
  FetchBatch poll_batch(std::string_view topic, std::size_t max);

  /// Leave the group now (idempotent; bumps the group generation so the
  /// survivors inherit this member's partitions at their next poll).
  void leave();
  /// Join again after leave() — as a *new* member (fresh id, last rank).
  void rejoin();

  std::uint64_t total_consumed() const noexcept { return consumed_; }
  const std::string& group() const noexcept { return group_; }
  /// 0 after leave().
  std::uint64_t member_id() const noexcept { return member_; }

 private:
  Cluster& cluster_;
  std::string group_;
  std::uint64_t member_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace netalytics::mq
