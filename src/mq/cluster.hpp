// A cluster of aggregation brokers. "Parsers, potentially distributed
// across multiple monitoring hosts, send their data to one of the Kafka
// servers. Using Kafka, we can fuse together data streams from parsers
// replicated at different points in the network" (§3.2). Messages route to
// a broker by key hash, so one topic spreads across brokers while a given
// producer's stream stays ordered.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "mq/broker.hpp"
#include "mq/group.hpp"

namespace netalytics::mq {

class Cluster {
 public:
  /// `brokers` nodes, each configured identically.
  Cluster(std::size_t brokers, BrokerConfig config = {});

  /// On blocked/dropped, `msg` is left intact for the caller to retry.
  ProduceStatus produce(Message&& msg, common::Timestamp now);

  /// Batch produce: routes runs of same-broker messages (a single-key batch
  /// is one run) to Broker::produce_batch; statuses[i] reports msgs[i].
  /// Spans must be the same length. Same move/retry contract as the broker.
  void produce_batch(std::span<Message> msgs, common::Timestamp now,
                     std::span<ProduceStatus> statuses);

  /// The one fetch path across brokers: up to `max` records of `topic`
  /// from the partitions the coordinator currently assigns to `member`
  /// (see mq/group.hpp), one Broker::poll_batch call per broker in
  /// (broker, partition) order. A departed member's fetch returns nothing.
  /// member == 0 reads every partition of every broker in that same order,
  /// which is what a group of one is assigned.
  FetchBatch poll_batch(std::string_view group, std::string_view topic,
                        std::size_t max, std::uint64_t member = 0);

  /// Membership and deterministic partition assignment for every consumer
  /// group on this cluster.
  GroupCoordinator& coordinator() noexcept { return coordinator_; }
  const GroupCoordinator& coordinator() const noexcept { return coordinator_; }

  /// Worst-case partition occupancy of `topic` across brokers — the signal
  /// the feedback-sampling controller watches (§4.2).
  double occupancy(std::string_view topic) const;
  std::size_t depth(std::string_view topic) const;
  /// Parser records buffered for `topic` across brokers that the slowest
  /// consumer group has not read (engine.reconcile()'s broker term).
  std::uint64_t unread_records(std::string_view topic) const;

  std::size_t broker_count() const noexcept { return brokers_.size(); }
  Broker& broker(std::size_t i) { return *brokers_.at(i); }
  BrokerStats aggregate_stats() const;

  /// Install a chaos plan on every broker. Broker `i` checks sites named
  /// "mq.broker.<i>.<suffix>", so a test can kill exactly one node.
  void install_faults(common::FaultPlan* plan);

  /// Re-home every broker's counters into `registry`: broker `i` gets the
  /// prefix "<prefix><i>" (default registry names "mq.broker<i>.*"). Bind
  /// before traffic starts.
  void bind_metrics(common::MetricsRegistry& registry,
                    const std::string& prefix = "mq.broker");
  /// Broker index `key`-hashed messages land on (lets chaos tests aim at
  /// the node that actually carries a producer's stream).
  std::size_t broker_of_key(std::uint64_t key) const noexcept;

  /// Route every broker's evicted-unread record counts into `ledger`
  /// (broker_retention cause). Install before traffic starts.
  void set_drop_ledger(common::DropLedger* ledger) noexcept;

 private:
  std::vector<std::unique_ptr<Broker>> brokers_;
  GroupCoordinator coordinator_;
};

}  // namespace netalytics::mq
