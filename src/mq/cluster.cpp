#include "mq/cluster.hpp"

#include <algorithm>
#include <cassert>

#include "common/hash.hpp"

namespace netalytics::mq {

Cluster::Cluster(std::size_t brokers, BrokerConfig config)
    : coordinator_(brokers == 0 ? 1 : brokers, config.partitions_per_topic) {
  const std::size_t n = brokers == 0 ? 1 : brokers;
  brokers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    brokers_.push_back(std::make_unique<Broker>(config));
  }
}

ProduceStatus Cluster::produce(Message&& msg, common::Timestamp now) {
  return brokers_[broker_of_key(msg.key)]->produce(std::move(msg), now);
}

void Cluster::produce_batch(std::span<Message> msgs, common::Timestamp now,
                            std::span<ProduceStatus> statuses) {
  assert(msgs.size() == statuses.size());
  std::size_t i = 0;
  while (i < msgs.size()) {
    const std::size_t b = broker_of_key(msgs[i].key);
    std::size_t end = i + 1;
    while (end < msgs.size() && broker_of_key(msgs[end].key) == b) ++end;
    brokers_[b]->produce_batch(msgs.subspan(i, end - i), now,
                               statuses.subspan(i, end - i));
    i = end;
  }
}

std::size_t Cluster::broker_of_key(std::uint64_t key) const noexcept {
  return common::hash_to_bucket(common::mix64(key ^ 0x5ca1ab1e), brokers_.size());
}

void Cluster::install_faults(common::FaultPlan* plan) {
  for (std::size_t i = 0; i < brokers_.size(); ++i) {
    brokers_[i]->install_faults(plan, "mq.broker." + std::to_string(i));
  }
}

void Cluster::bind_metrics(common::MetricsRegistry& registry,
                           const std::string& prefix) {
  for (std::size_t i = 0; i < brokers_.size(); ++i) {
    brokers_[i]->bind_metrics(registry, prefix + std::to_string(i));
  }
}

namespace {
/// Append one broker's batch to `out`: records move (payload refcounts
/// transfer, nothing re-copies).
void merge_batch(FetchBatch& out, FetchBatch&& batch) {
  out.records.insert(out.records.end(),
                     std::make_move_iterator(batch.records.begin()),
                     std::make_move_iterator(batch.records.end()));
  out.total_records += batch.total_records;
}
}  // namespace

FetchBatch Cluster::poll_batch(std::string_view group, std::string_view topic,
                               std::size_t max, std::uint64_t member) {
  FetchBatch out;
  if (member == 0) {
    for (auto& broker : brokers_) {
      if (out.records.size() >= max) break;
      merge_batch(out, broker->poll_batch(group, topic, max - out.records.size()));
    }
    return out;
  }
  // The assignment is sorted by (broker, partition): fetch each broker's
  // contiguous run of assigned partitions with one call, in the same order
  // every member of every generation uses.
  const auto assigned = coordinator_.assignment(group, member);
  std::vector<std::size_t> indexes;
  std::size_t i = 0;
  while (i < assigned.size() && out.records.size() < max) {
    const std::size_t b = assigned[i].broker;
    indexes.clear();
    while (i < assigned.size() && assigned[i].broker == b) {
      indexes.push_back(assigned[i].partition);
      ++i;
    }
    merge_batch(out, brokers_[b]->poll_batch(group, topic,
                                             max - out.records.size(), indexes));
  }
  return out;
}

double Cluster::occupancy(std::string_view topic) const {
  double worst = 0.0;
  for (const auto& broker : brokers_) {
    worst = std::max(worst, broker->occupancy(topic));
  }
  return worst;
}

std::size_t Cluster::depth(std::string_view topic) const {
  std::size_t total = 0;
  for (const auto& broker : brokers_) total += broker->depth(topic);
  return total;
}

std::uint64_t Cluster::unread_records(std::string_view topic) const {
  std::uint64_t total = 0;
  for (const auto& broker : brokers_) total += broker->unread_records(topic);
  return total;
}

void Cluster::set_drop_ledger(common::DropLedger* ledger) noexcept {
  for (const auto& broker : brokers_) broker->set_drop_ledger(ledger);
}

BrokerStats Cluster::aggregate_stats() const {
  BrokerStats total;
  for (const auto& broker : brokers_) {
    const auto s = broker->stats();
    total.produced += s.produced;
    total.blocked += s.blocked;
    total.dropped_retention += s.dropped_retention;
    total.consumed += s.consumed;
    total.bytes_in += s.bytes_in;
    total.produced_records += s.produced_records;
    total.consumed_records += s.consumed_records;
    total.evicted_unread_records += s.evicted_unread_records;
    total.duplicated_records += s.duplicated_records;
    total.faulted_down += s.faulted_down;
    total.faulted_reject += s.faulted_reject;
    total.faulted_delay += s.faulted_delay;
    total.faulted_duplicate += s.faulted_duplicate;
  }
  return total;
}

}  // namespace netalytics::mq
