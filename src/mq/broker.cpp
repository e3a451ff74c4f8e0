#include "mq/broker.hpp"

#include <algorithm>
#include <cassert>

#include "common/hash.hpp"

namespace netalytics::mq {

namespace {

/// How far the simulated disk may lag behind `now` before produce blocks.
constexpr common::Duration kMaxPersistLag = 50 * common::kMillisecond;

}  // namespace

Broker::Broker(BrokerConfig config) : config_(config) {
  if (config_.partitions_per_topic == 0) config_.partitions_per_topic = 1;
  if (config_.partition_capacity == 0) config_.partition_capacity = 1;
  owned_metrics_ = std::make_unique<common::MetricsRegistry>();
  resolve_metrics(*owned_metrics_, "mq.broker");
  install_faults(nullptr);
}

void Broker::resolve_metrics(common::MetricsRegistry& registry,
                             const std::string& prefix) {
  produced_ = &registry.counter(prefix + ".produced");
  blocked_ = &registry.counter(prefix + ".blocked");
  dropped_retention_ = &registry.counter(prefix + ".dropped_retention");
  consumed_ = &registry.counter(prefix + ".consumed");
  bytes_in_ = &registry.counter(prefix + ".bytes_in");
  produced_records_ = &registry.counter(prefix + ".produced_records");
  consumed_records_ = &registry.counter(prefix + ".consumed_records");
  evicted_unread_records_ = &registry.counter(prefix + ".evicted_unread_records");
  duplicated_records_ = &registry.counter(prefix + ".duplicated_records");
  eviction_lag_ = &registry.gauge(prefix + ".eviction_lag");
  faulted_down_ = &registry.counter(prefix + ".faulted_down");
  faulted_reject_ = &registry.counter(prefix + ".faulted_reject");
  faulted_delay_ = &registry.counter(prefix + ".faulted_delay");
  faulted_duplicate_ = &registry.counter(prefix + ".faulted_duplicate");
}

void Broker::bind_metrics(common::MetricsRegistry& registry,
                          const std::string& prefix) {
  std::unique_lock lock(registry_mutex_);
  resolve_metrics(registry, prefix);
  owned_metrics_.reset();  // all pointers now target the bound registry
}

void Broker::install_faults(common::FaultPlan* plan, std::string site_prefix) {
  std::unique_lock lock(registry_mutex_);
  faults_ = plan;
  const auto site = [&site_prefix](std::string_view suffix) {
    std::string s = site_prefix;
    s += '.';
    s += suffix;
    return s;
  };
  site_down_ = site(kFaultDown);
  site_reject_ = site(kFaultReject);
  site_delay_ = site(kFaultDelay);
  site_duplicate_ = site(kFaultDuplicate);
}

bool Broker::fault(const std::string& site, common::Timestamp now) {
  if (faults_ == nullptr) return false;
  return faults_->should_fail(site, now);
}

Broker::Topic* Broker::find_topic(std::string_view name) const {
  std::shared_lock lock(registry_mutex_);
  const auto it = topics_.find(name);
  return it == topics_.end() ? nullptr : it->second.get();
}

Broker::Topic& Broker::topic(std::string_view name) {
  if (Topic* t = find_topic(name)) return *t;
  std::unique_lock lock(registry_mutex_);
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    auto t = std::make_unique<Topic>();
    t->partitions.reserve(config_.partitions_per_topic);
    for (std::size_t i = 0; i < config_.partitions_per_topic; ++i) {
      t->partitions.push_back(std::make_unique<Partition>());
    }
    it = topics_.emplace(std::string(name), std::move(t)).first;
  }
  return *it->second;
}

std::size_t Broker::unread(const Partition& part) {
  if (part.group_offsets.empty()) return part.log.size();
  std::uint64_t slowest = part.next_offset;
  for (const auto& [group, offset] : part.group_offsets) {
    slowest = std::min(slowest, offset);
  }
  const std::uint64_t floor = std::max(slowest, part.base_offset);
  return static_cast<std::size_t>(part.next_offset - floor);
}

std::uint64_t Broker::evict_front(Partition& part) {
  std::uint64_t slowest = part.base_offset;  // no groups: nothing read yet
  if (!part.group_offsets.empty()) {
    slowest = part.next_offset;
    for (const auto& [group, offset] : part.group_offsets) {
      slowest = std::min(slowest, offset);
    }
  }
  const Message& front = part.log.front();
  const std::uint64_t lost = slowest <= front.offset ? front.records : 0;
  part.log.pop_front();
  ++part.base_offset;
  return lost;
}

bool Broker::disk_admit(std::size_t bytes, common::Timestamp now) {
  // Disk persistence model: every byte takes 1/rate seconds to persist; the
  // log's write point may lag `now` by at most kMaxPersistLag.
  if (config_.persist_bytes_per_sec == 0) return true;
  const common::Duration cost = static_cast<common::Duration>(
      static_cast<double>(bytes) /
      static_cast<double>(config_.persist_bytes_per_sec) *
      static_cast<double>(common::kSecond));
  std::lock_guard lock(disk_mutex_);
  const common::Timestamp start = std::max(disk_busy_until_, now);
  if (start + cost > now + kMaxPersistLag) return false;
  disk_busy_until_ = start + cost;
  return true;
}

ProduceStatus Broker::produce(Message&& msg, common::Timestamp now) {
  ProduceStatus status = ProduceStatus::ok;
  produce_batch({&msg, 1}, now, {&status, 1});
  return status;
}

void Broker::produce_batch(std::span<Message> msgs, common::Timestamp now,
                           std::span<ProduceStatus> statuses) {
  assert(msgs.size() == statuses.size());
  if (msgs.empty()) return;

  common::Timestamp seen = last_now_.load(std::memory_order_relaxed);
  while (seen < now &&
         !last_now_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }

  // Pass 1 (no messages moved yet, so views into them are safe): resolve
  // every message to its partition, caching the last topic resolution —
  // producer batches are single-topic, so the registry lock is typically
  // taken once per batch.
  Partition* small_parts[16];
  std::vector<Partition*> big_parts;
  std::span<Partition*> parts;
  if (msgs.size() <= std::size(small_parts)) {
    parts = {small_parts, msgs.size()};
  } else {
    big_parts.resize(msgs.size());
    parts = big_parts;
  }
  {
    std::string_view cached_name;
    Topic* cached_topic = nullptr;
    for (std::size_t j = 0; j < msgs.size(); ++j) {
      if (cached_topic == nullptr || msgs[j].topic != cached_name) {
        cached_topic = &topic(msgs[j].topic);
        cached_name = msgs[j].topic;
      }
      const std::size_t index = common::hash_to_bucket(
          common::mix64(msgs[j].key), cached_topic->partitions.size());
      parts[j] = cached_topic->partitions[index].get();
    }
  }

  // Per-key order under retry: once a message of a partition fails, the
  // rest of this batch's messages for that partition are held back (the
  // producer will retry them in order). Batches touch very few partitions,
  // so a flat list beats a hash set.
  std::vector<Partition*> stalled;

  // Pass 2: append runs of same-partition messages under one lock
  // acquisition each. Counter increments are batched per run — the shared
  // atomics are the one cache line every producer thread would otherwise
  // fight over once the locks shard.
  std::size_t i = 0;
  while (i < msgs.size()) {
    Partition& part = *parts[i];
    std::size_t end = i + 1;
    while (end < msgs.size() && parts[end] == &part) ++end;

    std::uint64_t n_produced = 0, n_bytes = 0, n_blocked = 0, n_evicted = 0;
    std::uint64_t n_down = 0, n_reject = 0;
    std::uint64_t n_records = 0, n_evicted_unread = 0;
    std::int64_t oldest_age = -1;
    {
      std::unique_lock part_lock(part.mutex);
      // Age retention first (Kafka's retention.ms): virtual time only
      // advances through produce, so expiry is enforced here.
      if (config_.retention_age != 0) {
        while (!part.log.empty() &&
               part.log.front().append_ts + config_.retention_age < now) {
          n_evicted_unread += evict_front(part);
          ++n_evicted;
        }
      }
      for (std::size_t j = i; j < end; ++j) {
        Message& msg = msgs[j];
        if (std::find(stalled.begin(), stalled.end(), &part) != stalled.end()) {
          statuses[j] = ProduceStatus::blocked;
          ++n_blocked;
          continue;
        }
        if (fault(site_down_, now)) {
          ++n_down;
          ++n_blocked;
          statuses[j] = ProduceStatus::blocked;
          stalled.push_back(&part);
          continue;
        }
        if (fault(site_reject_, now)) {
          ++n_reject;
          statuses[j] = ProduceStatus::dropped;
          stalled.push_back(&part);
          continue;
        }
        if (!disk_admit(msg.payload.size(), now)) {
          ++n_blocked;
          statuses[j] = ProduceStatus::blocked;
          stalled.push_back(&part);
          continue;
        }

        // Retention: evict the oldest message when the partition is full
        // (size cap; the age cap ran above).
        if (part.log.size() >= config_.partition_capacity) {
          n_evicted_unread += evict_front(part);
          ++n_evicted;
        }

        msg.offset = part.next_offset++;
        msg.append_ts = now;
        n_bytes += msg.payload.size();
        ++n_produced;
        n_records += msg.records;
        part.log.push_back(std::move(msg));

        const double occ = static_cast<double>(unread(part)) /
                           static_cast<double>(config_.partition_capacity);
        statuses[j] = occ >= config_.high_watermark ? ProduceStatus::low_buffer
                                                    : ProduceStatus::ok;
      }
      if (!part.log.empty() && now >= part.log.front().append_ts) {
        oldest_age = static_cast<std::int64_t>(now - part.log.front().append_ts);
      }
    }
    if (n_produced != 0) produced_->inc(n_produced);
    if (n_bytes != 0) bytes_in_->inc(n_bytes);
    if (n_blocked != 0) blocked_->inc(n_blocked);
    if (n_evicted != 0) dropped_retention_->inc(n_evicted);
    if (n_records != 0) produced_records_->inc(n_records);
    if (n_evicted_unread != 0) {
      evicted_unread_records_->inc(n_evicted_unread);
      if (drop_ledger_ != nullptr) {
        drop_ledger_->add(common::DropCause::broker_retention, n_evicted_unread);
      }
    }
    if (oldest_age >= 0) eviction_lag_->set(oldest_age);
    if (n_down != 0) faulted_down_->inc(n_down);
    if (n_reject != 0) faulted_reject_->inc(n_reject);
    i = end;
  }
}

FetchBatch Broker::poll_batch(std::string_view group,
                              std::string_view topic_name, std::size_t max,
                              std::span<const std::size_t> partitions) {
  FetchBatch out;
  const common::Timestamp now = last_now_.load(std::memory_order_relaxed);
  // A down broker serves no fetches either; group offsets are untouched, so
  // consumers simply re-poll from where they left off after recovery.
  if (fault(site_down_, now)) {
    faulted_down_->inc();
    return out;
  }
  Topic* top = find_topic(topic_name);
  if (top == nullptr) return out;

  // The log message outlives the poll (retention evicts, consuming does
  // not), so a record is a cheap header copy plus a payload refcount bump.
  const auto fetch = [&out](const Message& m) {
    out.records.push_back(FetchedRecord{.key = m.key,
                                        .payload = m.payload,
                                        .timestamp = m.timestamp,
                                        .offset = m.offset,
                                        .append_ts = m.append_ts,
                                        .records = m.records,
                                        .traces = m.traces});
    out.total_records += m.records;
  };

  const std::size_t count =
      partitions.empty() ? top->partitions.size() : partitions.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (out.records.size() >= max) break;
    const std::size_t index = partitions.empty() ? i : partitions[i];
    if (index >= top->partitions.size()) continue;
    Partition& part = *top->partitions[index];
    std::lock_guard part_lock(part.mutex);
    auto it = part.group_offsets.find(group);
    if (it == part.group_offsets.end()) {
      it = part.group_offsets.emplace(std::string(group), 0).first;
    }
    std::uint64_t& next = it->second;
    // If retention ran past the group's offset, skip to the oldest retained.
    if (next < part.base_offset) next = part.base_offset;
    while (next < part.next_offset && out.records.size() < max) {
      if (fault(site_delay_, now)) {
        // Hold the rest of this partition back; it arrives next poll, in
        // order, because `next` was not advanced.
        faulted_delay_->inc();
        break;
      }
      fetch(part.log[next - part.base_offset]);
      if (out.records.size() < max && fault(site_duplicate_, now)) {
        // Re-deliver adjacent to the original: same offset, so per-key
        // order (non-decreasing offsets) still holds.
        faulted_duplicate_->inc();
        duplicated_records_->inc(part.log[next - part.base_offset].records);
        fetch(part.log[next - part.base_offset]);
      }
      ++next;
    }
  }
  consumed_->inc(out.records.size());
  if (out.total_records != 0) consumed_records_->inc(out.total_records);
  return out;
}

double Broker::occupancy(std::string_view topic_name) const {
  Topic* top = find_topic(topic_name);
  if (top == nullptr) return 0.0;
  std::size_t worst = 0;
  for (const auto& part_ptr : top->partitions) {
    std::lock_guard part_lock(part_ptr->mutex);
    worst = std::max(worst, unread(*part_ptr));
  }
  return static_cast<double>(worst) / static_cast<double>(config_.partition_capacity);
}

std::size_t Broker::depth(std::string_view topic_name) const {
  Topic* top = find_topic(topic_name);
  if (top == nullptr) return 0;
  std::size_t total = 0;
  for (const auto& part_ptr : top->partitions) {
    std::lock_guard part_lock(part_ptr->mutex);
    total += part_ptr->log.size();
  }
  return total;
}

std::uint64_t Broker::unread_records(std::string_view topic_name) const {
  Topic* top = find_topic(topic_name);
  if (top == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& part_ptr : top->partitions) {
    Partition& part = *part_ptr;
    std::lock_guard part_lock(part.mutex);
    const std::size_t n = unread(part);
    // The unread tail is the last n log entries (groups read in order).
    for (std::size_t i = part.log.size() - n; i < part.log.size(); ++i) {
      total += part.log[i].records;
    }
  }
  return total;
}

BrokerStats Broker::stats() const {
  // Counters are relaxed atomics; a stats snapshot needs no lock.
  BrokerStats s;
  s.produced = produced_->value();
  s.blocked = blocked_->value();
  s.dropped_retention = dropped_retention_->value();
  s.consumed = consumed_->value();
  s.bytes_in = bytes_in_->value();
  s.produced_records = produced_records_->value();
  s.consumed_records = consumed_records_->value();
  s.evicted_unread_records = evicted_unread_records_->value();
  s.duplicated_records = duplicated_records_->value();
  s.faulted_down = faulted_down_->value();
  s.faulted_reject = faulted_reject_->value();
  s.faulted_delay = faulted_delay_->value();
  s.faulted_duplicate = faulted_duplicate_->value();
  return s;
}

}  // namespace netalytics::mq
