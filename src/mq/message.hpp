// Messages in the aggregation layer (§3.2). A message is one serialized
// record batch from a monitor; the topic is the parser type, "since the
// parser type is used to select a buffer".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::mq {

/// Immutable, refcounted payload buffer. A Payload is created once
/// (adopting the producer's serialized batch without copying it) and then
/// shared by reference: the broker's log, every fetch result and every retry
/// buffer entry hold the same bytes, so the consume path never deep-copies.
class Payload {
 public:
  Payload() = default;

  /// Adopt `bytes` (no copy): the vector becomes the shared owner and the
  /// payload aliases its storage. Implicit so existing call sites that pass
  /// a std::vector<std::byte> keep working.
  Payload(std::vector<std::byte> bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.empty()) return;
    auto owner = std::make_shared<std::vector<std::byte>>(std::move(bytes));
    size_ = owner->size();
    const std::byte* p = owner->data();
    data_ = std::shared_ptr<const std::byte>(std::move(owner), p);
  }

  /// Copy `bytes` into a fresh shared buffer (for callers that only have a
  /// borrowed view).
  static Payload copy_of(std::span<const std::byte> bytes) {
    return Payload(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  std::span<const std::byte> view() const noexcept { return {data_.get(), size_}; }
  operator std::span<const std::byte>() const noexcept {  // NOLINT
    return view();
  }

  const std::byte* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::byte operator[](std::size_t i) const noexcept { return data_.get()[i]; }

  /// How many Payload instances share these bytes. A fetched record whose
  /// use_count() > 1 proves the fetch path did not deep-copy (the broker's
  /// log still holds the other reference) — asserted by bench_mq_throughput.
  long use_count() const noexcept { return data_.use_count(); }

 private:
  std::shared_ptr<const std::byte> data_;  // aliases the owning vector
  std::size_t size_ = 0;
};

struct Message {
  std::string topic;
  std::uint64_t key = 0;  // partition selector (e.g. monitor id hash)
  Payload payload;
  common::Timestamp timestamp = 0;  // set by the producer at send()
  std::uint64_t offset = 0;   // assigned by the broker on append
  /// Broker append time, stamped in produce(). timestamp..append_ts is the
  /// produce-stage latency (retries, backoff, persistence); append_ts..poll
  /// is the consume-stage latency measured by the spout.
  common::Timestamp append_ts = 0;
  /// Parser records inside the payload. Drop accounting works in records —
  /// a lost message loses `records` records, not one unit — so the count
  /// rides with the message instead of being re-parsed from the payload.
  std::uint64_t records = 1;
  /// Trace ids of the sampled records inside the payload (usually empty).
  std::vector<std::uint64_t> traces;
};

/// One fetched message: the Message header minus its topic (the fetch
/// call's argument names it once for the whole batch), with the payload
/// bytes still shared with the broker log (refcounted). The only
/// allocation is `traces`, and only for the 1-in-N sampled messages that
/// carry any.
struct FetchedRecord {
  std::uint64_t key = 0;
  Payload payload;
  common::Timestamp timestamp = 0;
  std::uint64_t offset = 0;
  common::Timestamp append_ts = 0;
  std::uint64_t records = 1;
  std::vector<std::uint64_t> traces;
};

/// Result of a fetch (poll_batch at every level), in fetch order.
struct FetchBatch {
  std::vector<FetchedRecord> records;
  std::uint64_t total_records = 0;  // Σ records[i].records

  bool empty() const noexcept { return records.empty(); }
  std::size_t size() const noexcept { return records.size(); }
};

}  // namespace netalytics::mq
