// The data tuple a parser emits (§3.1). "The first element in each tuple is
// an ID field, usually calculated as a hash of the packet's n-tuple" — the
// ID lets processors join records produced by different parsers for the
// same flow. Records are batched and serialized before leaving the monitor,
// which is where the paper's ~10:1 data reduction versus raw packets comes
// from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::nf {

using FieldValue = std::variant<std::int64_t, std::uint64_t, double, std::string>;

struct Record {
  std::string topic;  // parser name; selects the aggregation buffer (§3.2)
  std::uint64_t id = 0;
  common::Timestamp timestamp = 0;
  std::vector<FieldValue> fields;
  /// Provenance: nonzero when the packet this record came from was chosen
  /// by the trace sampler. Serialized batches carry traced records in a
  /// compact trailer, so the wire cost is zero when tracing is off.
  std::uint64_t trace = 0;

  bool operator==(const Record&) const = default;
};

/// Serialize a batch of records into one message payload. Every record must
/// carry the same topic (it is written once); throws std::invalid_argument
/// on a mixed-topic span.
std::vector<std::byte> serialize_batch(std::span<const Record> records);

/// Inverse of serialize_batch. Throws std::out_of_range on corrupt input,
/// including a record, field or trace count the remaining bytes cannot hold
/// (checked before anything is reserved).
std::vector<Record> deserialize_batch(std::span<const std::byte> payload);

// Typed field access helpers; throw std::bad_variant_access on mismatch.
inline std::int64_t as_i64(const FieldValue& v) { return std::get<std::int64_t>(v); }
inline std::uint64_t as_u64(const FieldValue& v) { return std::get<std::uint64_t>(v); }
inline double as_f64(const FieldValue& v) { return std::get<double>(v); }
inline const std::string& as_str(const FieldValue& v) { return std::get<std::string>(v); }

}  // namespace netalytics::nf
