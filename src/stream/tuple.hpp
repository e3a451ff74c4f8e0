// Tuples flowing through the stream engine. Mirrors Storm's model: a tuple
// is a list of dynamically-typed values whose names are declared by the
// emitting component ("declare output fields"); fields groupings hash a
// subset of the values to pick the consumer task.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::stream {

using Value = std::variant<std::int64_t, std::uint64_t, double, std::string>;

/// Declared names for a component's output values, in position order.
using Fields = std::vector<std::string>;

struct Tuple {
  std::vector<Value> values;
  /// Provenance: nonzero when this tuple descends from a trace-sampled
  /// packet. Bolts deriving a tuple from inputs copy the id forward; 0 (the
  /// usual case — tracing samples 1/N) means untraced.
  std::uint64_t trace = 0;

  const Value& at(std::size_t i) const { return values.at(i); }
  std::size_t size() const noexcept { return values.size(); }

  bool operator==(const Tuple&) const = default;
};

/// Stable hash of one value (for fields grouping and key aggregation).
std::uint64_t hash_value(const Value& v) noexcept;

/// Hash of the values at `indices`.
std::uint64_t hash_fields(const Tuple& t, const std::vector<std::size_t>& indices);

/// Human-readable rendering, e.g. (42, "url", 2.5).
std::string format_tuple(const Tuple& t);

/// Render a single value as text (keys, table cells).
std::string format_value(const Value& v);

/// Buffer for the allocation-free format_value below; wide enough
/// for every number it renders.
using ValueText = std::array<char, 40>;

/// format_value without the allocation: a string renders as a view of
/// itself, a number into `buf`. Same text as format_value(v).
std::string_view format_value(const Value& v, ValueText& buf) noexcept;

// Typed accessors; throw std::bad_variant_access on type mismatch.
inline std::int64_t as_i64(const Value& v) { return std::get<std::int64_t>(v); }
inline std::uint64_t as_u64(const Value& v) { return std::get<std::uint64_t>(v); }
inline double as_f64(const Value& v) { return std::get<double>(v); }
inline const std::string& as_str(const Value& v) { return std::get<std::string>(v); }

/// Numeric coercion for aggregation blocks (sum/avg/max/min work on any
/// numeric value); throws std::invalid_argument for strings.
double as_number(const Value& v);

}  // namespace netalytics::stream
