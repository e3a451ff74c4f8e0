// The data tuple a parser emits (§3.1). "The first element in each tuple is
// an ID field, usually calculated as a hash of the packet's n-tuple" — the
// ID lets processors join records produced by different parsers for the
// same flow. Records are batched and serialized before leaving the monitor,
// which is where the paper's ~10:1 data reduction versus raw packets comes
// from. RecordBatchView is the one decoder of those batches: it validates a
// payload once and then reads the records in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
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

/// One field as RecordBatchView yields it: a string is a view into the
/// batch payload, so reading a batch copies no string.
using FieldRef = std::variant<std::int64_t, std::uint64_t, double, std::string_view>;

struct RecordRef;

/// The one record-batch decoder. Everything that reads a serialize_batch
/// payload (the stream's ParsingBolt, the federation parent,
/// deserialize_batch) goes through it.
///
/// The constructor validates the whole payload once: the layout byte, the
/// topic, every record, field and string count (each bounded by the bytes
/// that remain before anything is reserved), every field tag, and the trace
/// trailer, whose record indices must be in range and strictly increasing
/// (the order serialize_batch writes them). A bad batch throws
/// std::out_of_range there, before any record is handed out; iteration
/// then reads the validated bytes in place and cannot fail. The view
/// borrows `payload`, which must outlive it and every RecordRef it yields.
class RecordBatchView {
 public:
  explicit RecordBatchView(std::span<const std::byte> payload);

  /// One record's fields, decoded as they are iterated.
  class Fields {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = FieldRef;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = FieldRef;

      iterator() = default;
      FieldRef operator*() const noexcept;
      iterator& operator++() noexcept;
      iterator operator++(int) noexcept {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class Fields;
      explicit iterator(const std::byte* at) noexcept : at_(at) {}
      const std::byte* at_ = nullptr;
    };

    Fields() = default;
    std::size_t size() const noexcept { return count_; }
    iterator begin() const noexcept { return iterator(begin_); }
    iterator end() const noexcept { return iterator(end_); }

    /// Append an owning copy of every field to `out` (a string view
    /// becomes a std::string); reserves nothing.
    void append_to(std::vector<FieldValue>& out) const;

   private:
    friend class RecordBatchView;
    const std::byte* begin_ = nullptr;
    const std::byte* end_ = nullptr;
    std::size_t count_ = 0;
  };

  class iterator;

  std::string_view topic() const noexcept { return topic_; }
  std::size_t size() const noexcept { return count_; }
  iterator begin() const noexcept;
  iterator end() const noexcept;

 private:
  std::string_view topic_;
  std::size_t count_ = 0;
  const std::byte* records_ = nullptr;      // first record
  const std::byte* trailer_ = nullptr;      // first [index, trace] entry
  const std::byte* trailer_end_ = nullptr;  // == trailer_ when untraced
};

/// One record of a batch, read in place. `fields` and every string in it
/// borrow the payload the view was built over.
struct RecordRef {
  std::uint64_t id = 0;
  common::Timestamp timestamp = 0;
  RecordBatchView::Fields fields;
  std::uint64_t trace = 0;
};

/// Forward iterator over a validated batch, in record order.
class RecordBatchView::iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = RecordRef;
  using difference_type = std::ptrdiff_t;
  using pointer = const RecordRef*;
  using reference = const RecordRef&;

  iterator() = default;
  const RecordRef& operator*() const noexcept { return current_; }
  const RecordRef* operator->() const noexcept { return &current_; }
  iterator& operator++() noexcept;
  iterator operator++(int) noexcept {
    iterator old = *this;
    ++*this;
    return old;
  }
  bool operator==(const iterator& o) const noexcept { return index_ == o.index_; }

 private:
  friend class RecordBatchView;
  iterator(const RecordBatchView* view, std::size_t index,
           const std::byte* at) noexcept;
  void decode() noexcept;  // read the record at `at_` into current_

  const RecordBatchView* view_ = nullptr;
  std::size_t index_ = 0;
  const std::byte* at_ = nullptr;     // current record
  const std::byte* next_ = nullptr;   // record after it
  const std::byte* trace_ = nullptr;  // next unmatched trailer entry
  RecordRef current_;
};

/// An owning Record: the topic, the record's header and trace, and a copy
/// of its fields.
Record to_record(std::string_view topic, const RecordRef& r);

/// Every record of a batch, owned: a loop over RecordBatchView (so it
/// throws std::out_of_range on exactly the batches the view rejects).
std::vector<Record> deserialize_batch(std::span<const std::byte> payload);

// Typed field access helpers; throw std::bad_variant_access on mismatch.
inline std::int64_t as_i64(const FieldValue& v) { return std::get<std::int64_t>(v); }
inline std::uint64_t as_u64(const FieldValue& v) { return std::get<std::uint64_t>(v); }
inline double as_f64(const FieldValue& v) { return std::get<double>(v); }
inline const std::string& as_str(const FieldValue& v) { return std::get<std::string>(v); }

}  // namespace netalytics::nf
