#include "stream/bolts.hpp"

#include <algorithm>
#include <type_traits>

#include "common/byte_io.hpp"
#include "nf/record.hpp"

namespace netalytics::stream {

// A record field is a tuple value: records enter the stream (ParsingBolt)
// and leave it for the federation wire (fed::ChildNode) without conversion.
static_assert(std::is_same_v<nf::FieldValue, Value>);

void ParsingBolt::execute(Tuple&& input, Collector& out) {
  // Input: [payload:string] — the serialized batch from an mq message. The
  // view validates the whole batch first, so a corrupt one emits nothing.
  const nf::RecordBatchView batch(common::as_bytes(as_str(input.at(0))));
  for (const nf::RecordRef& rec : batch) {
    Tuple t;
    t.trace = rec.trace;
    t.values.reserve(2 + rec.fields.size());
    t.values.emplace_back(std::uint64_t{rec.id});
    t.values.emplace_back(std::uint64_t{rec.timestamp});
    rec.fields.append_to(t.values);
    out.emit(std::move(t));
  }
}

void DiffBolt::execute(Tuple&& input, Collector& out) {
  const auto id = as_u64(input.at(config_.id_index));
  const auto& event = as_str(input.at(config_.event_index));

  if (event == config_.start_token) {
    if (pending_.size() >= config_.max_pending) {  // shed load
      if (ledger_ != nullptr) {
        ledger_->add(common::DropCause::stream_window_eviction, pending_.size());
      }
      pending_.clear();
    }
    pending_.insert_or_assign(id, std::move(input));
    return;
  }
  if (event != config_.end_token) return;

  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // end without observed start
  const auto start_ts = as_u64(it->second.at(config_.ts_index));
  const auto end_ts = as_u64(input.at(config_.ts_index));
  const std::uint64_t diff = end_ts >= start_ts ? end_ts - start_ts : 0;

  Tuple result;
  // Provenance follows the end event (it closed the pair), falling back to
  // the start tuple's trace.
  result.trace = input.trace != 0 ? input.trace : it->second.trace;
  result.values.reserve(2 + config_.passthrough.size());
  result.values.emplace_back(std::uint64_t{id});
  result.values.emplace_back(std::uint64_t{diff});
  for (const auto idx : config_.passthrough) {
    result.values.push_back(it->second.at(idx));
  }
  pending_.erase(it);
  out.emit(std::move(result));
}

void JoinByIdBolt::execute(Tuple&& input, Collector& out) {
  bool is_left;
  Tuple stored = std::move(input);
  if (config_.by_tag) {
    is_left = as_str(stored.values.back()) == config_.left_tag;
    stored.values.pop_back();  // strip the marker
  } else {
    is_left = stored.size() == config_.left_arity;
  }
  auto& mine = is_left ? pending_left_ : pending_right_;
  const std::size_t id_index =
      is_left ? config_.left_id_index : config_.right_id_index;
  const auto id = as_u64(stored.at(id_index));
  if (mine.size() >= config_.max_pending) {  // shed load
    if (ledger_ != nullptr) {
      ledger_->add(common::DropCause::stream_window_eviction, mine.size());
    }
    mine.clear();
  }
  // 1:1 join, first record per id wins (a flow's first HTTP request pairs
  // with its first timing event; later same-id records are dropped).
  mine.try_emplace(id, std::move(stored));
  try_join(id, out);
}

void JoinByIdBolt::try_join(std::uint64_t id, Collector& out) {
  const auto lit = pending_left_.find(id);
  const auto rit = pending_right_.find(id);
  if (lit == pending_left_.end() || rit == pending_right_.end()) return;

  Tuple result;
  result.trace = lit->second.trace != 0 ? lit->second.trace : rit->second.trace;
  result.values.reserve(1 + config_.left_passthrough.size() +
                        config_.right_passthrough.size());
  result.values.emplace_back(std::uint64_t{id});
  for (const auto idx : config_.left_passthrough) {
    result.values.push_back(lit->second.at(idx));
  }
  for (const auto idx : config_.right_passthrough) {
    result.values.push_back(rit->second.at(idx));
  }
  pending_left_.erase(lit);
  pending_right_.erase(rit);
  out.emit(std::move(result));
}

void GroupAggBolt::execute(Tuple&& input, Collector&) {
  std::string key;
  std::vector<Value> group_values;
  group_values.reserve(config_.group_indices.size());
  for (const auto idx : config_.group_indices) {
    key += format_value(input.at(idx));
    key += '\x1f';
    group_values.push_back(input.at(idx));
  }

  auto [it, inserted] = groups_.try_emplace(key);
  Agg& agg = it->second;
  if (inserted) agg.group_values = std::move(group_values);

  double v = 0;
  if (config_.op != AggOp::count) v = as_number(input.at(config_.value_index));
  if (agg.count == 0) {
    agg.max = agg.min = v;
  } else {
    agg.max = std::max(agg.max, v);
    agg.min = std::min(agg.min, v);
  }
  agg.sum += v;
  ++agg.count;
  agg.trace = std::max(agg.trace, input.trace);
  report_window();
}

void GroupAggBolt::report_window() {
  const auto current = static_cast<std::int64_t>(groups_.size());
  if (window_gauge_ != nullptr) window_gauge_->add(current - last_window_);
  last_window_ = current;
}

void GroupAggBolt::emit_groups(Collector& out) {
  for (const auto& [key, agg] : groups_) {
    if (agg.count == 0) continue;
    double result = 0;
    switch (config_.op) {
      case AggOp::sum: result = agg.sum; break;
      case AggOp::avg: result = agg.sum / static_cast<double>(agg.count); break;
      case AggOp::max: result = agg.max; break;
      case AggOp::min: result = agg.min; break;
      case AggOp::count: result = static_cast<double>(agg.count); break;
    }
    Tuple t;
    t.values = agg.group_values;
    t.values.emplace_back(result);
    t.values.emplace_back(std::uint64_t{agg.count});
    t.trace = agg.trace;
    out.emit(std::move(t));
  }
  if (config_.reset_after_emit) {
    groups_.clear();
    report_window();
  }
}

void GroupAggBolt::tick(common::Timestamp, Collector& out) {
  if (config_.emit_on_tick) emit_groups(out);
}

void GroupAggBolt::cleanup(common::Timestamp, Collector& out) {
  if (!config_.emit_on_tick || config_.reset_after_emit) emit_groups(out);
}

}  // namespace netalytics::stream
