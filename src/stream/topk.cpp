#include "stream/topk.hpp"

namespace netalytics::stream {

void DatabaseBolt::execute(Tuple&& input, Collector& out) {
  // Input: [rank, key, count] from the total ranker.
  const auto rank = as_u64(input.at(0));
  const auto& key = as_str(input.at(1));
  const auto count = as_u64(input.at(2));
  store_.hset("topk", key, std::to_string(count));
  store_.set("topk:rank:" + std::to_string(rank), key);
  out.emit(std::move(input));
}

void UpdaterBolt::execute(Tuple&& input, Collector&) {
  const auto& key = as_str(input.at(1));
  const auto count = as_u64(input.at(2));
  if (count > window_peak_) {
    window_peak_ = count;
    peak_key_ = key;
  }
}

void UpdaterBolt::tick(common::Timestamp now, Collector&) {
  if (now >= next_allowed_action_ && !peak_key_.empty()) {
    if (window_peak_ >= config_.upper_threshold) {
      if (on_scale_up_) on_scale_up_(peak_key_, window_peak_);
      next_allowed_action_ = now + config_.backoff;
    } else if (window_peak_ < config_.lower_threshold) {
      if (on_scale_down_) on_scale_down_(peak_key_, window_peak_);
      next_allowed_action_ = now + config_.backoff;
    }
  }
  window_peak_ = 0;
  peak_key_.clear();
}

}  // namespace netalytics::stream
