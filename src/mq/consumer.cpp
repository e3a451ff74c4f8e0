#include "mq/consumer.hpp"

namespace netalytics::mq {

Consumer::Consumer(Cluster& cluster, std::string group)
    : cluster_(cluster),
      group_(std::move(group)),
      member_(cluster_.coordinator().join(group_)) {}

Consumer::~Consumer() { leave(); }

FetchBatch Consumer::poll_batch(std::string_view topic, std::size_t max) {
  // A departed member owns no partitions — it must not fall back to the
  // cluster's member-less read-everything path, which would double-deliver
  // against the survivors' shared cursors.
  if (member_ == 0) return {};
  auto out = cluster_.poll_batch(group_, topic, max, member_);
  consumed_ += out.records.size();
  return out;
}

void Consumer::leave() {
  if (member_ == 0) return;
  cluster_.coordinator().leave(group_, member_);
  member_ = 0;
}

void Consumer::rejoin() {
  if (member_ != 0) return;
  member_ = cluster_.coordinator().join(group_);
}

}  // namespace netalytics::mq
