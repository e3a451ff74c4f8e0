// Bounded multi-producer/multi-consumer queue with blocking and
// non-blocking operations. Used off the packet hot path: the free-running
// executor's task inboxes. Mutex-based by design; nothing that uses it has
// shown a lock-free structure to pay off.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace netalytics::common {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Blocking push; returns false if the queue was closed.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T value) {
    std::lock_guard lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push that leaves `value` intact on failure, so callers
  /// can retry (or reroute) the same item. try_push() takes by value and
  /// destroys the item either way; a retry loop needs this variant.
  bool try_push_keep(T& value) {
    std::lock_guard lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; empty optional means closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Pop with timeout; empty optional on timeout or closed-and-drained.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return !items_.empty() || closed_; })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// After close(), pushes fail and pops drain the remaining items.
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace netalytics::common
