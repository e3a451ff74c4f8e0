// Time. Everything that decides results runs on virtual nanoseconds (the
// engine, the use-case emulations, the placement simulator), so runs are
// deterministic; the one wall clock below is for instrumentation only.
#pragma once

#include <chrono>
#include <cstdint>

namespace netalytics::common {

/// Nanoseconds since an arbitrary epoch.
using Timestamp = std::uint64_t;
/// Nanosecond duration.
using Duration = std::uint64_t;

constexpr Duration kMicrosecond = 1'000;
constexpr Duration kMillisecond = 1'000'000;
constexpr Duration kSecond = 1'000'000'000;

constexpr double to_seconds(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr double to_millis(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
constexpr Duration from_seconds(double s) noexcept {
  return static_cast<Duration>(s * static_cast<double>(kSecond));
}
constexpr Duration from_millis(double ms) noexcept {
  return static_cast<Duration>(ms * static_cast<double>(kMillisecond));
}

/// Monotonic wall clock in nanoseconds. Only instrumentation reads it (the
/// opt-in executor stage profiler); virtual-time paths never do.
inline Timestamp wall_now_ns() noexcept {
  return static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace netalytics::common
