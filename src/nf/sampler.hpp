// Flow-hash sampling (§3.3): "a sampling rate to apply at the monitor can
// be specified, which is enforced by hashing each packet's n-tuple to do
// sampling by flow, not packet". The feedback-driven sampling loop (§4.2)
// adjusts the rate between packets, on the monitor's own thread.
#pragma once

#include <cstdint>

namespace netalytics::nf {

class FlowSampler {
 public:
  explicit FlowSampler(double rate = 1.0, std::uint64_t seed = 0x5eed) noexcept
      : seed_(seed) {
    set_rate(rate);
  }

  /// Keep a packet iff its (bidirectional) flow hash falls under the rate
  /// threshold — all packets of a flow share the same fate.
  bool keep(std::uint64_t flow_hash) const noexcept {
    const std::uint64_t t = threshold_;
    if (t == ~std::uint64_t{0}) return true;  // sampling disabled
    // Re-mix with the sampler seed so the decision is independent of any
    // other use of the flow hash (e.g. parser-instance dispatch).
    return common_mix(flow_hash ^ seed_) <= t;
  }

  void set_rate(double rate) noexcept {
    if (rate >= 1.0) {
      threshold_ = ~std::uint64_t{0};
    } else if (rate <= 0.0) {
      threshold_ = 0;
    } else {
      threshold_ = static_cast<std::uint64_t>(rate * 18446744073709551615.0);
    }
  }

  double rate() const noexcept {
    const std::uint64_t t = threshold_;
    if (t == ~std::uint64_t{0}) return 1.0;
    return static_cast<double>(t) / 18446744073709551615.0;
  }

  /// Multiplicative decrease / additive increase used by the backpressure
  /// loop: halve under overload, recover slowly when healthy.
  void decrease() noexcept { set_rate(rate() * 0.5); }
  void increase(double step = 0.05, double cap = 1.0) noexcept {
    const double r = rate() + step;
    set_rate(r > cap ? cap : r);
  }

 private:
  static constexpr std::uint64_t common_mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t threshold_ = ~std::uint64_t{0};
  const std::uint64_t seed_;
};

}  // namespace netalytics::nf
