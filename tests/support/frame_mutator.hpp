// Seeded frame mutations for robustness tests: byte flips, truncations,
// splices and false IPv4 / TCP length fields. Every draw comes from a
// common::Rng, so a seed replays the same mutants. Frames are untagged
// Ethernet + IPv4, as pktgen builds them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace netalytics::fuzz {

inline constexpr std::size_t kIpv4Offset = 14;  // untagged Ethernet

/// One header mutation of `b`: a byte flip inside the IPv4/TCP headers, a
/// truncation, or a false IPv4 total_length / ihl or TCP data_offset. A
/// frame too short to carry those fields is truncated further instead.
inline void mutate_headers(std::vector<std::byte>& b, common::Rng& rng) {
  constexpr std::size_t kIp = kIpv4Offset;
  if (b.size() < kIp + 4) {
    b.resize(rng.uniform(0, b.size()));
    return;
  }
  const auto ihl_bytes = [&b] {
    return static_cast<std::size_t>(static_cast<std::uint8_t>(b[kIp]) & 0x0f) * 4;
  };
  switch (rng.uniform(0, 4)) {
    case 0: {  // flip a byte in the IPv4 + TCP headers
      const std::size_t hi = std::min(b.size(), kIp + 60);
      const std::size_t at = rng.uniform(kIp, hi - 1);
      b[at] ^= static_cast<std::byte>(rng.uniform(1, 255));
      break;
    }
    case 1:  // truncate anywhere, down to an empty frame
      b.resize(rng.uniform(0, b.size() - 1));
      break;
    case 2: {  // false total_length
      const auto len = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
      b[kIp + 2] = static_cast<std::byte>(len >> 8);
      b[kIp + 3] = static_cast<std::byte>(len & 0xff);
      break;
    }
    case 3:  // false ihl
      b[kIp] = static_cast<std::byte>(0x40 | rng.uniform(0, 15));
      break;
    default: {  // false TCP data_offset
      const std::size_t off = kIp + ihl_bytes() + 12;
      if (off < b.size()) {
        b[off] = static_cast<std::byte>(rng.uniform(0, 15) << 4);
      }
      break;
    }
  }
}

/// Flip one byte anywhere in `b`, payload included. No-op on an empty frame.
inline void flip_byte(std::vector<std::byte>& b, common::Rng& rng) {
  if (b.empty()) return;
  b[rng.uniform(0, b.size() - 1)] ^= static_cast<std::byte>(rng.uniform(1, 255));
}

/// Cut `b` at a random point and append a random slice of `donor` there, so
/// one frame's headers run into another frame's bytes.
inline void splice(std::vector<std::byte>& b, std::span<const std::byte> donor,
                   common::Rng& rng) {
  b.resize(rng.uniform(0, b.size()));
  if (donor.empty()) return;
  const std::size_t from = rng.uniform(0, donor.size() - 1);
  const std::size_t len = rng.uniform(1, donor.size() - from);
  b.insert(b.end(), donor.begin() + static_cast<std::ptrdiff_t>(from),
           donor.begin() + static_cast<std::ptrdiff_t>(from + len));
}

}  // namespace netalytics::fuzz
