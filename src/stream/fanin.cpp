#include "stream/fanin.hpp"

#include <stdexcept>

namespace netalytics::stream {

FanInTopK::FanInTopK(std::size_t sources, std::size_t k)
    : counts_(sources), k_(k == 0 ? 1 : k) {
  if (sources == 0) {
    throw std::invalid_argument("FanInTopK: sources must be > 0");
  }
}

void FanInTopK::add(std::size_t source, const std::string& key,
                    std::uint64_t by) {
  counts_.at(source)[key] += by;
  updates_ += 1;
}

const std::map<std::string, std::uint64_t>& FanInTopK::local(
    std::size_t source) const {
  return counts_.at(source);
}

Rankings FanInTopK::global() const {
  // Child-index merge order (docs/FEDERATION.md). The sum itself is
  // commutative; the ordered walk makes the fold — and anything a future
  // non-commutative consumer hangs off it — reproducible by construction.
  std::map<std::string, std::uint64_t> total;
  for (const auto& source : counts_) {
    for (const auto& [key, count] : source) total[key] += count;
  }
  Rankings r(k_);
  for (const auto& [key, count] : total) r.update(key, count);
  return r;
}

std::string FanInTopK::render() const {
  std::string out;
  std::uint64_t rank = 1;
  const Rankings ranked = global();
  for (const auto& e : ranked.entries()) {
    out += std::to_string(rank++);
    out += ' ';
    out += e.key;
    out += ' ';
    out += std::to_string(e.count);
    out += '\n';
  }
  return out;
}

}  // namespace netalytics::stream
