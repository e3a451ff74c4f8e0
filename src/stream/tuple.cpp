#include "stream/tuple.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "common/hash.hpp"

namespace netalytics::stream {

std::uint64_t hash_value(const Value& v) noexcept {
  return std::visit(
      [](const auto& x) -> std::uint64_t {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          return common::mix64(static_cast<std::uint64_t>(x) ^ 0x11);
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
          return common::mix64(x ^ 0x22);
        } else if constexpr (std::is_same_v<T, double>) {
          return common::mix64(std::bit_cast<std::uint64_t>(x) ^ 0x33);
        } else {
          return common::fnv1a64(std::string_view(x));
        }
      },
      v);
}

std::uint64_t hash_fields(const Tuple& t, const std::vector<std::size_t>& indices) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::size_t i : indices) {
    h = common::hash_combine(h, hash_value(t.at(i)));
  }
  return h;
}

std::string_view format_value(const Value& v, ValueText& buf) noexcept {
  return std::visit(
      [&buf](const auto& x) -> std::string_view {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return x;
        } else if constexpr (std::is_same_v<T, double>) {
          const int n = std::snprintf(buf.data(), buf.size(), "%.4f", x);
          return {buf.data(), std::min<std::size_t>(static_cast<std::size_t>(n),
                                                    buf.size() - 1)};
        } else {
          const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), x);
          return {buf.data(), static_cast<std::size_t>(res.ptr - buf.data())};
        }
      },
      v);
}

std::string format_value(const Value& v) {
  ValueText buf;
  return std::string(format_value(v, buf));
}

std::string format_tuple(const Tuple& t) {
  std::string out = "(";
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    if (std::holds_alternative<std::string>(t.values[i])) {
      out += '"' + format_value(t.values[i]) + '"';
    } else {
      out += format_value(t.values[i]);
    }
  }
  out += ")";
  return out;
}

double as_number(const Value& v) {
  return std::visit(
      [](const auto& x) -> double {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          throw std::invalid_argument("as_number: value is a string");
        } else {
          return static_cast<double>(x);
        }
      },
      v);
}

}  // namespace netalytics::stream
