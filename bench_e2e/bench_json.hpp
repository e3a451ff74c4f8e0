// One small JSON writer for bench result files: objects, arrays, escaped
// strings and numbers, plus the per-metric repetition summary
// (n/best/median/min/max/spread) every result file carries so a reader can
// tell a real difference from run-to-run noise. Doubles print with 17
// significant digits — a result file keeps every digit that was measured.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace bench_json {

class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  /// Object member name; the next value() or begin_*() is its value.
  Writer& key(std::string_view k) {
    separate();
    append_string(k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  Writer& value(std::string_view s) {
    separate();
    append_string(s);
    return *this;
  }
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  /// Non-finite values have no JSON spelling and print as null.
  Writer& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }

  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const noexcept { return out_; }

  /// Write the document (plus a trailing newline) to `path`.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size() &&
                    std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  Writer& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Writer& close(char c) {
    first_.pop_back();
    out_ += c;
    return *this;
  }
  /// Comma between siblings; nothing between a key and its value.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }
  void append_string(std::string_view s) {
    out_ += '"';
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += ch;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_ = false;
};

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Repetition summary of one metric. `best` is the max for higher-is-better
/// metrics and the min otherwise; `spread` is the interquartile range as a
/// share of the median — the noise band a comparison has to beat.
struct Summary {
  std::size_t n = 0;
  double best = 0;
  double median = 0;
  double min = 0;
  double max = 0;
  double spread = 0;
};

inline Summary summarize(const std::vector<double>& reps, bool higher_is_better) {
  Summary s;
  if (reps.empty()) return s;
  s.n = reps.size();
  s.min = *std::min_element(reps.begin(), reps.end());
  s.max = *std::max_element(reps.begin(), reps.end());
  s.best = higher_is_better ? s.max : s.min;
  s.median = quantile(reps, 0.5);
  const double iqr = quantile(reps, 0.75) - quantile(reps, 0.25);
  s.spread = s.median != 0 ? iqr / std::fabs(s.median) : 0;
  return s;
}

inline Writer& write_summary(Writer& w, const Summary& s) {
  return w.begin_object()
      .field("n", s.n)
      .field("best", s.best)
      .field("median", s.median)
      .field("min", s.min)
      .field("max", s.max)
      .field("spread", s.spread)
      .end_object();
}

}  // namespace bench_json
