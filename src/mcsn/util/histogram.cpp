#include "mcsn/util/histogram.hpp"

#include <algorithm>
#include <bit>
#include <locale>
#include <sstream>

namespace mcsn {

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  if (v < 8) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v);  // >= 4
  const std::uint64_t sub = (v >> (e - 4)) & 7;
  return 8 + static_cast<std::size_t>(e - 4) * 8 +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_upper(std::size_t b) noexcept {
  if (b < 8) return b;
  const std::size_t off = b - 8;
  const int e = 4 + static_cast<int>(off / 8);
  const std::uint64_t sub = off % 8;
  const std::uint64_t lower =
      (std::uint64_t{1} << (e - 1)) | (sub << (e - 4));
  return lower + ((std::uint64_t{1} << (e - 4)) - 1);
}

void Histogram::record(std::uint64_t value) noexcept {
  ++buckets_[bucket_of(value)];
  ++count_;
  sum_ += value;
  min_ = count_ == 1 ? value : std::min(min_, value);
  max_ = std::max(max_, value);
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile, 1-based; walk the cumulative counts.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return std::min(bucket_upper(b), max_);
  }
  return max_;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() noexcept { *this = Histogram{}; }

std::string Histogram::json(double unit) const {
  const auto scaled = [unit](std::uint64_t v) {
    return static_cast<double>(v) / unit;
  };
  std::ostringstream os;
  // A default-constructed stream inherits the global locale; under e.g. a
  // de_DE locale that means digit grouping and decimal commas — invalid
  // JSON. Always emit in the locale-independent "C" form.
  os.imbue(std::locale::classic());
  os.precision(16);
  os << "{\"count\": " << count_ << ", \"min\": " << scaled(min())
     << ", \"p50\": " << scaled(quantile(0.5))
     << ", \"p90\": " << scaled(quantile(0.9))
     << ", \"p99\": " << scaled(quantile(0.99))
     << ", \"max\": " << scaled(max_) << ", \"mean\": "
     << (count_ ? static_cast<double>(sum_) / static_cast<double>(count_) /
                      unit
                : 0.0)
     << "}";
  return os.str();
}

}  // namespace mcsn
