#pragma once
// Log-bucketed histogram for latency/size distributions (HDR-style, fixed
// memory): exact below 8, then 8 linear sub-buckets per power of two, giving
// a worst-case quantile error of one part in 16 (~6%). Values are plain
// uint64 — the caller picks the unit (the serve subsystem records
// nanoseconds and reports microseconds).
//
// Not internally synchronized: keep one per thread and merge(), or record
// through AtomicHistogram (util/metrics_registry.hpp) and snapshot().

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcsn {

class Histogram {
 public:
  void record(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  /// Exact sum of every recorded value.
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Upper bound of the bucket holding the q-quantile (q in [0, 1]).
  /// Exact for values < 8; within 1/16 relative error above. 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  void merge(const Histogram& other) noexcept;
  void reset() noexcept;

  /// JSON object {"count":..,"min":..,"p50":..,"p90":..,"p99":..,"max":..,
  /// "mean":..}, values divided by `unit` (e.g. 1000 to report recorded
  /// nanoseconds as microseconds). Numbers carry 16 significant digits,
  /// so every integer up to 2^53 prints exactly.
  [[nodiscard]] std::string json(double unit = 1.0) const;

 private:
  // AtomicHistogram (util/metrics_registry.hpp) shares this exact bucket
  // layout so its lock-free recordings snapshot into a plain Histogram
  // without translation.
  friend class AtomicHistogram;

  // Buckets 0..7 hold values 0..7 exactly; above that, 8 sub-buckets per
  // binary order of magnitude: value with bit width e >= 4 lands in
  // 8 + (e - 4) * 8 + (next 3 bits below the leading bit).
  static constexpr std::size_t kBuckets = 8 + (64 - 3) * 8;
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t b) noexcept;

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace mcsn
