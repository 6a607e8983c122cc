#pragma once
// Process-wide observability primitives: named counters, gauges and
// log-bucketed histograms, registered once (cold path, mutex-guarded) and
// recorded through stable handles (hot path, relaxed atomics — no locks,
// no allocation). One MetricsRegistry is shared by every serving layer
// (SortService, MicroBatcher, SorterPool, SocketServer), replacing the
// per-subsystem ad-hoc stat structs with one coherent namespace:
//
//   MetricsRegistry reg;
//   Counter& hits = reg.counter("cache_hits_total");         // once
//   hits.add();                                              // per event
//   AtomicHistogram& lat = reg.histogram("stage_queue_ns");
//   lat.record(ns);
//
//   reg.json();        // {"cache_hits_total": 1, "stage_queue_ns": {...}}
//   reg.prometheus();  // text exposition (counter/gauge/summary)
//
// Series identity is (kind, name, sorted labels); registering the same
// series twice returns the same handle, so subsystems that share a
// registry share the series. Handles stay valid for the registry's
// lifetime (storage is never moved after registration).
//
// Consistency: recordings are relaxed atomics, so a snapshot taken under
// concurrent traffic is a near-point-in-time view, not a linearizable
// cut — each series is itself consistent (a histogram's quantiles are
// computed from one coherent bucket sweep), and cross-series skew is
// bounded by the writes in flight during the sweep.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mcsn/util/histogram.hpp"

namespace mcsn {

/// Monotonic event counter. add() is wait-free: each thread lands on one
/// of kShards cache-line-padded atomics (stable per-thread slot), so
/// concurrent hot-path increments never contend on one line.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shard().fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards. Monotone between calls as long as no shard
  /// wraps (2^64 events).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static constexpr std::size_t kShards = 8;

  [[nodiscard]] std::atomic<std::uint64_t>& shard() noexcept;

  Shard shards_[kShards];
};

/// Point-in-time signed quantity (queue depths, open shards).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) noexcept { v_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Histogram with the exact bucket layout of util/histogram.hpp, but
/// recordable from any number of threads without locks: bucket/count/sum
/// increments are relaxed fetch_adds, min/max are CAS loops. snapshot()
/// materializes a plain Histogram for quantiles/JSON on the cold path.
class AtomicHistogram {
 public:
  void record(std::uint64_t value) noexcept;

  /// Near-point-in-time copy; count is derived from the bucket sweep so
  /// quantile ranks are internally consistent.
  [[nodiscard]] Histogram snapshot() const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[Histogram::kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  /// Label set of one series, e.g. {{"loop", "0"}}. Keys and values must
  /// be Prometheus-safe (keys [a-zA-Z_][a-zA-Z0-9_]*; values free text —
  /// they are escaped on exposition). Order is irrelevant (sorted on
  /// registration).
  using Labels = std::vector<std::pair<std::string, std::string>>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the reference stays valid for the registry's
  /// lifetime. Names follow Prometheus conventions ([a-z0-9_], counters
  /// suffixed _total, histograms suffixed with their unit, e.g. _ns).
  [[nodiscard]] Counter& counter(const std::string& name, Labels labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, Labels labels = {});
  [[nodiscard]] AtomicHistogram& histogram(const std::string& name,
                                           Labels labels = {});

  enum class Kind { counter, gauge, histogram };

  /// One series' state at snapshot time.
  struct Series {
    std::string name;
    Labels labels;  // sorted by key
    Kind kind = Kind::counter;
    std::uint64_t counter_value = 0;
    std::int64_t gauge_value = 0;
    Histogram histogram;

    /// "name" or "name{k1=\"v1\",k2=\"v2\"}" — the exposition identity.
    [[nodiscard]] std::string key() const;
  };

  /// Every registered series, deterministically ordered (by name, then
  /// labels, counters/gauges/histograms interleaved alphabetically).
  [[nodiscard]] std::vector<Series> snapshot() const;

  /// Sum over the counter series named `name` whose labels include every
  /// pair in `match` (e.g. all loops of socket_requests_total); nullopt
  /// when no such series is registered. Read-only: unlike counter(), a
  /// misspelled name registers nothing and does not read as 0.
  [[nodiscard]] std::optional<std::uint64_t> counter_total(
      const std::string& name, const Labels& match = {}) const;

  /// Flat JSON object keyed by Series::key(): counters/gauges as numbers,
  /// histograms as {"count","min","p50","p90","p99","max","mean"}
  /// objects (values in the series' recorded unit). Locale-independent.
  [[nodiscard]] std::string json() const;

  /// Prometheus text exposition: counters/gauges as single samples,
  /// histograms summary-style (quantile-labeled samples plus _sum and
  /// _count), every sample an exact integer. One # TYPE line per metric
  /// name.
  [[nodiscard]] std::string prometheus() const;

 private:
  struct Slot {
    std::string name;
    Labels labels;
    Kind kind = Kind::counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<AtomicHistogram> histogram;
  };

  [[nodiscard]] Slot& slot(Kind kind, const std::string& name, Labels labels);

  mutable std::mutex mu_;
  /// Keyed by kind-prefixed series key so lookups are exact; std::map
  /// gives the deterministic exposition order for free.
  std::map<std::string, Slot> series_;
};

}  // namespace mcsn
