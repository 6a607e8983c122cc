#pragma once
// Bounded LRU cache of sorters keyed by request shape (channels, bits).
// Building a sorter (its comparator network) costs up to a few
// milliseconds — done once per shape, then every micro-batch of that
// shape reuses the same sorter. With arbitrary-shape serving
// (nets/compose/) the shape space is unbounded, so the pool is a cache,
// not a registry: `capacity` bounds the number of sorters kept resident
// and the least-recently-used *idle* shape is evicted when a new shape
// would exceed it (capacity 0 = unbounded, the historical behavior).
//
// Idle means built and referenced by nobody outside the cache: an entry
// whose sorter is held by an in-flight batch group or a queued shard is
// never evicted (the shared_ptr keeps the program alive for them either
// way — eviction only drops the cache's reference). If every resident
// entry is busy the pool runs over capacity until batches drain: a soft
// bound, never an error.
//
// Concurrency: the first thread to request a shape builds it outside the
// map lock; others requesting the same shape wait on a shared_future, and
// requests for *other* shapes are never stalled by an in-flight build.
// Construction failures are reported as StatusOr (kInvalidArgument for
// degenerate shapes, kUnimplemented beyond the configured construction
// bound, kResourceExhausted for a shape whose elaborated netlist NodeId
// could not index, checked without elaborating, or an allocation failure,
// kInternal for other build failures) — never as
// exceptions escaping into a serve worker.
//
// With a registry, the pool publishes one labeled series family per shape
// (pool_batches_total / pool_rounds_total / pool_execute_ns, all labeled
// {channels="C",bits="B"}), a pool_build_ns gauge per shape (one-shot
// build cost), the cache series pool_hits_total / pool_misses_total /
// pool_evictions_total, and the pool_shapes / pool_capacity gauges.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "mcsn/sorter.hpp"
#include "mcsn/util/metrics_registry.hpp"

namespace mcsn {

class SorterPool {
 public:
  /// `capacity` bounds resident compiled shapes (0 = unbounded).
  explicit SorterPool(McSorterOptions opt = {},
                      MetricsRegistry* registry = nullptr,
                      std::size_t capacity = 0);

  /// The pooled sorter for (channels, bits), building it on first use and
  /// evicting the least-recently-used idle shape when over capacity.
  /// Returns the construction failure as a Status (no cache entry is left
  /// behind); the success result is shared and immutable — McSorter's
  /// const batch API is safe for concurrent use, and an evicted program
  /// stays alive for holders of the shared_ptr.
  [[nodiscard]] StatusOr<std::shared_ptr<const McSorter>> acquire(
      int channels, std::size_t bits);

  /// Per-shape warmup observer: (shape, build status, build nanoseconds).
  using WarmupObserver =
      std::function<void(const SortShape&, const Status&, std::uint64_t)>;

  /// Pre-builds every shape in order (cache hits cost ~nothing), invoking
  /// `observe` per shape when set. Returns the first failure status but
  /// still attempts the remaining shapes.
  Status warmup(std::span<const SortShape> shapes,
                const WarmupObserver& observe = {});

  /// Records one executed batch of `rounds` lanes for this shape: bumps
  /// the shape's batch/round counters and its execute-latency histogram.
  /// No-op without a registry or for a shape never acquired.
  void record_batch(int channels, std::size_t bits, std::size_t rounds,
                    std::uint64_t execute_ns) noexcept;

  /// Number of distinct shapes resident (built or building).
  [[nodiscard]] std::size_t size() const;

  /// The configured bound (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Shapes evicted so far (also a registry counter when one is set).
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  using Key = std::pair<int, std::size_t>;
  using Result = StatusOr<std::shared_ptr<const McSorter>>;

  struct CacheEntry {
    std::shared_future<Result> future;
    /// The cache's own reference, set once the build succeeds. Idleness
    /// test: ready and nobody but the cache (entry + future shared state)
    /// holds the sorter.
    std::shared_ptr<const McSorter> sorter;
    bool ready = false;
    std::list<Key>::iterator lru;  // position in lru_ (front = coldest)
  };

  /// Registry handles for one shape, created when its build starts.
  /// Retained across eviction so in-flight batches of an evicted shape
  /// still record (registry series persist regardless).
  struct ShapeSeries {
    Counter* batches = nullptr;
    Counter* rounds = nullptr;
    AtomicHistogram* execute_ns = nullptr;
  };

  /// Never throws; maps construction failures to Status.
  [[nodiscard]] Result build_sorter(int channels, std::size_t bits) const;

  /// Drops cold idle entries until size() <= capacity_ or none qualify.
  void evict_idle_locked();

  McSorterOptions opt_;
  MetricsRegistry* registry_ = nullptr;
  std::size_t capacity_ = 0;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* eviction_counter_ = nullptr;
  mutable std::mutex mu_;
  std::list<Key> lru_;
  std::map<Key, CacheEntry> cache_;
  std::map<Key, ShapeSeries> series_;
  std::uint64_t evictions_ = 0;
};

}  // namespace mcsn
