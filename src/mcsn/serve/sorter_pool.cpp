#include "mcsn/serve/sorter_pool.hpp"

#include <chrono>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>

namespace mcsn {

namespace {

MetricsRegistry::Labels shape_labels(int channels, std::size_t bits) {
  return {{"channels", std::to_string(channels)},
          {"bits", std::to_string(bits)}};
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

SorterPool::SorterPool(McSorterOptions opt, MetricsRegistry* registry,
                       std::size_t capacity)
    : opt_(std::move(opt)), registry_(registry), capacity_(capacity) {
  if (registry_ != nullptr) {
    // Registered eagerly so the cache series exist (at zero) from the
    // first scrape — check_metrics.py asserts their presence.
    hits_ = &registry_->counter("pool_hits_total");
    misses_ = &registry_->counter("pool_misses_total");
    eviction_counter_ = &registry_->counter("pool_evictions_total");
    registry_->gauge("pool_capacity")
        .set(static_cast<std::int64_t>(capacity_));
  }
}

SorterPool::Result SorterPool::build_sorter(int channels,
                                            std::size_t bits) const {
  if (channels < 1 || bits < 1) {
    return Status::invalid_argument(
        "sorter build failed: channels and bits must be >= 1 (got " +
        std::to_string(channels) + "x" + std::to_string(bits) + ")");
  }
  // Construction first: cheap (comparator-level) and carries the
  // kInvalidArgument/kUnimplemented distinction the serve path maps to
  // wire error frames.
  StatusOr<BuiltNetwork> built =
      NetworkBuilder(builder_options(opt_)).build(channels);
  if (!built.ok()) return built.status();
  try {
    return std::make_shared<const McSorter>(std::move(*built), bits, opt_);
  } catch (const std::bad_alloc&) {
    // A legal-but-huge shape can exhaust memory while its network is
    // built; that is a resource condition (possibly transient), not a
    // caller error.
    return Status::resource_exhausted("sorter build failed: out of memory");
  } catch (const std::length_error& e) {
    // A shape whose netlist() NodeId could not index, refused from its
    // node count before any netlist is elaborated.
    return Status::resource_exhausted(std::string("sorter build failed: ") +
                                      e.what());
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(std::string("sorter build failed: ") +
                                    e.what());
  } catch (const std::exception& e) {
    return Status::internal(std::string("sorter build failed: ") + e.what());
  }
}

StatusOr<std::shared_ptr<const McSorter>> SorterPool::acquire(
    int channels, std::size_t bits) {
  const Key key{channels, bits};
  std::promise<Result> building;
  std::shared_future<Result> fut;
  bool builder = false;
  {
    std::lock_guard lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      // Touch: move to the hot end of the LRU order.
      lru_.splice(lru_.end(), lru_, it->second.lru);
      if (hits_ != nullptr) hits_->add();
      fut = it->second.future;
    } else {
      if (misses_ != nullptr) misses_->add();
      fut = building.get_future().share();
      CacheEntry entry;
      entry.future = fut;
      lru_.push_back(key);
      entry.lru = std::prev(lru_.end());
      cache_.emplace(key, std::move(entry));
      builder = true;
    }
  }
  if (!builder) return fut.get();

  // Build outside the lock: concurrent requests for this shape wait on
  // the future; other shapes proceed unimpeded.
  const auto start = std::chrono::steady_clock::now();
  Result result = build_sorter(channels, bits);
  const std::uint64_t build_ns = elapsed_ns(start);
  building.set_value(result);

  if (result.ok() && registry_ != nullptr) {
    const auto labels = shape_labels(channels, bits);
    registry_->gauge("pool_build_ns", labels)
        .set(static_cast<std::int64_t>(build_ns));
    ShapeSeries series;
    series.batches = &registry_->counter("pool_batches_total", labels);
    series.rounds = &registry_->counter("pool_rounds_total", labels);
    series.execute_ns = &registry_->histogram("pool_execute_ns", labels);
    std::lock_guard lock(mu_);
    series_.emplace(key, series);
  }

  std::lock_guard lock(mu_);
  const auto it = cache_.find(key);
  if (!result.ok()) {
    // Don't cache the failure; waiters still see it through the future.
    if (it != cache_.end()) {
      lru_.erase(it->second.lru);
      cache_.erase(it);
    }
    return result;
  }
  if (it != cache_.end()) {
    it->second.ready = true;
    it->second.sorter = *result;
  }
  evict_idle_locked();
  if (registry_ != nullptr) {
    registry_->gauge("pool_shapes")
        .set(static_cast<std::int64_t>(cache_.size()));
  }
  return result;
}

void SorterPool::evict_idle_locked() {
  if (capacity_ == 0) return;
  auto it = lru_.begin();
  while (cache_.size() > capacity_ && it != lru_.end()) {
    const auto entry = cache_.find(*it);
    // Skip entries still building and entries whose sorter is referenced
    // outside the cache. The cache holds exactly two references — the
    // entry's shared_ptr and the copy stored inside the future's shared
    // state — so use_count() > 2 means a batch group, shard, or caller
    // still holds the program.
    if (entry == cache_.end() || !entry->second.ready ||
        entry->second.sorter.use_count() > 2) {
      ++it;
      continue;
    }
    cache_.erase(entry);
    it = lru_.erase(it);
    ++evictions_;
    if (eviction_counter_ != nullptr) eviction_counter_->add();
  }
}

Status SorterPool::warmup(std::span<const SortShape> shapes,
                          const WarmupObserver& observe) {
  Status first;
  for (const SortShape& shape : shapes) {
    const auto start = std::chrono::steady_clock::now();
    const Result result = acquire(shape.channels, shape.bits);
    const std::uint64_t build_ns = elapsed_ns(start);
    const Status status = result.ok() ? Status() : result.status();
    if (observe) observe(shape, status, build_ns);
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

void SorterPool::record_batch(int channels, std::size_t bits,
                              std::size_t rounds,
                              std::uint64_t execute_ns) noexcept {
  if (registry_ == nullptr) return;
  ShapeSeries series;
  {
    std::lock_guard lock(mu_);
    const auto it = series_.find(Key{channels, bits});
    if (it == series_.end()) return;
    series = it->second;
  }
  series.batches->add();
  series.rounds->add(rounds);
  series.execute_ns->record(execute_ns);
}

std::size_t SorterPool::size() const {
  std::lock_guard lock(mu_);
  return cache_.size();
}

std::uint64_t SorterPool::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

}  // namespace mcsn
