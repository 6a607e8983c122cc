// The streaming sort service: work queue semantics, sorter pooling,
// micro-batcher flush rules, and — the load-bearing property — that any
// interleaving of requests through the service yields results bit-identical
// to a direct sort_batch of the same rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <iterator>
#include <locale>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/queue.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/metrics_registry.hpp"
#include "mcsn/util/rng.hpp"
#include "mcsn/util/thread_pool.hpp"

namespace {

// Counts heap allocations of exactly `g_watched_bytes` bytes (none while it
// is 0), so a test can show that no payload-sized buffer is made.
std::atomic<std::size_t> g_watched_bytes{0};
std::atomic<std::size_t> g_watched_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  if (n != 0 && n == g_watched_bytes.load(std::memory_order_relaxed)) {
    g_watched_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcsn {

/// White-box access to the ready queue: closing it underneath a live
/// service drives the refused-push path that no public API sequence
/// reaches (the lifecycle lock orders real close() after drain), and
/// reading whether it holds items shows what flushes pass through it.
struct SortServiceTestPeer {
  static void close_ready_queue(SortService& service) {
    service.ready_.close();
  }
  static bool ready_queue_empty(const SortService& service) {
    return service.ready_.empty();
  }
};

namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

std::vector<Word> random_round(Xoshiro256& rng, int channels,
                               std::size_t bits) {
  return random_valid_round(rng, channels, bits);
}

/// Submits `round` as a SortRequest. The rounds here are valid, so a
/// factory failure fails the test (and the service answers the empty
/// request with kInvalidArgument).
std::future<SortResponse> submit_words(SortService& service,
                                       const std::vector<Word>& round) {
  StatusOr<SortRequest> request = SortRequest::from_words(round);
  EXPECT_TRUE(request.ok()) << request.status().to_string();
  return service.submit(request.ok() ? std::move(*request) : SortRequest{});
}

/// Sorts integer `values` at `bits` wide through the service; empty when
/// the request could not be built or its response failed.
std::vector<std::uint64_t> sort_values(SortService& service,
                                       const std::vector<std::uint64_t>& values,
                                       std::size_t bits) {
  StatusOr<SortRequest> request = SortRequest::from_values(
      SortShape{static_cast<int>(values.size()), bits}, values);
  EXPECT_TRUE(request.ok()) << request.status().to_string();
  if (!request.ok()) return {};
  StatusOr<std::vector<std::uint64_t>> sorted =
      service.submit(std::move(*request)).get().values();
  EXPECT_TRUE(sorted.ok()) << sorted.status().to_string();
  return sorted.ok() ? std::move(*sorted) : std::vector<std::uint64_t>{};
}

/// A counter of the service's registry, summed over the series that carry
/// `labels`; a series the service never registered fails the test.
std::uint64_t registry_counter(const SortService& service,
                               const std::string& name,
                               const MetricsRegistry::Labels& labels = {}) {
  const std::optional<std::uint64_t> total =
      service.registry().counter_total(name, labels);
  EXPECT_TRUE(total.has_value()) << name << " is not registered";
  return total.value_or(0);
}

/// A histogram of the service's registry; a series the service never
/// registered fails the test.
Histogram registry_histogram(const SortService& service,
                             const std::string& name) {
  for (const MetricsRegistry::Series& s : service.registry().snapshot()) {
    if (s.kind == MetricsRegistry::Kind::histogram && s.name == name) {
      return s.histogram;
    }
  }
  ADD_FAILURE() << name << " is not registered";
  return {};
}

PendingSort make_pending(Xoshiro256& rng, int channels, std::size_t bits,
                         Clock::time_point enqueued) {
  PendingSort pending;
  pending.request =
      std::move(SortRequest::from_words(random_round(rng, channels, bits))
                    .value());
  pending.done = [](SortResponse) {};
  pending.enqueued = enqueued;
  return pending;
}

/// `rounds` random valid rounds of `shape`, flat.
std::vector<Trit> random_rounds(Xoshiro256& rng, SortShape shape,
                                std::size_t rounds) {
  std::vector<Trit> flat;
  flat.reserve(rounds * shape.trits());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const Word& w : random_round(rng, shape.channels, shape.bits)) {
      flat.insert(flat.end(), w.begin(), w.end());
    }
  }
  return flat;
}

// --- WorkQueue --------------------------------------------------------------

TEST(WorkQueue, FifoAndDrainAfterClose) {
  WorkQueue<int> q;
  EXPECT_EQ(q.push(1), std::nullopt);
  EXPECT_EQ(q.push(2), std::nullopt);
  q.close();
  EXPECT_EQ(q.push(3), 3);  // refused after close...
  EXPECT_EQ(q.pop(), 1);    // ...but queued items still drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(WorkQueue, PopUntilTimesOutOnEmpty) {
  WorkQueue<int> q;
  const auto t0 = Clock::now();
  EXPECT_EQ(q.pop_until(t0 + 10ms), std::nullopt);
  EXPECT_GE(Clock::now() - t0, 10ms);
}

TEST(WorkQueue, CloseUnblocksWaitingConsumer) {
  WorkQueue<int> q;
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(5ms);
  q.close();
  consumer.join();
}

TEST(WorkQueue, PopUntilWithExpiredDeadline) {
  WorkQueue<int> q;
  // Empty + already-expired deadline: immediate nullopt, no wait.
  const auto past = Clock::now() - 1h;
  const auto t0 = Clock::now();
  EXPECT_EQ(q.pop_until(past), std::nullopt);
  EXPECT_LT(Clock::now() - t0, 5s);  // returned promptly, no 1h hang
  // An available item is still handed out even though the deadline passed.
  ASSERT_EQ(q.push(7), std::nullopt);
  EXPECT_EQ(q.pop_until(past), 7);
}

TEST(WorkQueue, WakesCoalesceIntoOneEarlyEmptyPop) {
  WorkQueue<int> q;
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(5ms);
  q.wake();  // interrupts the blocked consumer
  consumer.join();

  q.wake();
  q.wake();  // coalesces with the first: nothing is queued
  EXPECT_TRUE(q.empty());
  auto t0 = Clock::now();
  EXPECT_EQ(q.pop_until(t0 + 5s), std::nullopt);
  EXPECT_LT(Clock::now() - t0, 5s);  // returned at once
  t0 = Clock::now();
  EXPECT_EQ(q.pop_until(t0 + 10ms), std::nullopt);
  EXPECT_GE(Clock::now() - t0, 10ms);  // no second wake: timed out

  // Items go out before a pending wake, which then still ends a pop early.
  q.wake();
  ASSERT_EQ(q.push(7), std::nullopt);
  EXPECT_EQ(q.pop_until(Clock::now() + 5s), 7);
  t0 = Clock::now();
  EXPECT_EQ(q.pop_until(t0 + 5s), std::nullopt);
  EXPECT_LT(Clock::now() - t0, 5s);
}

TEST(WorkQueue, PushReturnsItemWhenClosed) {
  WorkQueue<std::string> q;
  EXPECT_EQ(q.push("kept"), std::nullopt);
  q.close();
  const std::optional<std::string> back = q.push("bounced");
  ASSERT_TRUE(back.has_value());  // the item survives the refusal
  EXPECT_EQ(*back, "bounced");
  EXPECT_EQ(q.pop(), "kept");
}

// --- SorterPool -------------------------------------------------------------

TEST(SorterPool, ReusesCompiledSorterPerShape) {
  SorterPool pool;
  const auto a = pool.acquire(4, 4);
  const auto b = pool.acquire(4, 4);
  const auto c = pool.acquire(6, 3);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->get(), b->get());  // same compiled instance
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ((*a)->channels(), 4);
  EXPECT_EQ((*c)->bits(), 3u);
}

TEST(SorterPool, FailedBuildIsNotCachedAndReportsStatus) {
  SorterPool pool;
  const auto bad = pool.acquire(0, 4);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire(4, 4).ok());  // pool still usable
}

TEST(SorterPool, OversizedShapeComesBackUnimplemented) {
  McSorterOptions opt;
  opt.max_channels = 16;
  SorterPool pool(opt);
  const auto result = pool.acquire(17, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire(16, 4).ok());  // at the bound is fine
}

// A shape whose netlist NodeId cannot index (4096x2048: about 6.0 x 10^9
// nodes) is refused from its node count before anything is elaborated,
// and the pool reports it as a resource condition.
TEST(SorterPool, NetlistBeyondNodeIdIsResourceExhausted) {
  SorterPool pool;
  const auto result = pool.acquire(4096, 2048);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("NodeId"), std::string::npos)
      << result.status().to_string();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire(4, 4).ok());  // pool still usable
}

TEST(SorterPool, EvictsLeastRecentlyUsedIdleShapeAtCapacity) {
  MetricsRegistry registry;
  SorterPool pool(McSorterOptions{}, &registry, /*capacity=*/2);
  ASSERT_TRUE(pool.acquire(2, 2).ok());
  ASSERT_TRUE(pool.acquire(3, 2).ok());
  EXPECT_EQ(pool.size(), 2u);
  // Touch (2,2) so (3,2) is the coldest, then overflow the capacity.
  ASSERT_TRUE(pool.acquire(2, 2).ok());
  ASSERT_TRUE(pool.acquire(4, 2).ok());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 1u);
  // (3,2) was evicted: acquiring it again is a miss (rebuild), while
  // (2,2) survived as a hit.
  const auto snapshot_misses = [&registry] {
    return registry.counter("pool_misses_total").value();
  };
  const std::uint64_t misses_before = snapshot_misses();
  ASSERT_TRUE(pool.acquire(2, 2).ok());
  EXPECT_EQ(snapshot_misses(), misses_before);
  ASSERT_TRUE(pool.acquire(3, 2).ok());
  EXPECT_EQ(snapshot_misses(), misses_before + 1);
  EXPECT_EQ(registry.counter("pool_evictions_total").value(),
            pool.evictions());
}

TEST(SorterPool, BusyShapesAreNotEvicted) {
  SorterPool pool(McSorterOptions{}, nullptr, /*capacity=*/1);
  const auto held = pool.acquire(2, 2);  // keep a reference: busy
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(pool.acquire(3, 2).ok());  // result dropped: idle
  // The busy (2,2) must survive; the pool rides over capacity instead.
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 0u);
  // Once only the cache holds (3,2), the next insertion evicts it.
  ASSERT_TRUE(pool.acquire(4, 2).ok());
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.size(), 2u);  // held (2,2) + fresh (4,2)
}

TEST(SorterPool, ConcurrentEvictWhileBusyNeverFreesARunningProgram) {
  // Hammer a capacity-1 pool from several threads across more shapes than
  // fit: every acquire of a novel shape triggers an eviction sweep while
  // other threads are mid-sort_batch_flat on entries the sweep considers.
  // The busy-entry guard (use_count > 2) must keep every running program
  // alive — a wrong eviction is a use-after-free ASan/TSan catches — and
  // the soft bound must re-tighten once the churn stops.
  MetricsRegistry registry;
  SorterPool pool(McSorterOptions{}, &registry, /*capacity=*/1);
  constexpr int kThreads = 6;
  constexpr int kIters = 24;
  const SortShape shapes[] = {{2, 3}, {3, 3}, {4, 3}, {5, 3}, {6, 3}, {7, 3}};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &shapes, &failures, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(1000 + t));
      for (int i = 0; i < kIters; ++i) {
        const SortShape shape = shapes[rng.below(std::size(shapes))];
        const auto sorter = pool.acquire(shape.channels, shape.bits);
        if (!sorter.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::vector<Trit> in;
        in.reserve(shape.trits());
        for (const Word& w :
             random_valid_round(rng, shape.channels, shape.bits)) {
          in.insert(in.end(), w.begin(), w.end());
        }
        std::vector<Trit> out(in.size());
        if (!(*sorter)->sort_batch_flat(in, out).ok()) failures.fetch_add(1);
        pool.record_batch(shape.channels, shape.bits, 1, 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // All outside references are gone now; one fresh insert sweeps the
  // backlog of idle entries down to the bound.
  ASSERT_TRUE(pool.acquire(8, 3).ok());
  EXPECT_LE(pool.size(), 1u);
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_EQ(registry.counter("pool_evictions_total").value(),
            pool.evictions());
}

TEST(SorterPool, WarmupBuildsShapesAndReportsPerShapeTiming) {
  SorterPool pool;
  std::vector<SortShape> shapes = {{2, 2}, {3, 2}};
  std::vector<std::pair<SortShape, std::uint64_t>> observed;
  const Status status = pool.warmup(
      shapes, [&observed](const SortShape& s, const Status& st,
                          std::uint64_t ns) {
        EXPECT_TRUE(st.ok());
        observed.push_back({s, ns});
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(pool.size(), 2u);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_GT(observed[0].second, 0u);
  // A failing shape reports its status but later shapes still build.
  std::vector<SortShape> mixed = {{0, 2}, {4, 2}};
  Status seen;
  const Status warm = pool.warmup(
      mixed, [&seen](const SortShape&, const Status& st, std::uint64_t) {
        if (!st.ok()) seen = st;
      });
  EXPECT_EQ(warm.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(seen.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.size(), 3u);
}

// --- MicroBatcher -----------------------------------------------------------

TEST(MicroBatcher, FlushesOnLaneFull) {
  SorterPool pool;
  const auto sorter = *pool.acquire(2, 2);
  MicroBatcher batcher(4, 1ms);
  Xoshiro256 rng(1);
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) {
    auto r = batcher.add(sorter, make_pending(rng, 2, 2, t0), t0);
    EXPECT_FALSE(r.full.has_value());
    EXPECT_EQ(r.window_started, i == 0);
  }
  auto r = batcher.add(sorter, make_pending(rng, 2, 2, t0), t0);
  ASSERT_TRUE(r.full.has_value());
  EXPECT_FALSE(r.window_started);
  EXPECT_EQ(r.full->requests.size(), 4u);
  // Payloads were staged contiguously, ready for one sort_batch_flat.
  EXPECT_EQ(r.full->flat.size(), 4u * (SortShape{2, 2}).trits());
  EXPECT_EQ(r.full->cause, FlushCause::lane_full);
  EXPECT_TRUE(batcher.empty());
}

TEST(MicroBatcher, FlushesOnWindowExpiry) {
  SorterPool pool;
  const auto sorter = *pool.acquire(2, 2);
  MicroBatcher batcher(256, 1ms);
  Xoshiro256 rng(2);
  const auto t0 = Clock::now();
  (void)batcher.add(sorter, make_pending(rng, 2, 2, t0), t0);
  (void)batcher.add(sorter, make_pending(rng, 2, 2, t0), t0 + 100us);

  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + 1ms);  // pinned to the oldest

  EXPECT_TRUE(batcher.take_expired(t0 + 999us).empty());  // not yet
  auto groups = batcher.take_expired(t0 + 1ms);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].requests.size(), 2u);
  EXPECT_EQ(groups[0].cause, FlushCause::window);
  EXPECT_TRUE(batcher.empty());
  EXPECT_FALSE(batcher.next_deadline().has_value());
}

TEST(MicroBatcher, ShardsByShapeAndDrainsAll) {
  SorterPool pool;
  MicroBatcher batcher(256, 1ms);
  Xoshiro256 rng(3);
  const auto t0 = Clock::now();
  (void)batcher.add(*pool.acquire(2, 2), make_pending(rng, 2, 2, t0), t0);
  (void)batcher.add(*pool.acquire(4, 3), make_pending(rng, 4, 3, t0), t0);
  (void)batcher.add(*pool.acquire(2, 2), make_pending(rng, 2, 2, t0), t0);
  EXPECT_EQ(batcher.pending(), 3u);

  auto groups = batcher.take_all();
  ASSERT_EQ(groups.size(), 2u);  // one per shape
  for (const auto& g : groups) {
    EXPECT_EQ(g.cause, FlushCause::drain);
    EXPECT_EQ(g.flat.size(), g.requests.size() * g.sorter->shape().trits());
    for (const auto& pending : g.requests) {
      EXPECT_EQ(pending.request.shape.channels, g.sorter->channels());
    }
  }
  EXPECT_TRUE(batcher.empty());
}

// The request that opens a shard gives it its trits: a lone 256-round
// request that solely owns its buffer is flushed in that very buffer. A
// request whose buffer a copy still shares, or a view, is copied, and the
// caller's buffer is left as it was.
TEST(MicroBatcher, StagesALoneOwnedRequestWithoutCopying) {
  SorterPool pool;
  const SortShape shape{4, 4};
  const auto sorter = *pool.acquire(shape.channels, shape.bits);
  MicroBatcher batcher(256, 1ms);
  Xoshiro256 rng(4);
  const auto t0 = Clock::now();
  const auto pending_for = [&](SortRequest request) {
    PendingSort pending;
    pending.request = std::move(request);
    pending.done = [](SortResponse) {};
    pending.enqueued = t0;
    return pending;
  };
  const auto owned_batch = [&] {
    return std::move(
        SortRequest::own_batch(shape, 256, random_rounds(rng, shape, 256))
            .value());
  };

  SortRequest owned = owned_batch();
  const Trit* const data = owned.payload.data();
  auto r = batcher.add(sorter, pending_for(std::move(owned)), t0);
  ASSERT_TRUE(r.full.has_value());
  EXPECT_EQ(r.full->flat.data(), data);
  EXPECT_EQ(r.full->flat.size(), 256 * shape.trits());

  const SortRequest shared = owned_batch();
  r = batcher.add(sorter, pending_for(shared), t0);
  ASSERT_TRUE(r.full.has_value());
  EXPECT_NE(r.full->flat.data(), shared.payload.data());
  EXPECT_TRUE(std::equal(shared.payload.begin(), shared.payload.end(),
                         r.full->flat.begin(), r.full->flat.end()));

  const std::vector<Trit> caller = random_rounds(rng, shape, 256);
  SortRequest view =
      std::move(SortRequest::view_batch(shape, 256, caller).value());
  r = batcher.add(sorter, pending_for(std::move(view)), t0);
  ASSERT_TRUE(r.full.has_value());
  EXPECT_NE(r.full->flat.data(), caller.data());
  EXPECT_EQ(r.full->flat, caller);
}

// --- SortService ------------------------------------------------------------

// The tentpole property: an arbitrary interleaving of mixed-shape requests
// through the micro-batched service is bit-identical to direct sort_batch
// calls on the same rounds — including partial final lane groups.
TEST(SortService, BatchingEquivalentToDirectSortBatch) {
  struct Shape {
    int channels;
    std::size_t bits;
    std::size_t count;
  };
  // Counts straddle lane-group boundaries: > 256 (full group + partial),
  // small partial, and an exact sub-group size.
  const std::vector<Shape> shapes = {{4, 4, 300}, {6, 5, 57}, {7, 3, 128}};

  Xoshiro256 rng(7);
  std::vector<std::vector<std::vector<Word>>> rounds(shapes.size());
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (shape, index)
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    rounds[s].reserve(shapes[s].count);
    for (std::size_t i = 0; i < shapes[s].count; ++i) {
      rounds[s].push_back(
          random_round(rng, shapes[s].channels, shapes[s].bits));
      order.emplace_back(s, i);
    }
  }
  rng.shuffle(order);  // arbitrary interleaving of heterogeneous traffic

  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 500us;
  SortService service(opt);

  std::vector<std::vector<std::future<SortResponse>>> futures(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    futures[s].resize(shapes[s].count);
  }
  for (const auto& [s, i] : order) {
    futures[s][i] = submit_words(service, rounds[s][i]);
  }

  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const McSorter reference(shapes[s].channels, shapes[s].bits);
    const std::vector<std::vector<Word>> expect =
        reference.sort_batch(rounds[s]);
    for (std::size_t i = 0; i < shapes[s].count; ++i) {
      ASSERT_EQ(futures[s][i].get().words(), expect[i])
          << "shape " << shapes[s].channels << "x" << shapes[s].bits
          << " request " << i;
    }
  }

  EXPECT_EQ(registry_counter(service, "serve_submitted_total"), order.size());
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), order.size());
  EXPECT_EQ(registry_counter(service, "serve_failed_total"), 0u);
  const std::uint64_t batches =
      registry_counter(service, "serve_batches_total");
  EXPECT_GE(batches, 4u);  // at least ceil(300/256)+1+1 shape flushes
  // Summed over every cause label, the flushes account for each batch.
  EXPECT_EQ(registry_counter(service, "serve_flush_total"), batches);
  EXPECT_GT(registry_histogram(service, "serve_batch_lanes").mean(), 0.0);
  EXPECT_EQ(service.shapes(), shapes.size());
}

TEST(SortService, ConcurrentProducersStaySorted) {
  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 200us;
  SortService service(opt);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  std::vector<std::thread> producers;
  std::vector<int> failures(kProducers, 0);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        std::vector<std::uint64_t> vals;
        for (int c = 0; c < 6; ++c) vals.push_back(rng.below(32));
        std::vector<std::uint64_t> expect = vals;
        std::sort(expect.begin(), expect.end());
        if (sort_values(service, vals, 5) != expect) ++failures[p];
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(failures[p], 0);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(registry_histogram(service, "serve_latency_ns").count(), 0u);
}

TEST(SortService, StopDrainsEveryPendingFuture) {
  ServeOptions opt;
  opt.workers = 1;
  opt.flush_window = std::chrono::microseconds(1h);  // window never expires
  SortService service(opt);

  Xoshiro256 rng(9);
  std::vector<std::future<SortResponse>> futures;
  std::vector<std::vector<Word>> sent;
  for (int i = 0; i < 40; ++i) {  // partial group: stays pending in batcher
    sent.push_back(random_round(rng, 4, 4));
    futures.push_back(submit_words(service, sent.back()));
  }
  service.stop();

  const McSorter reference(4, 4);
  const auto expect = reference.sort_batch(sent);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().words(), expect[i]);  // fulfilled by the drain
  }
  EXPECT_EQ(
      registry_counter(service, "serve_flush_total", {{"cause", "drain"}}),
      1u);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), 40u);

  EXPECT_EQ(submit_words(service, random_round(rng, 4, 4)).get().status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(registry_counter(service, "serve_rejected_total"), 1u);
  service.stop();  // idempotent
}

// Regression: a refused ready-queue push used to drop the BatchGroup on the
// floor — promises died unfulfilled and the group's inflight slots leaked,
// wedging all later submitters at the backpressure gate. Now every request
// in the refused group fails fast and its slots are released.
TEST(SortService, RefusedReadyPushFailsGroupInsteadOfDroppingIt) {
  ServeOptions opt;
  opt.workers = 1;
  opt.max_lanes = 1;   // every submit flushes a full group immediately
  opt.max_inflight = 2;  // tight bound: leaked slots would hang the test
  SortService service(opt);
  Xoshiro256 rng(31);

  SortServiceTestPeer::close_ready_queue(service);

  // Well past max_inflight: only possible if each refused group releases
  // its inflight slots. Every future must carry the failure, not hang.
  for (int i = 0; i < 8; ++i) {
    std::future<SortResponse> f =
        submit_words(service, random_round(rng, 4, 4));
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready) << "request " << i;
    EXPECT_EQ(f.get().status.code(), StatusCode::kUnavailable)
        << "request " << i;
  }

  EXPECT_EQ(registry_counter(service, "serve_submitted_total"), 8u);
  // Refused pushes count as rejections.
  EXPECT_EQ(registry_counter(service, "serve_rejected_total"), 8u);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), 0u);
  service.stop();  // still clean to stop after the induced fault
}

// A max_lanes of 512 makes a full flush span two 256-lane groups, which
// shard over the process-wide engine pool. Every worker and shape shares
// that one pool, so serving starts at most hardware_parallelism() - 1
// engine threads, and results stay bit-identical to direct sort_batch.
TEST(SortService, SharedEnginePoolServesCorrectlyAcrossShapes) {
  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 200us;
  opt.max_lanes = 512;
  SortService service(opt);

  const std::uint64_t spawned = ThreadPool::threads_started();
  Xoshiro256 rng(17);
  struct Shape {
    int channels;
    std::size_t bits;
  };
  for (const Shape s : {Shape{4, 4}, Shape{6, 3}}) {
    std::vector<std::vector<Word>> rounds;
    std::vector<std::future<SortResponse>> futures;
    for (int i = 0; i < 600; ++i) {  // > 512: at least one sharded flush
      rounds.push_back(random_round(rng, s.channels, s.bits));
      futures.push_back(submit_words(service, rounds.back()));
    }
    const auto expect = McSorter(s.channels, s.bits).sort_batch(rounds);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      ASSERT_EQ(futures[i].get().words(), expect[i])
          << s.channels << "x" << s.bits << " request " << i;
    }
  }
  EXPECT_LE(ThreadPool::threads_started() - spawned,
            ThreadPool::hardware_parallelism() - 1);
  service.stop();
}

// Both renderings of the registry stay locale-independent (CI parses
// them): no digit grouping, no decimal comma, and every Prometheus sample
// an exact integer.
TEST(SortService, StatsDocumentsAreLocaleIndependent) {
  struct CommaPunct : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  ServeOptions opt;
  opt.flush_window = 100us;
  SortService service(opt);
  (void)sort_values(service, {3, 1, 2, 0}, 4);
  service.registry().counter("locale_probe_total").add(1234567);
  AtomicHistogram& half = service.registry().histogram("locale_probe_ns");
  half.record(1);
  half.record(2);  // mean 1.5: a decimal point, never a comma

  const std::locale previous =
      std::locale::global(std::locale(std::locale::classic(),
                                      new CommaPunct));
  const std::string json = service.stats_json();
  const std::string prom = service.stats_prometheus();
  std::locale::global(previous);

  EXPECT_NE(json.find("\"locale_probe_total\": 1234567"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("1.234.567"), std::string::npos) << json;  // grouping
  EXPECT_NE(json.find("\"mean\": 1.5}"), std::string::npos) << json;
  // Commas separate JSON members and label pairs; a comma between two
  // digits would be a decimal comma.
  for (std::size_t pos = json.find(','); pos != std::string::npos;
       pos = json.find(',', pos + 1)) {
    ASSERT_GT(pos, 0u);
    ASSERT_LT(pos + 1, json.size());
    EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(json[pos - 1])) &&
                 std::isdigit(static_cast<unsigned char>(json[pos + 1])))
        << "decimal comma at " << pos << ": " << json;
  }

  EXPECT_NE(prom.find("\nlocale_probe_total 1234567\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nlocale_probe_ns_sum 3\n"), std::string::npos)
      << prom;
  std::size_t samples = 0;
  std::size_t begin = 0;
  for (std::size_t end = prom.find('\n'); end != std::string::npos;
       begin = end + 1, end = prom.find('\n', begin)) {
    const std::string line = prom.substr(begin, end - begin);
    if (line.empty() || line.front() == '#') continue;
    ++samples;
    const std::string value = line.substr(line.rfind(' ') + 1);
    EXPECT_EQ(value.find_first_not_of("-0123456789"), std::string::npos)
        << "non-integer sample: " << line;
  }
  EXPECT_GT(samples, 0u);
}

// stats_json() carries every serve_* series of docs/OBSERVABILITY.md §2.
TEST(SortService, StatsJsonHasTheAdvertisedServeSeries) {
  ServeOptions opt;
  opt.flush_window = 100us;
  SortService service(opt);
  (void)sort_values(service, {3, 1, 2, 0}, 4);
  const std::string json = service.stats_json();
  for (const char* key :
       {"\"serve_submitted_total\": ", "\"serve_completed_total\": ",
        "\"serve_rejected_total\": ", "\"serve_failed_total\": ",
        "\"serve_expired_total\": ", "\"serve_batches_total\": ",
        "\"serve_flush_total{cause=\\\"lane_full\\\"}\": ",
        "\"serve_flush_total{cause=\\\"window\\\"}\": ",
        "\"serve_flush_total{cause=\\\"drain\\\"}\": ",
        "\"serve_latency_ns\": {\"count\": 1, ",
        "\"serve_batch_lanes\": {\"count\": 1, "}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// --- SortRequest/SortResponse API --------------------------------------------

// Differential parity: SortRequest submission (futures and callbacks,
// owned and zero-copy-view payloads) is checksum-identical to the legacy
// sort_batch path on the same rounds.
TEST(SortService, RequestApiMatchesDirectSortBatch) {
  constexpr int kChannels = 4;
  constexpr std::size_t kBits = 4;
  constexpr std::size_t kRounds = 300;  // full lane group + partial
  Xoshiro256 rng(41);
  std::vector<std::vector<Word>> rounds;
  std::vector<std::vector<Trit>> flats(kRounds);
  for (std::size_t i = 0; i < kRounds; ++i) {
    rounds.push_back(random_round(rng, kChannels, kBits));
    for (const Word& w : rounds.back()) {
      flats[i].insert(flats[i].end(), w.begin(), w.end());
    }
  }
  const McSorter reference(kChannels, kBits);
  const std::vector<std::vector<Word>> expect = reference.sort_batch(rounds);

  // Futures path over zero-copy views (flats outlive the completions),
  // interleaved with the callback path writing into preassigned slots.
  // Slots are declared before the service: if an assertion bails out of
  // the test early, ~SortService still drains pending callbacks, which
  // must find their targets alive.
  std::vector<std::future<SortResponse>> futures(kRounds);
  std::vector<SortResponse> callback_slots(kRounds);
  std::atomic<std::size_t> callbacks_done{0};

  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 200us;
  SortService service(opt);
  for (std::size_t i = 0; i < kRounds; ++i) {
    SortRequest req = std::move(
        SortRequest::view(SortShape{kChannels, kBits}, flats[i]).value());
    if (i % 2 == 0) {
      futures[i] = service.submit(std::move(req));
    } else {
      service.submit(std::move(req), [&, i](SortResponse rsp) {
        callback_slots[i] = std::move(rsp);
        callbacks_done.fetch_add(1);
      });
    }
  }
  for (std::size_t i = 0; i < kRounds; i += 2) {
    const SortResponse rsp = futures[i].get();
    ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
    ASSERT_EQ(rsp.words(), expect[i]) << "request " << i;
    EXPECT_GT(rsp.latency.count(), 0);
  }
  service.stop();  // all callbacks have run once stop() returns
  EXPECT_EQ(callbacks_done.load(), kRounds / 2);
  for (std::size_t i = 1; i < kRounds; i += 2) {
    ASSERT_TRUE(callback_slots[i].status.ok());
    ASSERT_EQ(callback_slots[i].words(), expect[i]) << "callback " << i;
  }
  EXPECT_EQ(registry_counter(service, "serve_submitted_total"), kRounds);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), kRounds);
  EXPECT_EQ(registry_counter(service, "serve_failed_total"), 0u);
  EXPECT_EQ(registry_counter(service, "serve_expired_total"), 0u);
}

// The request path never throws: malformed requests and post-stop submits
// complete (inline) with the corresponding Status.
TEST(SortService, RequestApiFailsViaStatusNotExceptions) {
  SortService service;
  SortRequest malformed;  // empty payload, 0x0 shape
  const SortResponse bad = service.submit(std::move(malformed)).get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_counter(service, "serve_rejected_total"), 1u);

  service.stop();
  Xoshiro256 rng(5);
  bool called_inline = false;
  service.submit(
      std::move(SortRequest::from_words(random_round(rng, 4, 4)).value()),
      [&](SortResponse rsp) {
        called_inline = true;
        EXPECT_EQ(rsp.status.code(), StatusCode::kUnavailable);
      });
  EXPECT_TRUE(called_inline);  // completion ran before submit returned
  EXPECT_EQ(registry_counter(service, "serve_rejected_total"), 2u);
}

// A hand-built request whose payload holds a byte that is no trit fails
// admission with kInvalidArgument naming it, and the service keeps serving.
TEST(SortService, SubmitRefusesTritBytesOutsideZeroOneTwo) {
  SortService service;
  const std::vector<Trit> bad = {static_cast<Trit>(5), Trit::zero, Trit::one,
                                 Trit::one};
  SortRequest request;
  request.shape = SortShape{2, 2};
  request.payload = bad;
  const SortResponse refused = service.submit(std::move(request)).get();
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status.message().find("trit 0 is 5"), std::string::npos)
      << refused.status.to_string();
  EXPECT_EQ(registry_counter(service, "serve_rejected_total"), 1u);

  const std::vector<Trit> good = {Trit::one, Trit::zero, Trit::one,
                                  Trit::one};
  const SortRequest request_good =
      std::move(SortRequest::view(SortShape{2, 2}, good).value());
  const SortResponse served = service.submit(request_good).get();
  ASSERT_TRUE(served.status.ok()) << served.status.to_string();
  EXPECT_EQ(served.payload,
            McSorter(2, 2).sort_request(request_good).payload);
}

// A request for a shape whose netlist NodeId cannot index completes with
// kResourceExhausted from admission, and the service keeps serving.
TEST(SortService, ShapeBeyondNodeIdFailsWithResourceExhausted) {
  SortService service;
  const SortShape huge{4096, 2048};
  StatusOr<SortRequest> request =
      SortRequest::own(huge, std::vector<Trit>(huge.trits(), Trit::zero));
  ASSERT_TRUE(request.ok()) << request.status().to_string();
  const SortResponse rsp = service.submit(std::move(*request)).get();
  EXPECT_EQ(rsp.status.code(), StatusCode::kResourceExhausted)
      << rsp.status.to_string();
  EXPECT_EQ(registry_counter(service, "serve_rejected_total"), 1u);

  Xoshiro256 rng(7);
  const std::vector<Word> round = random_round(rng, 4, 4);
  EXPECT_EQ(submit_words(service, round).get().words(),
            McSorter(4, 4).sort(round));
}

// Deadline policy: judged at flush time. An expired request is failed with
// kDeadlineExceeded while its fresh lane-mates in the same group still
// sort correctly: a fresh request after an expired one, and an expired
// request between two fresh ones, whose rows move over the expired row.
TEST(SortService, DeadlineExpiredRequestsFailAtFlushTime) {
  const McSorter reference(4, 4);
  Xoshiro256 rng(19);
  const std::vector<std::vector<bool>> cases = {{true, false},
                                                {false, true, false}};
  for (const std::vector<bool>& expired : cases) {
    ServeOptions opt;
    opt.workers = 1;
    opt.flush_window = std::chrono::microseconds(1h);  // only drain flushes
    SortService service(opt);

    std::vector<std::vector<Word>> rounds;
    std::vector<std::future<SortResponse>> futures;
    for (const bool past : expired) {
      rounds.push_back(random_round(rng, 4, 4));
      SortRequest request =
          std::move(SortRequest::from_words(rounds.back()).value());
      request.deadline = past ? Clock::now() - 1ms : Clock::now() + 1h;
      futures.push_back(service.submit(std::move(request)));
    }
    service.stop();  // drain-flushes the shared partial group

    std::size_t n_expired = 0;
    for (std::size_t i = 0; i < expired.size(); ++i) {
      const SortResponse rsp = futures[i].get();
      if (expired[i]) {
        ++n_expired;
        EXPECT_EQ(rsp.status.code(), StatusCode::kDeadlineExceeded);
        EXPECT_TRUE(rsp.payload.empty());
      } else {
        ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
        EXPECT_EQ(rsp.words(), reference.sort(rounds[i])) << "request " << i;
      }
    }
    EXPECT_EQ(registry_counter(service, "serve_submitted_total"),
              expired.size());
    EXPECT_EQ(registry_counter(service, "serve_expired_total"), n_expired);
    EXPECT_EQ(registry_counter(service, "serve_completed_total"),
              expired.size() - n_expired);
    EXPECT_EQ(registry_counter(service, "serve_failed_total"), 0u);
  }
}

// A lone request that owns its trits keeps one buffer from submit to
// response: the batcher adopts it, the sort runs in place and the response
// takes it back. No payload-sized buffer is allocated on the way.
TEST(SortService, LoneOwnedRequestGetsItsOwnBufferBack) {
  const SortShape shape{7, 5};
  constexpr std::size_t kRounds = 256;  // fills max_lanes by itself
  ServeOptions opt;
  opt.workers = 1;
  opt.warmup_shapes = {shape};
  SortService service(opt);
  Xoshiro256 rng(29);
  std::vector<Trit> input = random_rounds(rng, shape, kRounds);
  std::vector<Trit> want(input.size());
  ASSERT_TRUE(McSorter(shape.channels, shape.bits)
                  .sort_batch_flat(input, want)
                  .ok());
  SortRequest request = std::move(
      SortRequest::own_batch(shape, kRounds, std::move(input)).value());
  const Trit* const data = request.payload.data();

  g_watched_allocs = 0;
  g_watched_bytes = kRounds * shape.trits() * sizeof(Trit);
  const SortResponse rsp = service.submit(std::move(request)).get();
  g_watched_bytes = 0;

  ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
  EXPECT_EQ(rsp.payload, want);
  EXPECT_EQ(rsp.payload.data(), data);
  EXPECT_EQ(g_watched_allocs.load(), 0u);
}

// serve_completed_total counts requests, not the rounds they carry, so
// completed + failed + expired never exceeds submitted; lane occupancy
// (serve_batch_lanes) stays in rounds.
TEST(SortService, CompletedCountsRequestsNotRounds) {
  constexpr std::size_t kRounds = 256;
  const SortShape shape{4, 4};
  Xoshiro256 rng(23);
  const auto batch_request = [&] {
    return std::move(
        SortRequest::own_batch(shape, kRounds,
                               random_rounds(rng, shape, kRounds))
            .value());
  };
  SortService service;

  const SortResponse sorted = service.submit(batch_request()).get();
  ASSERT_TRUE(sorted.status.ok()) << sorted.status.to_string();
  EXPECT_EQ(registry_counter(service, "serve_submitted_total"), 1u);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), 1u);

  SortRequest late = batch_request();
  late.deadline = Clock::now() - 1ms;
  EXPECT_EQ(service.submit(std::move(late)).get().status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(registry_counter(service, "serve_submitted_total"), 2u);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), 1u);
  EXPECT_EQ(registry_counter(service, "serve_expired_total"), 1u);
  EXPECT_EQ(registry_counter(service, "serve_failed_total"), 0u);

  const Histogram lanes = registry_histogram(service, "serve_batch_lanes");
  EXPECT_EQ(lanes.count(), 2u);
  EXPECT_EQ(lanes.sum(), 2 * kRounds);
}

TEST(ServeOptions, ValidateNamesEveryBadKnob) {
  ServeOptions opt;
  EXPECT_TRUE(opt.validate().ok());

  opt.workers = 0;
  opt.max_lanes = 0;
  opt.flush_window = std::chrono::microseconds(-5);
  opt.max_inflight = 0;
  const Status s = opt.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  for (const char* knob :
       {"workers", "max_lanes", "flush_window", "max_inflight"}) {
    EXPECT_NE(s.message().find(knob), std::string::npos)
        << knob << " missing in: " << s.message();
  }
  // The constructor still sanitizes for programmatic callers: building a
  // service from these knobs clamps instead of failing.
  SortService service(opt);
  EXPECT_GE(service.options().workers, 1);

  // max_lanes is bounded above too: no batch carries more rounds.
  ServeOptions wide;
  wide.max_lanes = kMaxBatchRounds + 1;
  const Status too_wide = wide.validate();
  EXPECT_EQ(too_wide.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_wide.message().find("max_lanes must be <= " +
                                    std::to_string(kMaxBatchRounds)),
            std::string::npos)
      << too_wide.message();
}

// A shape listed twice is warmed once, so it fits a pool of one.
TEST(ServeOptions, DuplicateWarmupShapesCountOnceAgainstPoolCapacity) {
  ServeOptions opt;
  opt.pool_capacity = 1;
  opt.warmup_shapes = {SortShape{4, 4}, SortShape{4, 4}};
  const Status s = opt.validate();
  EXPECT_TRUE(s.ok()) << s.to_string();
  SortService service(opt);
  EXPECT_EQ(service.shapes(), 1u);
}

TEST(ServeOptions, DistinctWarmupShapesBeyondPoolCapacityFail) {
  ServeOptions opt;
  opt.pool_capacity = 1;
  opt.warmup_shapes = {SortShape{4, 4}, SortShape{6, 4}};
  const Status s = opt.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("warmup_shapes"), std::string::npos)
      << s.message();
}

// An unvalidated max_lanes far past any batch used to make the first
// request reserve that many lanes and throw std::bad_alloc out of
// submit(). The constructor clamps it to kMaxBatchRounds, and a shard
// reserves one engine lane group up front.
TEST(SortService, HugeMaxLanesStillSortsTheFirstRequest) {
  ServeOptions opt;
  opt.max_lanes = 100'000'000'000;
  opt.flush_window = 100us;
  SortService service(opt);
  EXPECT_EQ(service.options().max_lanes, kMaxBatchRounds);

  Xoshiro256 rng(43);
  const std::vector<Word> round = random_round(rng, 4, 4);
  const SortResponse rsp = submit_words(service, round).get();
  ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
  EXPECT_EQ(rsp.words(), McSorter(4, 4).sort(round));
}

// Warmup builds the listed shapes inside the constructor, so the first
// request for one is a pool hit and pays no build.
TEST(SortService, WarmedShapeServesItsFirstRequestFromThePool) {
  const SortShape shape{24, 8};  // composed: past the optimal catalog
  int builds = 0;
  Status build_status = Status::internal("observer never ran");
  std::uint64_t build_ns = 0;
  ServeOptions opt;
  opt.flush_window = 100us;
  opt.warmup_shapes = {shape};
  opt.warmup_observer = [&](const SortShape& built, const Status& status,
                            std::uint64_t ns) {
    ++builds;
    EXPECT_EQ(built, shape);
    build_status = status;
    build_ns = ns;
  };
  SortService service(opt);
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(build_status.ok()) << build_status.to_string();
  EXPECT_GT(build_ns, 0u);
  EXPECT_EQ(service.shapes(), 1u);  // before any request

  Xoshiro256 rng(29);
  const std::vector<Word> round =
      random_round(rng, shape.channels, shape.bits);
  const SortResponse rsp = submit_words(service, round).get();
  ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
  EXPECT_EQ(rsp.words(), McSorter(shape.channels, shape.bits).sort(round));
  EXPECT_EQ(registry_counter(service, "pool_misses_total"), 1u);  // warmup
  EXPECT_EQ(registry_counter(service, "pool_hits_total"), 1u);
  EXPECT_EQ(service.shapes(), 1u);
}

// A bounded pool under shape churn: six shapes through a pool of three,
// in per-shape bursts, evict idle shapes and still answer every request
// correctly.
TEST(SortService, BoundedPoolChurnEvictsAndAnswersEveryRequest) {
  constexpr std::size_t kCapacity = 3;
  constexpr int kCycles = 4;
  constexpr std::size_t kBurst = 4;
  constexpr std::size_t kBits = 8;
  const std::vector<int> channel_mix{4, 6, 11, 12, 13, 14};
  std::vector<McSorter> references;
  for (const int channels : channel_mix) {
    references.emplace_back(channels, kBits);
  }

  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 50us;
  opt.pool_capacity = kCapacity;
  SortService service(opt);
  Xoshiro256 rng(37);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (std::size_t s = 0; s < channel_mix.size(); ++s) {
      std::vector<std::vector<Word>> rounds;
      std::vector<std::future<SortResponse>> burst;
      for (std::size_t r = 0; r < kBurst; ++r) {
        rounds.push_back(random_round(rng, channel_mix[s], kBits));
        burst.push_back(submit_words(service, rounds.back()));
      }
      // Draining each burst leaves its shape idle before the next shape
      // arrives, so the LRU can evict it.
      const std::vector<std::vector<Word>> expect =
          references[s].sort_batch(rounds);
      for (std::size_t r = 0; r < kBurst; ++r) {
        const SortResponse rsp = burst[r].get();
        ASSERT_TRUE(rsp.status.ok())
            << channel_mix[s] << " channels: " << rsp.status.to_string();
        EXPECT_EQ(rsp.words(), expect[r])
            << channel_mix[s] << " channels, cycle " << cycle;
      }
      // A worker may still hold the previous shape while the next one
      // builds, so the pool can ride one shape over its bound.
      EXPECT_LE(service.shapes(), kCapacity + 1);
    }
  }
  EXPECT_GT(registry_counter(service, "pool_evictions_total"), 0u);
  EXPECT_EQ(registry_counter(service, "serve_completed_total"),
            kCycles * channel_mix.size() * kBurst);
  EXPECT_EQ(registry_counter(service, "serve_failed_total"), 0u);
}

// Admission (max_inflight) is the service's one backpressure point: the
// queue of flushed lane groups has no bound of its own. With one lane per
// group and the only worker stalled inside a completion, 100 single-round
// submits queue 100 groups while thousands of inflight slots are free, and
// none of them may wait.
TEST(SortService, SubmitNeverWaitsOnFlushedGroups) {
  constexpr int kSubmits = 100;
  std::promise<void> stalled;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> submitted{0};
  std::atomic<int> completed{0};
  Xoshiro256 rng(41);
  std::vector<std::vector<Word>> rounds;
  for (int i = 0; i <= kSubmits; ++i) rounds.push_back(random_round(rng, 4, 4));

  ServeOptions opt;
  opt.workers = 1;
  opt.max_lanes = 1;
  SortService service(opt);
  std::future<void> worker_stalled = stalled.get_future();
  service.submit(std::move(SortRequest::from_words(rounds[0]).value()),
                 [&](SortResponse) {
                   stalled.set_value();
                   released.wait();
                   ++completed;
                 });
  worker_stalled.wait();

  std::thread producer([&] {
    for (std::size_t i = 1; i < rounds.size(); ++i) {
      service.submit(std::move(SortRequest::from_words(rounds[i]).value()),
                     [&](SortResponse response) {
                       EXPECT_TRUE(response.status.ok());
                       ++completed;
                     });
      ++submitted;
    }
  });
  const auto deadline = Clock::now() + 5s;
  while (submitted.load() < kSubmits && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const int submitted_in_time = submitted.load();
  release.set_value();
  producer.join();
  service.stop();
  EXPECT_EQ(submitted_in_time, kSubmits);
  EXPECT_EQ(completed.load(), kSubmits + 1);
}

// Window flushes never pass through the ready queue, and the wake-ups that
// fresh flush windows send coalesce instead of queueing. Two shapes whose
// groups only ever flush by window (flush_window 0, one request a shard):
// each worker pass sweeps both shards, and their completions open two fresh
// windows. Were each wake-up a queued item, a pass would take one of two
// and the backlog would grow by one a pass, whatever max_inflight is.
TEST(SortService, WindowWakeupsDoNotQueueUp) {
  constexpr int kRequests = 200;  // per shape, each sent by its forerunner
  constexpr int kShapes = 2;
  Xoshiro256 rng(43);
  std::vector<std::vector<std::vector<Word>>> rounds(kShapes);
  for (int s = 0; s < kShapes; ++s) {
    for (int i = 0; i < kRequests; ++i) {
      rounds[s].push_back(random_round(rng, 4 + s, 4));
    }
  }

  ServeOptions opt;
  opt.workers = 1;
  opt.flush_window = 0us;
  SortService service(opt);
  std::atomic<int> answered{0};
  std::atomic<int> failed{0};
  std::atomic<int> saw_queued{0};
  std::promise<void> all_answered;
  std::function<void(int, int)> send = [&](int s, int i) {
    service.submit(
        std::move(SortRequest::from_words(rounds[s][i]).value()),
        [&, s, i](SortResponse response) {
          if (!response.status.ok()) ++failed;
          if (!SortServiceTestPeer::ready_queue_empty(service)) ++saw_queued;
          if (i + 1 < kRequests) send(s, i + 1);
          if (++answered == kShapes * kRequests) all_answered.set_value();
        });
  };

  // Stall the only worker so both chains start in the same pass.
  std::promise<void> stalled;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::future<void> worker_stalled = stalled.get_future();
  service.submit(
      std::move(SortRequest::from_words(random_round(rng, 3, 4)).value()),
      [&](SortResponse) {
        stalled.set_value();
        released.wait();
      });
  worker_stalled.wait();
  for (int s = 0; s < kShapes; ++s) send(s, 0);
  release.set_value();

  EXPECT_EQ(all_answered.get_future().wait_for(10s),
            std::future_status::ready);
  service.stop();  // before `send` and the promises go out of scope
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(saw_queued.load(), 0);
}

TEST(SortService, BackpressureBoundsInflight) {
  ServeOptions opt;
  opt.workers = 1;
  opt.max_inflight = 8;
  opt.flush_window = 100us;
  SortService service(opt);
  // Far more submissions than max_inflight: the bound forces submit() to
  // block and the service to keep up, rather than queueing unboundedly.
  Xoshiro256 rng(21);
  std::vector<std::future<SortResponse>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(submit_words(service, random_round(rng, 4, 4)));
  }
  for (auto& f : futures) (void)f.get();
  EXPECT_EQ(registry_counter(service, "serve_completed_total"), 200u);
}

}  // namespace
}  // namespace mcsn
