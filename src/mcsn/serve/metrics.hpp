#pragma once
// Service observability, recorded into the shared MetricsRegistry
// (util/metrics_registry.hpp): admission counters are relaxed atomics
// (no lock on the per-request hot path) and latency/occupancy histograms
// record lock-free; readers scrape the registry. Also home of the
// slow-request ring: the top-K slowest requests with per-stage
// breakdowns, kept with one relaxed load per fast request.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mcsn/api/status.hpp"
#include "mcsn/util/metrics_registry.hpp"

namespace mcsn {

/// Why a lane group left the micro-batcher.
enum class FlushCause { lane_full, window, drain };

/// One slow request as captured by the ring: its shape, size, and where
/// its latency went (queue = enqueue -> batch flush, execute = flush ->
/// responses built; the difference to total is completion overhead).
struct SlowRequest {
  int channels = 0;
  std::size_t bits = 0;
  std::size_t rounds = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t execute_ns = 0;
  StatusCode code = StatusCode::kOk;
};

/// Fixed-size top-K ring of the slowest requests, by total latency.
/// offer() is designed for the completion path: a request slower than the
/// current floor takes a mutex; everything else costs one relaxed load.
/// snapshot() returns the entries sorted slowest-first.
class SlowRequestRing {
 public:
  explicit SlowRequestRing(std::size_t capacity = 16) : capacity_(capacity) {}

  void offer(const SlowRequest& r) noexcept;

  [[nodiscard]] std::vector<SlowRequest> snapshot() const;

  /// JSON array of entry objects, slowest first; locale-independent.
  [[nodiscard]] std::string json() const;

 private:
  const std::size_t capacity_;
  /// Smallest total_ns currently held once the ring is full: the cheap
  /// pre-filter. 0 while the ring has room (every request qualifies).
  std::atomic<std::uint64_t> floor_{0};
  mutable std::mutex mu_;
  std::vector<SlowRequest> items_;
};

/// The service's recorder: thin, stable handles into a MetricsRegistry.
/// on_submitted/on_rejected are single relaxed atomic adds — they sit on
/// every request admission, where the old mutex showed up in profiles.
/// A request is counted submitted before the batcher sees it, and a
/// registry snapshot reads counters in name order (serve_completed_,
/// _expired_, _failed_total before serve_submitted_total), so a scrape
/// keeps completed + failed + expired <= submitted.
class ServiceMetrics {
 public:
  explicit ServiceMetrics(MetricsRegistry& registry);

  void on_submitted() noexcept { submitted_.add(); }
  void on_rejected() noexcept { rejected_.add(); }

  /// Records one executed batch of `requests` requests spanning `lanes`
  /// rounds, flushed for `cause`; `failed` of its requests carried an
  /// error status and `expired` (counted separately, not part of
  /// `failed`) were past their deadline at flush time. The rest count as
  /// completed.
  void on_batch(std::size_t requests, std::size_t lanes, FlushCause cause,
                std::uint64_t failed, std::uint64_t expired) noexcept;

  /// Per-request submit -> response latency, in ns.
  void record_latency(std::uint64_t ns) noexcept { latency_ns_.record(ns); }
  /// Per-request enqueue -> batch-flush wait, in ns (stage histogram).
  void record_queue(std::uint64_t ns) noexcept { queue_ns_.record(ns); }
  /// Per-batch flush -> engine-done time, in ns (stage histogram).
  void record_execute(std::uint64_t ns) noexcept { execute_ns_.record(ns); }

 private:
  Counter& submitted_;
  Counter& completed_;
  Counter& rejected_;
  Counter& failed_;
  Counter& expired_;
  Counter& batches_;
  Counter& flush_full_;
  Counter& flush_window_;
  Counter& flush_drain_;
  AtomicHistogram& latency_ns_;
  AtomicHistogram& batch_lanes_;
  AtomicHistogram& queue_ns_;
  AtomicHistogram& execute_ns_;
};

}  // namespace mcsn
