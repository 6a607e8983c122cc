#pragma once
// Adaptive micro-batcher: coalesces individual sort requests into lane
// groups for the 256-lane batch engine. Requests are sharded by shape
// (channels, bits) so heterogeneous traffic never mixes inside one group;
// a shard flushes when it fills max_lanes lanes (returned straight to the
// caller, zero added latency) or when its oldest request has waited one
// flush window (collected by take_expired, driven from the worker loop).
//
// Payloads are gathered eagerly into the shard's contiguous buffer, so a
// flushed BatchGroup is already in the exact layout
// McSorter::sort_batch_flat consumes — the executor never repacks rounds.
// The request that opens a shard gives the shard its trits
// (SortRequest::take_trits: its own buffer when it is the only owner);
// each later request appends a copy of its rounds. A lone owned request,
// such as a decoded wire frame, therefore reaches the engine in the buffer
// it was decoded into, and the service sorts that buffer in place.
//
// Internally synchronized; time is always passed in, so tests can drive
// the window deterministically with fake clocks.

#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/serve/metrics.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/metrics_registry.hpp"
#include "mcsn/util/unique_function.hpp"

namespace mcsn {

/// Invoked exactly once with the finished response — a promise-fulfilling
/// adapter for the futures API, or the caller's own callback.
using SortCompletion = UniqueFunction<void(SortResponse)>;

/// One admitted request waiting for lane-mates: the API request (payload
/// already staged into the shard buffer) plus its completion.
struct PendingSort {
  SortRequest request;
  SortCompletion done;
  std::chrono::steady_clock::time_point enqueued{};
};

/// A flushed group of same-shape requests, ready for one sort_batch_flat
/// call: `flat` holds each request's rounds contiguously in request order
/// (request i starts at sum of rounds of requests [0, i) times trits and
/// spans requests[i].request.rounds rounds — i*trits for all-single-round
/// groups).
struct BatchGroup {
  std::shared_ptr<const McSorter> sorter;
  std::vector<PendingSort> requests;
  std::vector<Trit> flat;
  FlushCause cause = FlushCause::lane_full;
};

class MicroBatcher {
 public:
  /// With a registry, the batcher publishes its live state as
  /// batcher_pending_rounds / batcher_open_shards gauges and a
  /// batcher_staged_rounds_total counter (all updated under the mutex it
  /// already holds).
  MicroBatcher(std::size_t max_lanes, std::chrono::nanoseconds window,
               MetricsRegistry* registry = nullptr)
      : max_lanes_(max_lanes == 0 ? 1 : max_lanes), window_(window) {
    if (registry != nullptr) {
      pending_rounds_ = &registry->gauge("batcher_pending_rounds");
      open_shards_ = &registry->gauge("batcher_open_shards");
      staged_total_ = &registry->counter("batcher_staged_rounds_total");
    }
  }

  struct AddResult {
    /// The full group, when this request topped its shard up to max_lanes.
    std::optional<BatchGroup> full;
    /// True when this request opened a fresh shard window — the caller must
    /// make sure some worker wakes by that shard's deadline.
    bool window_started = false;
  };

  /// Adds a request to its shape's shard, staging its payload into the
  /// shard's flat buffer (the request's own payload/storage are released —
  /// a zero-copy view's backing buffer is no longer referenced after this
  /// returns; a first request that solely owns its buffer becomes the
  /// shard's buffer). `sorter` pins the compiled program the eventual
  /// group runs on; its shape must match the request's.
  [[nodiscard]] AddResult add(std::shared_ptr<const McSorter> sorter,
                              PendingSort pending,
                              std::chrono::steady_clock::time_point now);

  /// Shards whose oldest request has waited >= window at `now`.
  [[nodiscard]] std::vector<BatchGroup> take_expired(
      std::chrono::steady_clock::time_point now);

  /// Everything still pending, regardless of age (shutdown drain).
  [[nodiscard]] std::vector<BatchGroup> take_all();

  /// Earliest flush deadline over non-empty shards; nullopt when idle.
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  next_deadline() const;

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }
  [[nodiscard]] std::chrono::nanoseconds window() const noexcept {
    return window_;
  }

 private:
  struct Shard {
    std::shared_ptr<const McSorter> sorter;
    std::vector<PendingSort> requests;
    std::vector<Trit> flat;
    std::chrono::steady_clock::time_point oldest{};
  };

  [[nodiscard]] BatchGroup drain_shard(Shard& shard, FlushCause cause);

  const std::size_t max_lanes_;
  const std::chrono::nanoseconds window_;
  /// Registry handles (null when constructed without a registry).
  Gauge* pending_rounds_ = nullptr;
  Gauge* open_shards_ = nullptr;
  Counter* staged_total_ = nullptr;
  mutable std::mutex mu_;
  std::map<std::pair<int, std::size_t>, Shard> shards_;
};

}  // namespace mcsn
