#pragma once
// SortService — the streaming front door to the compiled batch engine.
//
// Many producer threads submit() individual measurement rounds; the service
// coalesces them into full 256-lane groups per (channels, bits) shape
// (MicroBatcher + SorterPool), executes groups on worker shards through the
// flat zero-copy engine path, and completes each submitter's future or
// callback. Small requests ride the wide engine at high occupancy instead
// of paying a full netlist evaluation each:
//
//   SortService svc({.workers = 2});
//   auto f = svc.submit(*SortRequest::from_values({4, 8}, values));
//   SortResponse rsp = f.get();              // rsp.status, rsp.payload
//
//   svc.submit(std::move(request), [](SortResponse rsp) { ... });
//
// submit() is the only entry point, and it never throws: malformed
// requests, a stopped service, and deadline-expired work all come back as
// a SortResponse with the corresponding Status (the callback/future always
// completes exactly once). A request with a deadline that passed before
// its batch flushed is failed with kDeadlineExceeded instead of being
// sorted late. Callers holding Words or integers build the request with
// SortRequest::from_words/from_values and read SortResponse::words()/
// values().
//
// Latency/throughput trade-off is one knob: flush_window. A shard flushes
// the moment it fills max_lanes lanes (no added latency under load); a
// partial group waits at most ~2x flush_window before a worker sweeps it.
// Backpressure has one point, admission: at most max_inflight admitted-
// but-unfinished rounds; beyond that submit() blocks. stop() (or the
// destructor) stops admission, drains every pending request, completes
// all futures/callbacks, and joins workers.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/metrics.hpp"
#include "mcsn/serve/queue.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/util/proc_stats.hpp"

namespace mcsn {

struct ServeOptions {
  /// Worker threads draining the batcher and executing lane groups.
  int workers = 1;
  /// Lane-group target per batch; 256 fills one wide engine pass. Larger
  /// values span several lane groups per flush, sharded over the engine
  /// pool (CellNetworkEvaluator::run_flat); smaller ones flush sooner, but
  /// each group runs all 256 lanes. At most kMaxBatchRounds.
  std::size_t max_lanes = 256;
  /// Max time a request waits for lane-mates before a partial flush.
  std::chrono::microseconds flush_window{200};
  /// The one backpressure bound: admitted-but-unfinished rounds before
  /// submit() blocks. It also bounds the flushed groups waiting for a
  /// worker, since each holds at least one admitted round.
  std::size_t max_inflight = 4096;
  /// Knobs for pooled sorters (the channel bound).
  McSorterOptions sorter;

  /// Bound on compiled shapes kept resident in the sorter pool (0 =
  /// unbounded). With arbitrary-shape serving the shape space is
  /// unbounded, so production deployments should set this: the pool
  /// LRU-evicts idle shapes beyond the bound (see serve/sorter_pool.hpp)
  /// and re-compiles on the next request for an evicted shape.
  std::size_t pool_capacity = 0;

  /// Shapes compiled before the service accepts traffic, so first
  /// requests for them never pay the build cost. Validated by validate();
  /// build failures are reported through warmup_observer and do not stop
  /// the service from starting.
  std::vector<SortShape> warmup_shapes;

  /// Optional per-shape warmup observer: (shape, build status, build
  /// nanoseconds). tool_sortd uses it to log per-shape build time.
  SorterPool::WarmupObserver warmup_observer;

  /// The metrics registry every serving layer (service, batcher, sorter
  /// pool, and a socket front-end built on this service) registers into.
  /// The constructor creates one when left null; set it to share a
  /// registry across services or to scrape it independently. Shared
  /// registries share same-named series (counters merge).
  std::shared_ptr<MetricsRegistry> registry;

  /// Checks every knob and reports *all* out-of-range values in one
  /// kInvalidArgument status instead of silently clamping them. CLI
  /// front-ends call this so bad flags error out; the SortService
  /// constructor still sanitizes (documented clamps) for programmatic
  /// callers that rely on the old forgiving behavior.
  [[nodiscard]] Status validate() const;
};

class SortService {
 public:
  /// Sanitizes `opt` (documented clamps; call opt.validate() first to
  /// reject instead) and starts the worker threads. The service is ready
  /// for submit() when the constructor returns.
  ///
  /// Thread-safety: every public member is safe to call from any number
  /// of threads concurrently; submissions racing stop() complete with
  /// kUnavailable rather than being dropped.
  explicit SortService(ServeOptions opt = {});
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Submits one request; the future completes with a SortResponse whose
  /// Status reports validation failures (kInvalidArgument), shutdown
  /// (kUnavailable), expired deadlines (kDeadlineExceeded) or engine
  /// failures (kInternal). Never throws; blocks while the service is at
  /// max_inflight.
  [[nodiscard]] std::future<SortResponse> submit(SortRequest request);

  /// Callback-completion overload: `done` is invoked exactly once with the
  /// response — inline (from this thread) on synchronous rejection, from a
  /// worker thread otherwise. Skips the promise/shared-state allocation of
  /// the futures path; the completion must not block the worker for long.
  void submit(SortRequest request, SortCompletion done);

  /// Stops admission, flushes and executes everything pending (every
  /// future/callback completes), then joins the workers. Idempotent; the
  /// destructor calls it.
  void stop();

  /// The registry this service records into (options().registry; never
  /// null after construction) — the one place its metrics are read,
  /// under the series names of docs/OBSERVABILITY.md. Scrape it directly
  /// or register additional series — handles stay valid for the
  /// service's lifetime. Safe from any thread, concurrently with traffic
  /// and with stop().
  [[nodiscard]] MetricsRegistry& registry() const noexcept {
    return *opt_.registry;
  }
  /// Top-K slowest requests with per-stage breakdowns; snapshot any time.
  [[nodiscard]] const SlowRequestRing& slow_requests() const noexcept {
    return slow_ring_;
  }
  /// Full observability document: {"metrics": <registry JSON>,
  /// "slow_requests": [...]} — what the wire stats frame and tool_sortd
  /// dumps serve. Locale-independent.
  [[nodiscard]] std::string stats_json() const;
  /// Registry in Prometheus text exposition (the slow-request ring is
  /// JSON-only; it has no natural Prometheus shape).
  [[nodiscard]] std::string stats_prometheus() const;
  /// The sanitized options this service actually runs with (clamps
  /// applied); const and safe from any thread.
  [[nodiscard]] const ServeOptions& options() const noexcept { return opt_; }
  /// Distinct request shapes seen (compiled sorters in the pool); safe
  /// from any thread.
  [[nodiscard]] std::size_t shapes() const { return pool_.size(); }

 private:
  friend struct SortServiceTestPeer;  // white-box fault injection in tests

  /// Validates, applies backpressure and enqueues. On a non-OK return the
  /// request and completion are untouched (the caller invokes `done` with
  /// the failure); on OK the batcher owns both.
  [[nodiscard]] Status try_admit(SortRequest& request, SortCompletion& done);

  void worker_loop();
  void execute(BatchGroup group);
  /// Hands a flushed group to the workers; if the ready queue refuses it
  /// (closed), fails every completion in the group instead of dropping it.
  void publish_ready(BatchGroup group);
  /// Fails all completions of a group that can no longer execute, counting
  /// each request as rejected and releasing its inflight slot.
  void fail_group(BatchGroup group, const char* reason);
  void release_inflight(std::size_t n);

  ServeOptions opt_;
  SorterPool pool_;
  MicroBatcher batcher_;
  /// Flushed lane groups, with no bound of its own: every queued group
  /// holds at least one admitted request and admission stops at
  /// max_inflight rounds, so it never holds more than max_inflight groups.
  /// Wake-ups for fresh flush windows are not items; they coalesce.
  WorkQueue<BatchGroup> ready_;
  ServiceMetrics metrics_;
  SlowRequestRing slow_ring_;
  /// process_rss_bytes / process_open_fds gauges, refreshed on every
  /// stats_json()/stats_prometheus() render so scrapes carry live values.
  ProcStatsGauges proc_stats_;

  // Guards the submit-vs-stop race: submit holds it shared across
  // admission-check + batcher add + ready push; stop takes it exclusive to
  // flip accepting_, so no request can slip into the batcher after the
  // shutdown drain.
  std::shared_mutex lifecycle_mu_;
  std::atomic<bool> accepting_{true};
  bool stopped_ = false;  // guarded by lifecycle_mu_

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace mcsn
