#include "mcsn/serve/service.hpp"

#include <algorithm>
#include <exception>
#include <set>
#include <string>

namespace mcsn {

namespace {

using Clock = std::chrono::steady_clock;

ServeOptions sanitize(ServeOptions opt) {
  opt.workers = std::max(1, opt.workers);
  opt.max_lanes = std::clamp<std::size_t>(opt.max_lanes, 1, kMaxBatchRounds);
  opt.max_inflight = std::max<std::size_t>(1, opt.max_inflight);
  if (opt.flush_window < std::chrono::microseconds(0)) {
    opt.flush_window = std::chrono::microseconds(0);
  }
  if (!opt.registry) opt.registry = std::make_shared<MetricsRegistry>();
  return opt;
}

}  // namespace

Status ServeOptions::validate() const {
  std::string bad;
  const auto complain = [&bad](const std::string& msg) {
    if (!bad.empty()) bad += "; ";
    bad += msg;
  };
  if (workers < 1) {
    complain("workers must be >= 1 (got " + std::to_string(workers) + ")");
  }
  if (max_lanes < 1) complain("max_lanes must be >= 1 (got 0)");
  if (max_lanes > kMaxBatchRounds) {
    complain("max_lanes must be <= " + std::to_string(kMaxBatchRounds) +
             " (got " + std::to_string(max_lanes) + ")");
  }
  if (flush_window < std::chrono::microseconds(0)) {
    complain("flush_window must be >= 0 (got " +
             std::to_string(flush_window.count()) + "us)");
  }
  if (max_inflight < 1) complain("max_inflight must be >= 1 (got 0)");
  if (sorter.max_channels < 1) {
    complain("sorter.max_channels must be >= 1 (got " +
             std::to_string(sorter.max_channels) + ")");
  }
  for (const SortShape& shape : warmup_shapes) {
    const std::string name = std::to_string(shape.channels) + "x" +
                             std::to_string(shape.bits);
    if (Status s = shape.validate(); !s.ok()) {
      complain("warmup shape " + name + ": " + s.message());
    } else if (shape.channels > sorter.max_channels) {
      complain("warmup shape " + name + " exceeds sorter.max_channels (" +
               std::to_string(sorter.max_channels) + ")");
    }
  }
  const std::size_t distinct =
      std::set<SortShape>(warmup_shapes.begin(), warmup_shapes.end()).size();
  if (pool_capacity > 0 && distinct > pool_capacity) {
    complain("warmup_shapes lists " + std::to_string(distinct) +
             " distinct shapes but pool_capacity is " +
             std::to_string(pool_capacity) +
             " — warmed shapes would be evicted immediately");
  }
  if (!bad.empty()) return Status::invalid_argument("ServeOptions: " + bad);
  return Status();
}

SortService::SortService(ServeOptions opt)
    : opt_(sanitize(std::move(opt))),
      pool_(opt_.sorter, opt_.registry.get(), opt_.pool_capacity),
      batcher_(opt_.max_lanes, opt_.flush_window, opt_.registry.get()),
      metrics_(*opt_.registry),
      proc_stats_(*opt_.registry) {
  // Warm the pool before traffic: first requests for the listed shapes
  // hit compiled programs. Failures reach warmup_observer; the service
  // still starts (a bad warmup shape must not take serving down).
  if (!opt_.warmup_shapes.empty()) {
    (void)pool_.warmup(opt_.warmup_shapes, opt_.warmup_observer);
  }
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back(&SortService::worker_loop, this);
  }
}

SortService::~SortService() { stop(); }

Status SortService::try_admit(SortRequest& request, SortCompletion& done) {
  if (Status s = request.validate(); !s.ok()) return s;

  // Early, non-authoritative rejection (the shared-lock check below is the
  // real one): don't compile a novel shape's sorter for a stopped service.
  if (!accepting_.load(std::memory_order_relaxed)) {
    return Status::unavailable("SortService: stopped");
  }

  // Compiles the shape's sorter on first sight (milliseconds); later
  // requests hit the pool cache. Deliberately outside the lifecycle lock.
  // The pool maps every construction failure to a Status — degenerate
  // shapes come back kInvalidArgument, shapes beyond the configured
  // construction bound kUnimplemented, allocation failure
  // kResourceExhausted — so unbuildable shapes become proper error
  // responses (wire error frames) instead of exceptions in a worker.
  StatusOr<std::shared_ptr<const McSorter>> sorter =
      pool_.acquire(request.shape.channels, request.shape.bits);
  if (!sorter.ok()) return sorter.status();

  // Backpressure: wait for an inflight slot (workers free them as batches
  // complete); stop() aborts the wait. Inflight is counted in rounds, so a
  // batched request takes as many slots as the work it carries (a batch
  // may overshoot the cap by its own size, same soft bound as before).
  const std::size_t weight = request.rounds;
  {
    std::unique_lock lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] {
      return inflight_ < opt_.max_inflight ||
             !accepting_.load(std::memory_order_relaxed);
    });
    if (!accepting_.load(std::memory_order_relaxed)) {
      return Status::unavailable("SortService: stopped");
    }
    inflight_ += weight;
  }

  std::shared_lock lifecycle(lifecycle_mu_);
  if (!accepting_.load(std::memory_order_relaxed)) {
    release_inflight(weight);
    return Status::unavailable("SortService: stopped");
  }

  const auto now = Clock::now();
  PendingSort pending;
  pending.request = std::move(request);
  pending.done = std::move(done);
  pending.enqueued = now;

  // Counted before the batcher sees the request: once it's in a shard, a
  // concurrent flush may complete it, and completed must never outrun
  // submitted in a snapshot.
  metrics_.on_submitted();
  MicroBatcher::AddResult added =
      batcher_.add(std::move(*sorter), std::move(pending), now);
  if (added.full) {
    // A refused push must not drop the group: its completions (including
    // the one this call admitted) would die uninvoked and its inflight
    // slots would leak, wedging every later submitter at the backpressure
    // gate. publish_ready fails the group explicitly instead; this caller
    // then sees the failure through its own completion.
    publish_ready(std::move(*added.full));
  } else if (added.window_started) {
    // Wake a worker so it recomputes its flush deadline, now that the
    // batcher holds the fresh shard. Wakes coalesce in the queue, so a
    // burst of fresh windows never queues more than one.
    ready_.wake();
  }
  return Status();
}

void SortService::submit(SortRequest request, SortCompletion done) {
  Status admitted = try_admit(request, done);
  if (!admitted.ok()) {
    // try_admit left both untouched: complete inline with the failure.
    metrics_.on_rejected();
    done(SortResponse::failure(std::move(admitted), request.shape,
                               request.values_requested,
                               std::max<std::size_t>(request.rounds, 1)));
  }
}

std::future<SortResponse> SortService::submit(SortRequest request) {
  std::promise<SortResponse> promise;
  std::future<SortResponse> future = promise.get_future();
  submit(std::move(request),
         [promise = std::move(promise)](SortResponse response) mutable {
           promise.set_value(std::move(response));
         });
  return future;
}

void SortService::stop() {
  {
    std::unique_lock lifecycle(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
    accepting_.store(false, std::memory_order_relaxed);
  }
  inflight_cv_.notify_all();  // abort submitters blocked on backpressure
  for (BatchGroup& group : batcher_.take_all()) {
    // The queue isn't closed yet, so the push succeeds without waiting;
    // a refusal would still fail the group's completions rather than
    // strand every waiter.
    publish_ready(std::move(group));
  }
  ready_.close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void SortService::worker_loop() {
  for (;;) {
    // Sweep expired shards every iteration — not only when the ready queue
    // runs dry — so sustained full-group traffic of one shape can't starve
    // another shape's window flush past its deadline.
    for (BatchGroup& expired :
         batcher_.take_expired(std::chrono::steady_clock::now())) {
      execute(std::move(expired));
    }
    const std::optional<std::chrono::steady_clock::time_point> deadline =
        batcher_.next_deadline();
    std::optional<BatchGroup> group =
        deadline ? ready_.pop_until(*deadline) : ready_.pop();
    if (group) {
      execute(std::move(*group));
      continue;
    }
    if (ready_.closed() && ready_.empty()) {
      // The queue only closes during shutdown: nothing in the batcher can
      // gain lane-mates anymore, so drain it now instead of spinning on an
      // instantly-returning pop until a flush window (which may be hours)
      // expires. Concurrent workers split the groups via take_all's lock.
      for (BatchGroup& leftover : batcher_.take_all()) {
        execute(std::move(leftover));
      }
      return;
    }
  }
}

void SortService::execute(BatchGroup group) {
  const std::size_t n = group.requests.size();
  const std::size_t round_trits = group.sorter->shape().trits();
  // Request i occupies rounds(i) consecutive rounds of `flat`; all-single
  // groups reduce to the historical one-row-per-request layout.
  const auto rounds_of = [&group](std::size_t i) {
    return group.requests[i].request.rounds;
  };
  const auto row = [&group](std::size_t offset) {
    return group.flat.begin() + static_cast<std::ptrdiff_t>(offset);
  };

  // Deadline policy: expiry is judged once, at flush time. A request whose
  // deadline passed while it waited for lane-mates is failed with
  // kDeadlineExceeded instead of being sorted late (a batched request
  // expires as a whole); the rest of the group is compacted and still
  // sorted. The group's buffer is the only one: the live rows move forward
  // over the expired ones, the sort runs in place, and a lone live request
  // takes the whole sorted buffer as its response payload.
  const auto flushed_at = Clock::now();
  std::vector<char> expired(n, 0);
  std::size_t n_expired = 0;
  std::size_t total_rounds = 0;
  std::size_t live_rounds = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& deadline = group.requests[i].request.deadline;
    total_rounds += rounds_of(i);
    if (deadline && *deadline < flushed_at) {
      expired[i] = 1;
      ++n_expired;
    } else {
      live_rounds += rounds_of(i);
    }
  }
  const std::size_t n_live = n - n_expired;

  Status run_status;
  if (n_live > 0) {
    if (n_expired > 0) {
      std::size_t offset = 0;
      std::size_t live = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t width = rounds_of(i) * round_trits;
        if (!expired[i]) {
          std::copy(row(offset), row(offset + width), row(live));
          live += width;
        }
        offset += width;
      }
      group.flat.resize(live);
    }
    try {
      run_status = group.sorter->sort_batch_flat(group.flat, group.flat);
    } catch (const std::exception& e) {
      run_status = Status::internal(e.what());
    } catch (...) {
      run_status = Status::internal("sort_batch_flat threw");
    }
  }

  // Metrics are recorded *before* the completions run, so a client that
  // observed its response also observes the batch in the metrics. Lane
  // occupancy is measured in rounds (what actually fills engine lanes);
  // completed/failed/expired count requests.
  const auto done_at = Clock::now();
  const auto since_ns = [](Clock::time_point from, Clock::time_point to) {
    return static_cast<std::uint64_t>(
        std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                   .count()));
  };
  const std::uint64_t execute_ns = since_ns(flushed_at, done_at);
  if (n_live > 0) metrics_.record_execute(execute_ns);
  for (std::size_t i = 0; i < n; ++i) {
    const PendingSort& pending = group.requests[i];
    const std::uint64_t queue_ns = since_ns(pending.enqueued, flushed_at);
    const std::uint64_t total_ns = since_ns(pending.enqueued, done_at);
    metrics_.record_queue(queue_ns);
    if (!expired[i] && run_status.ok()) metrics_.record_latency(total_ns);
    SlowRequest slow;
    slow.channels = pending.request.shape.channels;
    slow.bits = pending.request.shape.bits;
    slow.rounds = pending.request.rounds;
    slow.total_ns = total_ns;
    slow.queue_ns = queue_ns;
    slow.execute_ns = expired[i] ? 0 : execute_ns;
    slow.code = expired[i] ? StatusCode::kDeadlineExceeded
                           : run_status.code();
    slow_ring_.offer(slow);
  }
  metrics_.on_batch(n, total_rounds, group.cause,
                    run_status.ok() ? 0 : n_live, n_expired);
  if (n_live > 0 && run_status.ok()) {
    pool_.record_batch(group.sorter->channels(), group.sorter->bits(),
                       live_rounds, execute_ns);
  }

  std::size_t live_offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    PendingSort& pending = group.requests[i];
    const std::size_t width = rounds_of(i) * round_trits;
    SortResponse response;
    response.shape = pending.request.shape;
    response.rounds = pending.request.rounds;
    response.values_requested = pending.request.values_requested;
    response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
        done_at - pending.enqueued);
    if (expired[i]) {
      response.status = Status::deadline_exceeded(
          "request expired before its batch flushed");
    } else {
      response.status = run_status;
      if (run_status.ok() && n_live == 1) {
        response.payload = std::move(group.flat);
      } else if (run_status.ok()) {
        response.payload.assign(row(live_offset), row(live_offset + width));
      }
      live_offset += width;
    }
    pending.done(std::move(response));
  }
  release_inflight(total_rounds);
}

std::string SortService::stats_json() const {
  proc_stats_.refresh();
  std::string out = "{\"metrics\": ";
  out += opt_.registry->json();
  out += ", \"slow_requests\": ";
  out += slow_ring_.json();
  out += "}";
  return out;
}

std::string SortService::stats_prometheus() const {
  proc_stats_.refresh();
  return opt_.registry->prometheus();
}

void SortService::publish_ready(BatchGroup group) {
  if (std::optional<BatchGroup> refused = ready_.push(std::move(group))) {
    fail_group(std::move(*refused), "SortService: batch queue closed");
  }
}

void SortService::fail_group(BatchGroup group, const char* reason) {
  std::size_t total_rounds = 0;
  for (PendingSort& pending : group.requests) {
    total_rounds += pending.request.rounds;
    metrics_.on_rejected();
    pending.done(SortResponse::failure(Status::unavailable(reason),
                                       pending.request.shape,
                                       pending.request.values_requested,
                                       pending.request.rounds));
  }
  release_inflight(total_rounds);
}

void SortService::release_inflight(std::size_t n) {
  {
    std::lock_guard lock(inflight_mu_);
    inflight_ -= std::min(n, inflight_);
  }
  inflight_cv_.notify_all();
}

}  // namespace mcsn
