#include "mcsn/serve/metrics.hpp"

#include <algorithm>
#include <locale>
#include <sstream>

namespace mcsn {

void SlowRequestRing::offer(const SlowRequest& r) noexcept {
  if (capacity_ == 0) return;
  // Fast path: the ring is full and this request is not slower than its
  // floor — one relaxed load, no lock. The floor only rises, so a stale
  // read can at worst admit a request that then loses inside the lock.
  if (r.total_ns <= floor_.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(mu_);
  if (items_.size() < capacity_) {
    items_.push_back(r);
    if (items_.size() < capacity_) return;  // floor stays 0: still room
  } else {
    auto slowest_min =
        std::min_element(items_.begin(), items_.end(),
                         [](const SlowRequest& a, const SlowRequest& b) {
                           return a.total_ns < b.total_ns;
                         });
    if (slowest_min->total_ns >= r.total_ns) return;  // lost the re-check
    *slowest_min = r;
  }
  const auto new_min =
      std::min_element(items_.begin(), items_.end(),
                       [](const SlowRequest& a, const SlowRequest& b) {
                         return a.total_ns < b.total_ns;
                       });
  floor_.store(new_min->total_ns, std::memory_order_relaxed);
}

std::vector<SlowRequest> SlowRequestRing::snapshot() const {
  std::vector<SlowRequest> out;
  {
    std::lock_guard lock(mu_);
    out = items_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowRequest& a, const SlowRequest& b) {
              return a.total_ns > b.total_ns;
            });
  return out;
}

std::string SlowRequestRing::json() const {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "[";
  bool first = true;
  for (const SlowRequest& r : snapshot()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"channels\": " << r.channels << ", \"bits\": " << r.bits
       << ", \"rounds\": " << r.rounds << ", \"total_ns\": " << r.total_ns
       << ", \"queue_ns\": " << r.queue_ns
       << ", \"execute_ns\": " << r.execute_ns
       << ", \"status\": " << static_cast<int>(r.code) << "}";
  }
  os << "]";
  return os.str();
}

ServiceMetrics::ServiceMetrics(MetricsRegistry& registry)
    : submitted_(registry.counter("serve_submitted_total")),
      completed_(registry.counter("serve_completed_total")),
      rejected_(registry.counter("serve_rejected_total")),
      failed_(registry.counter("serve_failed_total")),
      expired_(registry.counter("serve_expired_total")),
      batches_(registry.counter("serve_batches_total")),
      flush_full_(registry.counter("serve_flush_total",
                                   {{"cause", "lane_full"}})),
      flush_window_(registry.counter("serve_flush_total",
                                     {{"cause", "window"}})),
      flush_drain_(registry.counter("serve_flush_total",
                                    {{"cause", "drain"}})),
      latency_ns_(registry.histogram("serve_latency_ns")),
      batch_lanes_(registry.histogram("serve_batch_lanes")),
      queue_ns_(registry.histogram("stage_queue_ns")),
      execute_ns_(registry.histogram("stage_execute_ns")) {}

void ServiceMetrics::on_batch(std::size_t requests, std::size_t lanes,
                              FlushCause cause, std::uint64_t failed,
                              std::uint64_t expired) noexcept {
  batches_.add();
  switch (cause) {
    case FlushCause::lane_full: flush_full_.add(); break;
    case FlushCause::window: flush_window_.add(); break;
    case FlushCause::drain: flush_drain_.add(); break;
  }
  batch_lanes_.record(lanes);
  if (failed > 0) failed_.add(failed);
  if (expired > 0) expired_.add(expired);
  completed_.add(requests - failed - expired);
}

}  // namespace mcsn
