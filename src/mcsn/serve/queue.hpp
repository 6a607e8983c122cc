#pragma once
// Close-able MPMC work queue for the streaming sort service: push never
// waits (the service bounds what can be queued at admission), timed pop
// lets consumers double as flush timers, wake() interrupts one waiting
// consumer without queueing anything, and close() drains gracefully —
// items already queued are still handed out, then pop returns nullopt.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace mcsn {

template <typename T>
class WorkQueue {
 public:
  WorkQueue() = default;
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Never waits: nullopt when queued, or `item` handed back unconsumed
  /// when the queue is closed, so the caller can fail promises, log, or
  /// retry elsewhere instead of losing it.
  [[nodiscard]] std::optional<T> push(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return std::optional<T>(std::move(item));
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return std::nullopt;
  }

  /// Makes one pop()/pop_until() return nullopt early, as a timeout would,
  /// once no item is left for it. Wakes coalesce, so they never pile up.
  void wake() {
    {
      std::lock_guard lock(mu_);
      woken_ = true;
    }
    not_empty_.notify_one();
  }

  /// Blocks until an item is available, a wake(), or close-and-drain.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [this] { return ready(); });
    return take();
  }

  /// Like pop(), but gives up at `deadline`; nullopt on timeout too.
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock lock(mu_);
    not_empty_.wait_until(lock, deadline, [this] { return ready(); });
    return take();
  }

  /// Refuses further pushes and wakes every waiting consumer. Consumers
  /// still drain items queued before the close.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  /// True when no item is queued (a pending wake is not an item).
  [[nodiscard]] bool empty() const {
    std::lock_guard lock(mu_);
    return items_.empty();
  }

 private:
  bool ready() const { return !items_.empty() || woken_ || closed_; }

  std::optional<T> take() {
    if (items_.empty()) {  // woken, timed out, or closed + drained
      woken_ = false;
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool woken_ = false;
  bool closed_ = false;
};

}  // namespace mcsn
