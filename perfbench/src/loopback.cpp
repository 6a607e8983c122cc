#include "loopback.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <semaphore>
#include <thread>

#include "mcsn/serve/wire.hpp"

namespace perfbench {

namespace {

using mcsn::Status;

/// Ring slots for per-frame send/free stamps in the closed loop; frame j
/// reuses slot j % kRing only after frame j - window has completed.
constexpr std::size_t kRing = 64;
/// Bound on any single blocking socket call: a wedged server turns into a
/// reported failure instead of a hung benchmark.
constexpr int kSocketTimeoutS = 10;
/// Open-loop arrivals continue this long after the measured window.
constexpr std::int64_t kOpenLoopTailNs = 50'000'000;
/// Window slicing for the reported figures (see window_stats): each slice
/// holds at least kSliceSamples latency samples (so its p99 has 20 samples
/// beyond it) and lasts at least kMinSliceS, unless the whole window is
/// one slice.
constexpr std::size_t kSliceSamples = 2000;
constexpr double kMinSliceS = 1.0;
constexpr std::size_t kMaxSlices = 30;
/// One CPU per busy thread: the service worker, the event loop, and the
/// load generator's sender and receiver.
constexpr int kWorkerCpu = 0;
constexpr int kLoopCpu = 1;
constexpr int kSenderCpu = 2;
constexpr int kReceiverCpu = 3;

/// Reads whole frames off a blocking socket.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd), buf_(std::size_t{1} << 20) {}

  /// The next complete frame (a view into the reader's buffer, valid until
  /// the following call).
  Status next(mcsn::wire::FrameView& view, SpanLog* log, std::uint64_t seq) {
    buf_begin_ += pending_consume_;
    pending_consume_ = 0;
    while (true) {
      mcsn::StatusOr<std::optional<mcsn::wire::FrameView>> parsed =
          mcsn::wire::try_parse_frame(std::span<const std::uint8_t>(
              buf_.data() + buf_begin_, buf_end_ - buf_begin_));
      if (!parsed.ok()) return parsed.status();
      if (parsed->has_value()) {
        view = **parsed;
        pending_consume_ = view.frame_size;
        return Status();
      }
      if (buf_begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + buf_begin_, buf_end_ - buf_begin_);
        buf_end_ -= buf_begin_;
        buf_begin_ = 0;
      }
      if (buf_end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      const std::uint32_t span =
          log != nullptr ? log->begin(kClientRecv, seq) : 0;
      const ssize_t n =
          ::recv(fd_, buf_.data() + buf_end_, buf_.size() - buf_end_, 0);
      if (log != nullptr) log->end(span);
      if (n == 0) return Status::unavailable("connection closed");
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::unavailable(std::string("recv: ") + std::strerror(errno));
      }
      buf_end_ += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t buf_begin_ = 0;
  std::size_t buf_end_ = 0;
  std::size_t pending_consume_ = 0;
};

Status send_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::unavailable(std::string("send: ") + std::strerror(errno));
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  return Status();
}

/// Checks one response frame against the reference answer; empty on
/// success, else what was wrong.
std::string check_response(const mcsn::wire::FrameView& view, const Frame& f,
                           SpanLog* log, std::uint64_t seq) {
  const std::uint32_t span = log != nullptr ? log->begin(kClientDecode, seq) : 0;
  mcsn::StatusOr<mcsn::SortResponse> rsp =
      view.type == mcsn::wire::FrameType::batch_response
          ? mcsn::wire::decode_batch_response(view.body)
      : view.type == mcsn::wire::FrameType::response
          ? mcsn::wire::decode_response(view.body)
          : mcsn::StatusOr<mcsn::SortResponse>(
                Status::data_loss("unexpected frame type"));
  if (log != nullptr) log->end(span);
  if (!rsp.ok()) return "undecodable response: " + rsp.status().to_string();
  if (!rsp->status.ok()) return "refused: " + rsp->status.to_string();
  if (rsp->shape != f.shape || rsp->rounds != f.rounds) {
    return "response shape/rounds differ from the request";
  }
  if (rsp->payload != f.expect) return "wrong answer (differs from reference)";
  return {};
}

void set_socket_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kSocketTimeoutS;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

std::int64_t cpu_sum(const std::vector<pid_t>& tids) {
  std::int64_t sum = 0;
  for (const pid_t tid : tids) sum += std::max<std::int64_t>(0, thread_cpu_ns(tid));
  return sum;
}

std::vector<pid_t> new_tids(const std::vector<pid_t>& before) {
  std::vector<pid_t> out;
  for (const pid_t tid : process_tids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) out.push_back(tid);
  }
  return out;
}

}  // namespace

WindowStats window_stats(const LoopbackResult& r) {
  WindowStats out;
  const std::int64_t window_ns = static_cast<std::int64_t>(r.window_s * 1e9);
  const std::size_t by_samples = r.latency_us.size() / kSliceSamples;
  const auto by_time = static_cast<std::size_t>(r.window_s / kMinSliceS);
  out.slices = std::clamp<std::size_t>(std::min(by_samples, by_time), 1, kMaxSlices);
  if (window_ns <= 0) return out;
  const auto slice_of = [&](std::int64_t at_ns) {
    return std::min(out.slices - 1,
                    static_cast<std::size_t>(at_ns * static_cast<std::int64_t>(out.slices) /
                                             window_ns));
  };
  std::vector<std::vector<double>> lat(out.slices);
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    lat[slice_of(r.latency_at_ns[i])].push_back(r.latency_us[i]);
  }
  std::vector<double> rounds(out.slices, 0.0);
  for (const auto& [at_ns, n] : r.rounds_at) rounds[slice_of(at_ns)] += static_cast<double>(n);
  const double slice_s = r.window_s / static_cast<double>(out.slices);
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t j = 0; j < out.slices; ++j) {
    rate.push_back(rounds[j] / slice_s);
    p50.push_back(percentile(lat[j], 0.50));
    p99.push_back(percentile(lat[j], 0.99));
  }
  out.rounds_per_s = median(rate);
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  return out;
}

Stack::~Stack() {
  client.close();
  if (server) server->stop();
  if (service) service->stop();
}

std::unique_ptr<Stack> set_up(const Workload& w, std::string& error) {
  auto stack = std::make_unique<Stack>();
  mcsn::ServeOptions opt;
  opt.workers = 1;
  opt.warmup_shapes = w.shapes;
  mcsn::net::SocketOptions sopt;
  sopt.loops = 1;
  // Room for the closed loops' whole window of 256-round frames, and for
  // open-loop bursts, so the loop never pauses reading this connection.
  sopt.max_inflight = 4096;
  // Only the program's own calls are timed; the thread-id scans and the
  // pinning between them are the benchmark's bookkeeping.
  Clock::duration timed{};
  const auto timed_call = [&timed](auto&& call) {
    const auto t0 = Clock::now();
    auto out = call();
    timed += Clock::now() - t0;
    return out;
  };
  const std::vector<pid_t> before = process_tids();
  stack->service = timed_call([&] { return std::make_unique<mcsn::SortService>(opt); });
  stack->worker_tids = new_tids(before);
  const std::vector<pid_t> before_loop = process_tids();
  const Status started = timed_call([&] {
    stack->server = std::make_unique<mcsn::net::SocketServer>(*stack->service, sopt);
    return stack->server->start();
  });
  if (!started.ok()) {
    error = "server start: " + started.to_string();
    return nullptr;
  }
  stack->loop_tids = new_tids(before_loop);
  for (const pid_t tid : stack->worker_tids) pin_thread(tid, kWorkerCpu);
  for (const pid_t tid : stack->loop_tids) pin_thread(tid, kLoopCpu);
  mcsn::StatusOr<mcsn::net::SortClient> client = timed_call([&] {
    return mcsn::net::SortClient::connect("127.0.0.1", stack->server->port());
  });
  stack->setup_s = std::chrono::duration<double>(timed).count();
  if (!client.ok()) {
    error = "connect: " + client.status().to_string();
    return nullptr;
  }
  stack->client = std::move(*client);
  set_socket_timeouts(stack->client.native_handle());
  return stack;
}

LoopbackResult run_loopback(Stack& stack, const Workload& w, double warmup_s,
                            double seconds, const ClientTrace& trace) {
  LoopbackResult res;
  const int fd = stack.client.native_handle();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto window_begin =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const auto window_end =
      window_begin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // The open-loop schedule runs a little past the window so the sender is
  // still working when the window closes.
  const std::int64_t horizon_ns = to_ns(window_end - start) + kOpenLoopTailNs;
  const auto in_window = [&](Clock::time_point t) {
    return t >= window_begin && t < window_end;
  };

  // posted = 2 * frames sent + (1 once the sender has finished).
  std::atomic<std::uint64_t> posted{0};
  std::atomic<bool> stop{false};
  // Client threads publish their tid on start and their CPU time on exit
  // (a thread may finish before the window's closing CPU reading).
  std::atomic<pid_t> send_tid{0};
  std::atomic<pid_t> recv_tid{0};
  std::atomic<std::int64_t> send_cpu_at_exit{-1};
  std::atomic<std::int64_t> recv_cpu_at_exit{-1};
  std::counting_semaphore<kRing> slots(static_cast<std::ptrdiff_t>(w.window));
  std::array<std::atomic<std::int64_t>, kRing> send_at{};
  std::array<std::atomic<std::int64_t>, kRing> free_at{};
  const std::int64_t start_ns = to_ns(start.time_since_epoch());
  for (auto& a : free_at) a.store(start_ns, std::memory_order_relaxed);

  std::string send_error;
  std::vector<double> lag_us;
  std::thread sender([&] {
    send_tid.store(current_tid());
    pin_thread(current_tid(), kSenderCpu);
    std::vector<std::uint8_t> encoded;
    std::uint64_t sent = 0;
    for (std::uint64_t seq = 0;; ++seq) {
      Clock::time_point due;
      if (w.open_loop) {
        if (seq >= w.due_ns.size() || w.due_ns[seq] >= horizon_ns) break;
        due = start + std::chrono::nanoseconds(w.due_ns[seq]);
        while (Clock::now() < due) {
        }
      } else {
        bool acquired = false;
        while (!stop.load(std::memory_order_relaxed) &&
               !(acquired = slots.try_acquire_for(std::chrono::milliseconds(5)))) {
        }
        if (!acquired) break;
        due = Clock::time_point(std::chrono::nanoseconds(
            free_at[seq % kRing].load(std::memory_order_relaxed)));
      }
      const std::size_t index = w.frame_of(seq);
      const Frame& f = w.frames[index];
      std::span<const std::uint8_t> bytes = f.bytes;
      if (trace.send != nullptr) {
        const std::uint32_t span = trace.send->begin(kClientEncode, seq);
        const mcsn::SortRequest& request = (*trace.requests)[index];
        encoded = f.rounds > 1 ? mcsn::wire::encode_batch_request(request)
                               : mcsn::wire::encode_request(request);
        trace.send->end(span);
        bytes = encoded;
      }
      const Clock::time_point sent_at = Clock::now();
      if (!w.open_loop) {
        send_at[seq % kRing].store(to_ns(sent_at.time_since_epoch()),
                                   std::memory_order_relaxed);
      }
      if (in_window(due)) {
        lag_us.push_back(static_cast<double>(to_ns(sent_at - due)) / 1e3);
      }
      const std::uint32_t span =
          trace.send != nullptr ? trace.send->begin(kClientSend, seq) : 0;
      const Status s = send_all(fd, bytes);
      if (trace.send != nullptr) trace.send->end(span);
      if (!s.ok()) {
        send_error = s.to_string();
        break;
      }
      res.request_bytes += bytes.size();
      sent = seq + 1;
      posted.store(sent * 2, std::memory_order_release);
      posted.notify_one();
      if (!w.open_loop && Clock::now() >= window_end) break;
    }
    send_cpu_at_exit.store(thread_cpu_ns(current_tid()));
    posted.store(sent * 2 + 1, std::memory_order_release);
    posted.notify_one();
  });

  std::uint64_t received = 0;
  std::thread receiver([&] {
    recv_tid.store(current_tid());
    pin_thread(current_tid(), kReceiverCpu);
    struct RecordCpuAtExit {
      std::atomic<std::int64_t>& out;
      ~RecordCpuAtExit() { out.store(thread_cpu_ns(current_tid())); }
    } record_cpu{recv_cpu_at_exit};
    FrameReader reader(fd);
    for (std::uint64_t seq = 0;; ++seq) {
      std::uint64_t p = posted.load(std::memory_order_acquire);
      while (seq >= p / 2) {
        if (p % 2 == 1) return;
        posted.wait(p, std::memory_order_acquire);
        p = posted.load(std::memory_order_acquire);
      }
      mcsn::wire::FrameView view;
      if (const Status s = reader.next(view, trace.recv, seq); !s.ok()) {
        if (res.first_error.empty()) res.first_error = "receive: " + s.to_string();
        stop.store(true);
        // Unblock a sender stuck against a server that stopped reading.
        ::shutdown(fd, SHUT_WR);
        return;
      }
      const Clock::time_point now = Clock::now();
      const std::size_t index = w.frame_of(seq);
      const Frame& f = w.frames[index];
      if (std::string err = check_response(view, f, trace.recv, seq); !err.empty()) {
        ++res.failed;
        if (res.first_error.empty()) {
          res.first_error = err + " (frame " + std::to_string(index) + ")";
        }
      }
      const Clock::time_point began =
          w.open_loop ? start + std::chrono::nanoseconds(w.due_ns[seq])
                      : Clock::time_point(std::chrono::nanoseconds(
                            send_at[seq % kRing].load(std::memory_order_relaxed)));
      if (in_window(began)) {
        res.latency_us.push_back(static_cast<double>(to_ns(now - began)) / 1e3);
        res.latency_at_ns.push_back(to_ns(began - window_begin));
      }
      if (in_window(now)) {
        res.window_rounds += f.rounds;
        res.rounds_at.push_back({to_ns(now - window_begin), f.rounds});
      }
      res.response_bytes += view.frame_size;
      res.rounds += f.rounds;
      received = seq + 1;
      if (!w.open_loop) {
        free_at[(seq + w.window) % kRing].store(to_ns(now.time_since_epoch()),
                                                std::memory_order_relaxed);
        slots.release();
      }
    }
  });

  const auto client_cpu = [](const std::atomic<pid_t>& tid,
                             const std::atomic<std::int64_t>& at_exit) {
    const std::int64_t live = thread_cpu_ns(tid.load());
    return live >= 0 ? live : at_exit.load();
  };
  std::this_thread::sleep_until(window_begin);
  const std::int64_t loop0 = cpu_sum(stack.loop_tids);
  const std::int64_t worker0 = cpu_sum(stack.worker_tids);
  const std::int64_t send0 = client_cpu(send_tid, send_cpu_at_exit);
  const std::int64_t recv0 = client_cpu(recv_tid, recv_cpu_at_exit);
  std::this_thread::sleep_until(window_end);
  const double wall_ns = static_cast<double>(to_ns(Clock::now() - window_begin));
  const std::int64_t loop1 = cpu_sum(stack.loop_tids);
  const std::int64_t worker1 = cpu_sum(stack.worker_tids);
  const std::int64_t send1 = client_cpu(send_tid, send_cpu_at_exit);
  const std::int64_t recv1 = client_cpu(recv_tid, recv_cpu_at_exit);
  stop.store(true);
  sender.join();
  receiver.join();
  res.loop_busy = static_cast<double>(loop1 - loop0) / wall_ns;
  res.worker_busy = static_cast<double>(worker1 - worker0) / wall_ns;
  res.send_busy = static_cast<double>(send1 - send0) / wall_ns;
  res.recv_busy = static_cast<double>(recv1 - recv0) / wall_ns;

  res.window_s = seconds;
  res.attempted = posted.load() / 2;
  res.lag_us = std::move(lag_us);
  if (!send_error.empty()) {
    ++res.failed;
    if (res.first_error.empty()) res.first_error = "send: " + send_error;
  }
  if (received < res.attempted) {
    res.failed += res.attempted - received;
    if (res.first_error.empty()) res.first_error = "responses missing";
  }
  return res;
}

}  // namespace perfbench
