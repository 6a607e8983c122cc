#include "mcsn/serve/net/socket_server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include "mcsn/serve/net/conn_fsm.hpp"
#include "mcsn/serve/net/detail.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/util/metrics_registry.hpp"

namespace mcsn::net {

namespace {

using Clock = std::chrono::steady_clock;
using detail::errno_text;
using detail::kReadChunk;

/// Default poller timeout when no deadline is nearer: bounds how stale the
/// idle sweep can get without costing measurable wakeup load.
constexpr int kSweepMs = 100;

/// listen(2) backlog of every listener.
constexpr int kListenBacklog = 128;

/// How long stop() waits for owed responses to flush before force-closing
/// the remaining connections.
constexpr std::chrono::milliseconds kDrainTimeout{5000};

/// Every socket the server creates is non-blocking and close-on-exec from
/// birth: socket() and accept4() take these flags (pipe2() their O_ twins
/// for the wake pipes), so no fd needs fcntl calls after it exists.
constexpr int kFdFlags = SOCK_NONBLOCK | SOCK_CLOEXEC;

void set_nodelay(int fd) {
  // Request/response frames are latency-sensitive and tiny; Nagle would
  // serialize pipelined clients onto RTT boundaries. (A no-op failure on
  // AF_UNIX sockets, which have no Nagle to disable.)
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

// --- poller -----------------------------------------------------------------

/// One loop's epoll instance, level-triggered (the loop re-reads until
/// EAGAIN anyway, and level-triggered EPOLLOUT is disarmed the moment the
/// write queue empties).
class Epoll {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// Error/hangup: handled through the read path (read() observes the
    /// failure or EOF), so it is folded into `readable`.
    bool error = false;
  };

  Epoll() = default;
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;
  ~Epoll() {
    if (epfd_ >= 0) ::close(epfd_);
  }

  [[nodiscard]] Status init() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return Status::unavailable(errno_text("epoll_create1"));
    return Status();
  }

  [[nodiscard]] Status add(int fd, bool rd, bool wr) {
    epoll_event ev = make_event(fd, rd, wr);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Status::unavailable(errno_text("epoll_ctl(ADD)"));
    }
    return Status();
  }

  void set(int fd, bool rd, bool wr) {
    epoll_event ev = make_event(fd, rd, wr);
    (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void remove(int fd) { (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Blocks up to timeout_ms (-1 = forever), appends ready fds to `out`.
  Status wait(int timeout_ms, std::vector<Event>& out) {
    epoll_event events[64];
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status();
      return Status::unavailable(errno_text("epoll_wait"));
    }
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = events[i].data.fd;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      e.readable = (events[i].events & EPOLLIN) != 0 || e.error;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      out.push_back(e);
    }
    return Status();
  }

 private:
  static epoll_event make_event(int fd, bool rd, bool wr) {
    epoll_event ev{};
    ev.events = (rd ? EPOLLIN : 0u) | (wr ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ev;
  }

  int epfd_ = -1;
};

// --- connection state -------------------------------------------------------

/// One encoded response frame owed to the peer, weighted by the rounds it
/// answers (1 for single-round frames) — the unit the per-connection
/// flow-control cap counts.
struct OwedFrame {
  std::vector<std::uint8_t> bytes;
  std::size_t rounds = 1;
  /// When the encoded frame was filed for writing — start of the write
  /// stage (stage_write_ns measures from here to the last byte sent).
  Clock::time_point enqueued{};
};

struct Connection : std::enable_shared_from_this<Connection> {
  explicit Connection(int fd_in) : fd(fd_in) {}

  int fd = -1;

  // Loop-thread-only state.
  std::vector<std::uint8_t> rbuf;  ///< accumulated, not-yet-parsed bytes
  std::deque<OwedFrame> wqueue;    ///< encoded frames owed, in order
  std::size_t woff = 0;        ///< bytes of wqueue.front() already written
  std::uint64_t next_seq = 0;  ///< sequence of the next decoded request
  std::uint64_t next_flush = 0;  ///< next sequence owed to the write queue
  std::uint64_t written = 0;     ///< response frames fully written
  /// Rounds decoded but not yet fully written back — the flow-control
  /// quantity (see pending()). Incremented at submit time, decremented as
  /// each owed frame finishes writing.
  std::size_t pending_rounds = 0;
  bool peer_eof = false;  ///< client half-closed; flush owed, then close
  bool teardown = false;  ///< protocol error; close once wqueue drains
  bool want_read = true;  ///< current poller read interest
  bool want_write = false;
  Clock::time_point last_activity = Clock::now();
  /// Checked lifecycle mirror of the booleans above (loop-thread-only,
  /// like them). Aborts on an illegal transition in debug/MCSN_VERIFY
  /// builds — see conn_fsm.hpp for the legal event table.
  ConnFsm fsm;

  /// Responses completed but not yet released in sequence order. The only
  /// cross-thread state: service completions insert, the loop drains.
  std::mutex mu;
  std::map<std::uint64_t, OwedFrame> done;

  /// Rounds decoded but not yet *fully written back* — the flow-control
  /// quantity. Counting only until release-to-write-queue would let a
  /// client that sends but never reads grow wqueue without bound; this
  /// way the backlog per connection is capped at max_inflight rounds'
  /// worth of encoded frames.
  [[nodiscard]] std::size_t pending() const { return pending_rounds; }
  [[nodiscard]] bool drained() const { return pending() == 0; }
};

/// Completion-side shared state, one per loop, kept alive by every
/// in-flight callback so a completion that outraces stop() still has
/// somewhere safe to land. Also the inbox for connection handoff: the
/// accepting loop parks dispatched fds in `adopted` and wakes the owner.
struct CompletionSink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::shared_ptr<Connection>> dirty;
  std::vector<int> adopted;  ///< accepted fds awaiting adoption by this loop
  std::size_t outstanding = 0;
  int wake_fd = -1;  ///< write end of the loop's self-pipe; -1 once closed
};

void wake_locked(CompletionSink& sink) {
  if (sink.wake_fd < 0) return;
  const char byte = 1;
  // EAGAIN just means wakeups are already queued; either way the loop runs.
  [[maybe_unused]] ssize_t n = ::write(sink.wake_fd, &byte, 1);
}

}  // namespace

// --- server impl ------------------------------------------------------------

struct SocketServer::Impl {
  SortService& service;
  const SocketOptions opt;

  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  std::uint16_t bound_port = 0;
  std::string uds_bound_path;  ///< unlinked on stop()

  /// Connections alive (or reserved: accepted and in a handoff inbox)
  /// across all loops — the max_connections quantity.
  std::atomic<std::size_t> open_conns{0};

  /// Round-robin cursor for handing accepted fds to loops. Only loop 0,
  /// which owns every listener, touches it, so it needs no
  /// synchronization.
  std::size_t rr_next = 0;

  /// Stage-latency histograms in the service's registry (shared across
  /// loops; registered by start() before any loop thread spawns):
  /// decode = wire bytes -> SortRequest, encode = SortResponse -> wire
  /// bytes, write = frame filed -> last byte sent.
  AtomicHistogram* decode_ns = nullptr;
  AtomicHistogram* encode_ns = nullptr;
  AtomicHistogram* write_ns = nullptr;

  Impl(SortService& svc, SocketOptions options)
      : service(svc), opt(std::move(options)) {}

  // --- one event loop -------------------------------------------------------

  struct Loop {
    Impl* srv = nullptr;
    std::size_t index = 0;

    Epoll poller;
    int wake_rd = -1;
    /// Listening sockets; only loop 0 has any.
    std::vector<int> listeners;
    std::thread thread;

    std::unordered_map<int, std::shared_ptr<Connection>> conns;
    std::vector<int> pending_close;  ///< defer close to end of event batch
    /// Listener re-arm time after an fd/memory-exhausted accept (see
    /// accept_ready); unset while the listeners are armed normally.
    std::optional<Clock::time_point> listener_muted_until;
    /// Loop-thread recv staging: recv lands here and only the bytes
    /// actually read are appended to a connection's rbuf (resizing rbuf by
    /// kReadChunk up front would zero-fill 64 KiB per recv call).
    std::vector<std::uint8_t> read_scratch =
        std::vector<std::uint8_t>(kReadChunk);
    std::shared_ptr<CompletionSink> sink = std::make_shared<CompletionSink>();

    /// Per-loop counters: handles into the service's MetricsRegistry
    /// (socket_*_total series labeled loop="<index>"), registered by
    /// start() before the loop thread spawns.
    Counter* accepted = nullptr;
    Counter* rejected = nullptr;
    Counter* closed = nullptr;
    Counter* requests = nullptr;
    Counter* batch_requests = nullptr;
    Counter* rounds = nullptr;
    Counter* responses = nullptr;
    Counter* protocol_errors = nullptr;
    Counter* idle_closed = nullptr;
    Counter* stats_requests = nullptr;
    Counter* fsm_violations = nullptr;

    [[nodiscard]] bool owns_listener(int fd) const {
      return std::find(listeners.begin(), listeners.end(), fd) !=
             listeners.end();
    }

    // --- event loop ---------------------------------------------------------

    void run() {
      std::vector<Epoll::Event> events;
      std::optional<Clock::time_point> drain_deadline;
      bool accepting = true;
      for (;;) {
        events.clear();
        (void)poller.wait(poll_timeout_ms(), events);
        const Clock::time_point now = Clock::now();

        if (listener_muted_until && now >= *listener_muted_until) {
          listener_muted_until.reset();
          if (accepting) {
            for (const int fd : listeners) poller.set(fd, true, false);
          }
        }

        for (const Epoll::Event& ev : events) {
          if (ev.fd == wake_rd) {
            drain_wake_pipe();
          } else if (owns_listener(ev.fd)) {
            if (accepting) accept_ready(ev.fd, now);
          } else if (const auto it = conns.find(ev.fd); it != conns.end()) {
            const std::shared_ptr<Connection>& conn = it->second;
            if (ev.error) {
              // EPOLLHUP/EPOLLERR: the peer is gone in both directions, so
              // owed responses have no reader. (A half-close arrives as a
              // plain readable event with read() == 0 instead.)
              schedule_close(*conn);
              continue;
            }
            // Writable events go through the full pump, not bare
            // handle_write: the pump re-parses frames that buffered while
            // writes had the connection paused, and ends in
            // update_interest so a fully flushed queue disarms
            // level-triggered EPOLLOUT (a bare flush would leave it armed
            // on an always-writable socket and spin the loop).
            if (ev.writable) pump_completions(*conn, now);
            if (ev.readable && conn->fd >= 0) handle_read(*conn, now);
          }
        }

        drain_adopted(now, accepting);
        drain_dirty(now);
        flush_pending_close();

        if (srv->opt.idle_timeout.count() > 0) sweep_idle(now);
        flush_pending_close();

        if (srv->stopping.load(std::memory_order_relaxed)) {
          if (accepting) {
            accepting = false;
            for (const int fd : listeners) {
              poller.remove(fd);
              ::close(fd);
            }
            listeners.clear();
            drain_deadline = now + kDrainTimeout;
            // No new requests: stop reading everywhere, keep flushing.
            for (auto& [fd, conn] : conns) {
              conn->peer_eof = true;
              if (conn->fd >= 0) conn->fsm.peer_half_closed();
              update_interest(*conn);
            }
          }
          for (auto& [fd, conn] : conns) {
            if (conn->drained() || now >= *drain_deadline) {
              schedule_close(*conn);
            }
          }
          flush_pending_close();
          // The only way out: stopping, listeners closed, every
          // connection torn down — nothing is left to clean up after the
          // loop.
          if (conns.empty()) break;
        }
      }
    }

    int poll_timeout_ms() const {
      if (srv->stopping.load(std::memory_order_relaxed)) return 10;
      return kSweepMs;
    }

    void drain_wake_pipe() {
      char buf[256];
      while (::read(wake_rd, buf, sizeof buf) > 0) {
      }
    }

    // --- accept path --------------------------------------------------------

    /// Accepts every pending connection on `listen_fd` (loop 0 only) and
    /// hands the fds round-robin to every loop, this one included. The
    /// socket_accepted_total count lands where an fd is adopted, so each
    /// loop's accepted and closed counts describe the same connections.
    void accept_ready(int listen_fd, Clock::time_point now) {
      for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr, kFdFlags);
        if (fd < 0) {
          if (errno == EINTR) continue;
          if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
              errno == ENOMEM) {
            // Out of fds/memory: the pending connection stays in the
            // backlog, so the level-triggered listener would re-fire every
            // wait() and spin the loop hot. Mute the listeners for a sweep
            // interval and retry once resources may have freed.
            for (const int listener : listeners) {
              poller.set(listener, false, false);
            }
            listener_muted_until = now + std::chrono::milliseconds(kSweepMs);
          }
          return;  // EAGAIN, or a transient accept failure: wait for the
                   // next readiness notification either way
        }
        // Reserve a connection slot before any handoff so the cap holds
        // across loops: handed-off fds close on other loops, so the count
        // is shared and fetch_add keeps it exact.
        if (srv->open_conns.fetch_add(1, std::memory_order_relaxed) >=
            srv->opt.max_connections) {
          srv->open_conns.fetch_sub(1, std::memory_order_relaxed);
          rejected->add();
          ::close(fd);
          continue;
        }
        set_nodelay(fd);
        if (srv->opt.sndbuf > 0) {
          (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &srv->opt.sndbuf,
                             sizeof srv->opt.sndbuf);
        }
        if (Loop* target = srv->next_dispatch_target(); target != this) {
          // Hand the fd to its loop through the handoff inbox; the target
          // adopts it on its next iteration. All socket options are
          // already applied, so the target never touches a racing
          // syscall path.
          std::lock_guard lock(target->sink->mu);
          target->sink->adopted.push_back(fd);
          wake_locked(*target->sink);
          continue;
        }
        adopt(fd, now);
      }
    }

    /// Registers an accepted (slot-reserved, option-applied) fd with this
    /// loop and counts it accepted here. On failure the slot is returned.
    void adopt(int fd, Clock::time_point now) {
      auto conn = std::make_shared<Connection>(fd);
      conn->last_activity = now;
      if (!poller.add(fd, true, false).ok()) {
        srv->open_conns.fetch_sub(1, std::memory_order_relaxed);
        ::close(fd);
        return;
      }
      accepted->add();
      conns.emplace(fd, std::move(conn));
    }

    /// Adopts fds handed off by the accepting loop — or closes them when
    /// this loop is already past accepting (they arrived after stop()).
    void drain_adopted(Clock::time_point now, bool accepting) {
      std::vector<int> fds;
      {
        std::lock_guard lock(sink->mu);
        fds.swap(sink->adopted);
      }
      for (const int fd : fds) {
        if (!accepting) {
          srv->open_conns.fetch_sub(1, std::memory_order_relaxed);
          accepted->add();
          closed->add();
          ::close(fd);
          continue;
        }
        adopt(fd, now);
      }
    }

    // --- read path ----------------------------------------------------------

    void handle_read(Connection& conn, Clock::time_point now) {
      if (conn.fd < 0 || !conn.want_read) {
        // Paused (inflight cap) or tearing down, but an event raced the
        // interest update — leave the bytes in the socket buffer.
        return;
      }
      // Fault hook: a recv cap simulates a peer trickling bytes — each
      // recv sees at most recv_cap bytes, so frames land fragmented at
      // arbitrary boundaries (the loop below still drains the socket; it
      // just takes more iterations).
      const std::size_t cap = srv->opt.fault.recv_cap;
      const std::size_t want =
          cap > 0 ? std::min(cap, read_scratch.size()) : read_scratch.size();
      for (;;) {
        const ssize_t n = ::recv(conn.fd, read_scratch.data(), want, 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          schedule_close(conn);
          return;
        }
        if (n == 0) {
          conn.peer_eof = true;
          conn.fsm.peer_half_closed();
          parse_frames(conn, now);
          pump_completions(conn, now);  // flush what's ready; close if drained
          return;
        }
        conn.rbuf.insert(conn.rbuf.end(), read_scratch.begin(),
                         read_scratch.begin() + n);
        conn.last_activity = now;
        parse_frames(conn, now);
        if (conn.fd < 0) return;
        if (conn.teardown) {
          pump_completions(conn, now);  // release the error frame if nothing
          return;                       // else is owed ahead of it
        }
        if (conn.pending() >= srv->opt.max_inflight) break;  // paused
        if (static_cast<std::size_t>(n) < want) break;
      }
      update_interest(conn);
    }

    /// Consumes every complete frame in the read buffer, stopping early at
    /// the per-connection inflight cap (remaining bytes stay buffered and
    /// are re-parsed when responses drain) or at a protocol error.
    void parse_frames(Connection& conn, Clock::time_point now) {
      std::size_t pos = 0;
      while (!conn.teardown && conn.pending() < srv->opt.max_inflight) {
        const auto bytes =
            std::span<const std::uint8_t>(conn.rbuf).subspan(pos);
        StatusOr<std::optional<wire::FrameView>> parsed =
            wire::try_parse_frame(bytes);
        if (!parsed.ok()) {
          protocol_error(conn, parsed.status());
          break;
        }
        if (!parsed->has_value()) {
          if (conn.peer_eof && !bytes.empty()) {
            // The stream ended inside a frame: report the truncation before
            // closing. (Unreachable while paused — the loop condition keeps
            // buffered bytes for the post-drain re-parse instead.)
            protocol_error(conn,
                           Status::data_loss("connection closed mid-frame"));
          }
          break;
        }
        const wire::FrameView view = **parsed;
        if (view.type == wire::FrameType::stats_request) {
          // Admin frame: served inline from the loop thread — the stats
          // document never takes a trip through the batcher, but its
          // response still queues in sequence order behind the sorts.
          pos += view.frame_size;
          serve_stats(conn, view.body);
          continue;
        }
        const bool is_batch = view.type == wire::FrameType::batch_request;
        if (view.type != wire::FrameType::request && !is_batch) {
          protocol_error(conn, Status::unimplemented(
                                   "expected a request frame on the server"));
          break;
        }
        const Clock::time_point decode_start = Clock::now();
        StatusOr<SortRequest> request =
            is_batch ? wire::decode_batch_request(view.body, now)
                     : wire::decode_request(view.body, now);
        srv->decode_ns->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - decode_start)
                .count()));
        if (!request.ok()) {
          protocol_error(conn, request.status());
          break;
        }
        pos += view.frame_size;
        submit_request(conn, std::move(*request), is_batch);
      }
      if (conn.teardown) {
        conn.rbuf.clear();
      } else if (pos > 0) {
        conn.rbuf.erase(conn.rbuf.begin(),
                        conn.rbuf.begin() + static_cast<std::ptrdiff_t>(pos));
      }
    }

    void submit_request(Connection& conn, SortRequest request, bool as_batch) {
      const std::uint64_t seq = conn.next_seq++;
      const std::size_t weight = std::max<std::size_t>(request.rounds, 1);
      conn.pending_rounds += weight;
      conn.fsm.request_admitted();
      requests->add();
      rounds->add(weight);
      if (as_batch) batch_requests->add();
      {
        std::lock_guard lock(sink->mu);
        ++sink->outstanding;
      }
      std::shared_ptr<Connection> self = conn.shared_from_this();
      std::shared_ptr<CompletionSink> sink_ref = sink;
      // May block under service-wide backpressure (see the header note);
      // the per-connection cap keeps that rare. Completions run on service
      // workers, or inline right here on synchronous rejection — both only
      // touch the done-map and the sink. The response frame mirrors the
      // request frame's type, so a batch request always answers with a
      // batch response.
      srv->service.submit(
          std::move(request),
          [self = std::move(self), sink_ref = std::move(sink_ref), seq, weight,
           as_batch, encode_ns = srv->encode_ns](SortResponse response) {
            const Clock::time_point encode_start = Clock::now();
            std::vector<std::uint8_t> frame =
                as_batch ? wire::encode_batch_response(response)
                         : wire::encode_response(response);
            const Clock::time_point encoded_at = Clock::now();
            encode_ns->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    encoded_at - encode_start)
                    .count()));
            {
              std::lock_guard lock(self->mu);
              self->done.emplace(seq,
                                 OwedFrame{std::move(frame), weight,
                                           encoded_at});
            }
            std::lock_guard lock(sink_ref->mu);
            sink_ref->dirty.push_back(self);
            wake_locked(*sink_ref);
            --sink_ref->outstanding;
            if (sink_ref->outstanding == 0) {
              sink_ref->cv.notify_all();
            }
          });
    }

    /// Serves a stats admin frame inline: renders the service's
    /// observability document in the requested format and files the
    /// response under the connection's next sequence number (the regular
    /// drain releases it in order). A malformed stats body is answered
    /// with an error stats reply — framing is intact, so the connection
    /// survives.
    void serve_stats(Connection& conn, std::span<const std::uint8_t> body) {
      stats_requests->add();
      wire::StatsReply reply;
      StatusOr<wire::StatsFormat> format = wire::decode_stats_request(body);
      if (!format.ok()) {
        reply.status = format.status();
      } else {
        reply.format = *format;
        reply.text = *format == wire::StatsFormat::prometheus
                         ? srv->service.stats_prometheus()
                         : srv->service.stats_json();
      }
      const std::uint64_t seq = conn.next_seq++;
      conn.pending_rounds += 1;
      conn.fsm.request_admitted();
      {
        std::lock_guard lock(conn.mu);
        conn.done.emplace(
            seq, OwedFrame{wire::encode_stats_response(reply), 1,
                           Clock::now()});
      }
      // File the connection with the sink so the end-of-iteration drain
      // pumps the response out — same release path completions use, no
      // wake needed from the loop's own thread.
      std::lock_guard lock(sink->mu);
      sink->dirty.push_back(conn.shared_from_this());
    }

    /// Malformed traffic: answer with a Status error frame queued behind
    /// the responses already owed (so ordering still identifies the bad
    /// request), then tear the connection down once everything flushes.
    /// Framing past the bad bytes is unrecoverable, so reading stops here.
    void protocol_error(Connection& conn, Status status) {
      protocol_errors->add();
      const SortResponse error =
          SortResponse::failure(std::move(status), SortShape{1, 1});
      const std::uint64_t seq = conn.next_seq++;
      conn.pending_rounds += 1;
      conn.fsm.protocol_error();  // the error frame itself becomes owed
      {
        std::lock_guard lock(conn.mu);
        conn.done.emplace(seq, OwedFrame{wire::encode_response(error), 1,
                                         Clock::now()});
      }
      conn.teardown = true;
      conn.rbuf.clear();
    }

    // --- completion / write path --------------------------------------------

    void drain_dirty(Clock::time_point now) {
      std::vector<std::shared_ptr<Connection>> ready;
      {
        std::lock_guard lock(sink->mu);
        ready.swap(sink->dirty);
      }
      for (const std::shared_ptr<Connection>& conn : ready) {
        if (conn->fd < 0) continue;  // completed after teardown: drop
        pump_completions(*conn, now);
      }
    }

    /// Moves the in-order prefix of completed responses into the write
    /// queue.
    void release_ready(Connection& conn) {
      std::lock_guard lock(conn.mu);
      for (auto it = conn.done.find(conn.next_flush); it != conn.done.end();
           it = conn.done.find(conn.next_flush)) {
        conn.wqueue.push_back(std::move(it->second));
        conn.done.erase(it);
        ++conn.next_flush;
      }
    }

    /// Releases the in-order prefix of completed responses into the write
    /// queue, flushes opportunistically, and resumes parsing frames that
    /// were buffered while paused at the inflight cap (even after a
    /// half-close, when no more reads will come). Runs to a fixpoint: a
    /// completion can land *while* the re-parse submits (fast workers
    /// outrun the loop thread), dropping inflight below the cap again with
    /// frames still buffered — keying the re-parse off the state at entry
    /// would strand those frames until the idle reaper, so keep
    /// alternating release/parse until neither makes progress.
    void pump_completions(Connection& conn, Clock::time_point now) {
      while (conn.fd >= 0) {
        release_ready(conn);
        handle_write(conn, now);
        if (conn.fd < 0) return;
        if (conn.teardown || conn.rbuf.empty() ||
            conn.pending() >= srv->opt.max_inflight) {
          break;
        }
        const std::uint64_t before = conn.next_seq;
        parse_frames(conn, now);
        if (conn.next_seq == before && !conn.teardown) {
          break;  // only a partial frame left: wait for more bytes
        }
      }
      update_interest(conn);
    }

    void handle_write(Connection& conn, Clock::time_point now) {
      if (conn.fd < 0) return;
      while (!conn.wqueue.empty()) {
        const OwedFrame& front = conn.wqueue.front();
        // Fault hook: a send cap splits every response across many
        // partial writes, exercising the woff resume path continuously.
        std::size_t len = front.bytes.size() - conn.woff;
        if (const std::size_t cap = srv->opt.fault.send_cap; cap > 0) {
          len = std::min(len, cap);
        }
        const ssize_t n = ::send(conn.fd, front.bytes.data() + conn.woff,
                                 len, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          schedule_close(conn);  // peer reset; owed responses are moot
          return;
        }
        conn.woff += static_cast<std::size_t>(n);
        conn.last_activity = now;
        if (conn.woff == front.bytes.size()) {
          conn.pending_rounds -=
              std::min(front.rounds, conn.pending_rounds);
          srv->write_ns->record(static_cast<std::uint64_t>(
              std::max<std::int64_t>(
                  0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now - front.enqueued)
                         .count())));
          conn.wqueue.pop_front();
          conn.woff = 0;
          ++conn.written;
          conn.fsm.response_written();
          responses->add();
        }
      }
      finish_if_drained(conn);
    }

    void finish_if_drained(Connection& conn) {
      if (conn.fd < 0) return;
      // After a half-close the read buffer may still hold complete frames
      // that were beyond the pending cap — they are owed answers, so the
      // connection is not finished until a pump consumes them (a partial
      // tail turns into a teardown at its next parse instead).
      if ((conn.teardown || (conn.peer_eof && conn.rbuf.empty())) &&
          conn.drained()) {
        schedule_close(conn);
      }
    }

    void update_interest(Connection& conn) {
      if (conn.fd < 0) return;
      const bool rd = !conn.teardown && !conn.peer_eof &&
                      conn.pending() < srv->opt.max_inflight;
      const bool wr = !conn.wqueue.empty();
      if (rd != conn.want_read || wr != conn.want_write) {
        conn.want_read = rd;
        conn.want_write = wr;
        poller.set(conn.fd, rd, wr);
      }
    }

    // --- teardown -----------------------------------------------------------

    /// Closes are deferred to the end of the event batch so a recycled fd
    /// from accept() can't collide with a stale event in the same batch.
    void schedule_close(Connection& conn) {
      if (conn.fd < 0) return;
      conn.fsm.connection_closed();
      // In release builds the FSM counts violations instead of aborting;
      // surface them as a metric so a soak run can assert the count is
      // zero across hours of hostile traffic.
      if (conn.fsm.violations() > 0) {
        fsm_violations->add(conn.fsm.violations());
      }
      pending_close.push_back(conn.fd);
      poller.remove(conn.fd);
      conn.fd = -1;
    }

    void flush_pending_close() {
      for (const int fd : pending_close) {
        ::close(fd);
        conns.erase(fd);
        closed->add();
        srv->open_conns.fetch_sub(1, std::memory_order_relaxed);
      }
      pending_close.clear();
    }

    /// Reaps connections with no socket progress for idle_timeout —
    /// including ones with responses owed: last_activity advances on every
    /// read and write, so a stalled-but-owed connection means the client
    /// stopped reading (the flow-control pause already stopped us reading
    /// it); holding its encoded backlog forever would be the leak.
    void sweep_idle(Clock::time_point now) {
      for (auto& [fd, conn] : conns) {
        if (conn->fd < 0) continue;
        if (now - conn->last_activity >= srv->opt.idle_timeout) {
          idle_closed->add();
          conn->fsm.idle_expired();
          schedule_close(*conn);
        }
      }
    }
  };

  std::vector<std::unique_ptr<Loop>> loops;

  /// Registers one loop's counters in the service registry, labeled with
  /// the loop index so per-loop load stays visible in the exposition.
  static void register_loop_series(Loop& loop, MetricsRegistry& reg) {
    const MetricsRegistry::Labels labels{
        {"loop", std::to_string(loop.index)}};
    loop.accepted = &reg.counter("socket_accepted_total", labels);
    loop.rejected = &reg.counter("socket_rejected_total", labels);
    loop.closed = &reg.counter("socket_closed_total", labels);
    loop.requests = &reg.counter("socket_requests_total", labels);
    loop.batch_requests = &reg.counter("socket_batch_requests_total", labels);
    loop.rounds = &reg.counter("socket_rounds_total", labels);
    loop.responses = &reg.counter("socket_responses_total", labels);
    loop.protocol_errors =
        &reg.counter("socket_protocol_errors_total", labels);
    loop.idle_closed = &reg.counter("socket_idle_closed_total", labels);
    loop.stats_requests = &reg.counter("socket_stats_requests_total", labels);
    loop.fsm_violations =
        &reg.counter("socket_fsm_violations_total", labels);
  }

  /// Next loop for an accepted fd (called only from loop 0, which owns
  /// every listener, so rr_next is effectively single-threaded).
  Loop* next_dispatch_target() {
    Loop* target = loops[rr_next % loops.size()].get();
    ++rr_next;
    return target;
  }

  // --- lifecycle ------------------------------------------------------------

  Status start() {
    if (started.exchange(true)) {
      return Status::invalid_argument("SocketServer: start() called twice");
    }
    if (Status s = opt.validate(); !s.ok()) return s;

    MetricsRegistry& reg = service.registry();
    decode_ns = &reg.histogram("stage_decode_ns");
    encode_ns = &reg.histogram("stage_encode_ns");
    write_ns = &reg.histogram("stage_write_ns");

    const std::size_t n = static_cast<std::size_t>(opt.loops);
    loops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->srv = this;
      loop->index = i;
      register_loop_series(*loop, reg);
      if (Status s = loop->poller.init(); !s.ok()) return s;
      int pipe_fds[2];
      if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
        return Status::unavailable(errno_text("pipe2"));
      }
      loop->wake_rd = pipe_fds[0];
      loop->sink->wake_fd = pipe_fds[1];
      loops.push_back(std::move(loop));
    }

    if (Status s = open_listeners(); !s.ok()) return s;

    for (const std::unique_ptr<Loop>& loop : loops) {
      if (Status s = loop->poller.add(loop->wake_rd, true, false); !s.ok()) {
        return s;
      }
      for (const int fd : loop->listeners) {
        if (Status s = loop->poller.add(fd, true, false); !s.ok()) return s;
      }
    }
    for (const std::unique_ptr<Loop>& loop : loops) {
      Loop* lp = loop.get();
      lp->thread = std::thread([lp] { lp->run(); });
    }
    return Status();
  }

  /// Every listener lives on loop 0, which hands accepted fds to the
  /// other loops (see accept_ready).
  Status open_listeners() {
    if (opt.listen_tcp) {
      int fd = -1;
      if (Status s = open_tcp_listener(fd); !s.ok()) return s;
      loops[0]->listeners.push_back(fd);
    }
    if (!opt.unix_path.empty()) {
      int fd = -1;
      if (Status s = open_unix_listener(fd); !s.ok()) return s;
      loops[0]->listeners.push_back(fd);
    }
    return Status();
  }

  Status open_tcp_listener(int& out_fd) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    const std::string port_str = std::to_string(opt.port);
    addrinfo* found = nullptr;
    if (const int rc =
            ::getaddrinfo(opt.host.c_str(), port_str.c_str(), &hints, &found);
        rc != 0) {
      return Status::unavailable("getaddrinfo(" + opt.host +
                                 "): " + ::gai_strerror(rc));
    }
    Status last = Status::unavailable("no usable address for " + opt.host);
    for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype | kFdFlags,
                              ai->ai_protocol);
      if (fd < 0) {
        last = Status::unavailable(errno_text("socket"));
        continue;
      }
      int one = 1;
      (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      Status s;
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0) {
        s = Status::unavailable(errno_text("bind"));
      }
      if (s.ok() && ::listen(fd, kListenBacklog) < 0) {
        s = Status::unavailable(errno_text("listen"));
      }
      if (s.ok()) {
        sockaddr_storage bound{};
        socklen_t bound_len = sizeof bound;
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) < 0) {
          s = Status::unavailable(errno_text("getsockname"));
        } else if (bound.ss_family == AF_INET) {
          bound_port = ntohs(reinterpret_cast<sockaddr_in&>(bound).sin_port);
        } else if (bound.ss_family == AF_INET6) {
          bound_port = ntohs(reinterpret_cast<sockaddr_in6&>(bound).sin6_port);
        }
      }
      if (s.ok()) {
        out_fd = fd;
        ::freeaddrinfo(found);
        return Status();
      }
      ::close(fd);
      last = std::move(s);
    }
    ::freeaddrinfo(found);
    return last;
  }

  Status open_unix_listener(int& out_fd) {
    sockaddr_un sa{};
    if (opt.unix_path.size() >= sizeof sa.sun_path) {
      return Status::invalid_argument(
          "unix_path longer than sockaddr_un allows (" +
          std::to_string(sizeof sa.sun_path - 1) + " bytes)");
    }
    struct stat st{};
    if (::lstat(opt.unix_path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        return Status::invalid_argument("refusing to replace non-socket file " +
                                        opt.unix_path);
      }
      (void)::unlink(opt.unix_path.c_str());
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | kFdFlags, 0);
    if (fd < 0) return Status::unavailable(errno_text("socket(AF_UNIX)"));
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, opt.unix_path.c_str(), opt.unix_path.size());
    Status s;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
      s = Status::unavailable(errno_text("bind(unix_path)") + " (path " +
                              opt.unix_path + ")");
    }
    if (s.ok() && ::listen(fd, kListenBacklog) < 0) {
      s = Status::unavailable(errno_text("listen"));
    }
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    uds_bound_path = opt.unix_path;
    out_fd = fd;
    return Status();
  }

  void stop() {
    if (!started.load() || stopped.exchange(true)) return;
    stopping.store(true);
    for (const std::unique_ptr<Loop>& loop : loops) {
      std::lock_guard lock(loop->sink->mu);
      wake_locked(*loop->sink);
    }
    for (const std::unique_ptr<Loop>& loop : loops) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    for (const std::unique_ptr<Loop>& loop : loops) {
      // Handoffs that raced the shutdown: the owning loop exited before
      // adopting them, so they are ours to close.
      std::vector<int> orphans;
      {
        std::lock_guard lock(loop->sink->mu);
        orphans.swap(loop->sink->adopted);
      }
      for (const int fd : orphans) {
        open_conns.fetch_sub(1, std::memory_order_relaxed);
        ::close(fd);
      }
    }
    // The loops are gone; wait out completions still running on service
    // worker threads before tearing down the state they touch. Admitted
    // requests always complete (the service's flush window sweeps partial
    // batches), so this terminates.
    for (const std::unique_ptr<Loop>& loop : loops) {
      std::unique_lock lock(loop->sink->mu);
      const int wake_fd = loop->sink->wake_fd;
      loop->sink->wake_fd = -1;
      if (wake_fd >= 0) ::close(wake_fd);
      loop->sink->cv.wait(lock,
                          [&loop] { return loop->sink->outstanding == 0; });
    }
    for (const std::unique_ptr<Loop>& loop : loops) {
      if (loop->wake_rd >= 0) {
        ::close(loop->wake_rd);
        loop->wake_rd = -1;
      }
      // If start() failed before the loop threads spawned, the listeners
      // (when they got as far as existing) are still ours to close.
      for (const int fd : loop->listeners) ::close(fd);
      loop->listeners.clear();
    }
    if (!uds_bound_path.empty()) {
      (void)::unlink(uds_bound_path.c_str());
      uds_bound_path.clear();
    }
  }
};

// --- public surface ---------------------------------------------------------

Status SocketOptions::validate() const {
  std::string bad;
  const auto complain = [&bad](const std::string& msg) {
    if (!bad.empty()) bad += "; ";
    bad += msg;
  };
  if (host.empty()) complain("host must be non-empty");
  if (loops < 1) {
    complain("loops must be >= 1 (got " + std::to_string(loops) + ")");
  }
  if (loops > 256) {
    complain("loops must be <= 256 (got " + std::to_string(loops) + ")");
  }
  if (!listen_tcp && unix_path.empty()) {
    complain("need a listener: listen_tcp is false and unix_path is empty");
  }
  if (!unix_path.empty() &&
      unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    complain("unix_path longer than " +
             std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) + " bytes");
  }
  if (max_connections < 1) complain("max_connections must be >= 1 (got 0)");
  if (max_inflight < 1) complain("max_inflight must be >= 1 (got 0)");
  if (idle_timeout.count() < 0) {
    complain("idle_timeout must be >= 0 (got " +
             std::to_string(idle_timeout.count()) + "ms)");
  }
  if (sndbuf < 0) {
    complain("sndbuf must be >= 0 (got " + std::to_string(sndbuf) + ")");
  }
  if (!bad.empty()) return Status::invalid_argument("SocketOptions: " + bad);
  return Status();
}

SocketServer::SocketServer(SortService& service, SocketOptions opt)
    : impl_(std::make_unique<Impl>(service, std::move(opt))) {}

SocketServer::~SocketServer() { stop(); }

Status SocketServer::start() { return impl_->start(); }

void SocketServer::stop() { impl_->stop(); }

std::uint16_t SocketServer::port() const noexcept { return impl_->bound_port; }

std::size_t SocketServer::loop_count() const noexcept {
  return impl_->loops.size();
}

std::size_t SocketServer::connections() const {
  return impl_->open_conns.load(std::memory_order_relaxed);
}

}  // namespace mcsn::net
