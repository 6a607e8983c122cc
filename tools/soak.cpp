// soak — long-running fault-injection campaign against the full serving
// stack, with hard leak assertions. The "it ran for a while" smoke turned
// into a pass/fail gate:
//
//   tool_soak --duration 60 --all-faults
//
// hosts a SortService + SocketServer in-process (so /proc/self sampling
// measures the serving process) and drives it with:
//
//   * well-behaved clients: open-loop Poisson traffic over a mixed shape
//     set (optimal-catalog 2..10 channels, composed 11..16, plus
//     over-limit shapes the builder refuses), single and BATCH frames,
//     trit and value payloads, short-lived connections (churn), and a
//     seeded fraction of tiny deadlines (deadline storms);
//   * adversaries (each its own thread, each gated by a --fault-* flag or
//     --all-faults): forked child processes SIGKILLed mid-conversation,
//     half-closes mid-frame, never-reading peers that hold a full
//     response backlog until the idle reaper fires, and malformed-frame
//     injection (bad magic/version/type/length, truncated bodies);
//   * byte-level hostility on *every* connection via the
//     SocketOptions::fault recv/send caps (frames fragment at arbitrary
//     boundaries in both directions);
//   * a resource monitor sampling /proc/self RSS + fd counts
//     (util/proc_stats) and scraping the live STATS wire frames.
//
// The campaign ends with hard assertions — any failure exits non-zero:
//
//   * zero client-observed errors outside the injected classes
//     (kUnimplemented for over-limit shapes, kDeadlineExceeded under
//     deadline storms);
//   * a completed-traffic floor (a vacuously idle campaign cannot pass);
//   * pool residency <= capacity after a final fresh-shape request forces
//     an eviction sweep — the primary leak gate: a pinned-sorter leak
//     (e.g. reverting the MicroBatcher shard-husk fix) makes eviction
//     skip every entry and residency grow with the shape churn;
//   * fd count back to its pre-campaign baseline (+ --fd-slack);
//   * post-warmup RSS slope (least squares over the monitor samples)
//     under --rss-slope-max-kib-s;
//   * every ConnFsm violation counter at zero;
//   * enabled adversaries actually fired (kills > 0, protocol errors > 0).
//
// A JSON report (config, per-class counts, samples, per-assertion
// verdicts) goes to stdout and, with --report FILE, to a file for CI
// artifact upload. docs/SOAK.md documents the knobs, fault classes and
// how to read a failure.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <locale>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/serve/net/client.hpp"
#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/util/cli.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/proc_stats.hpp"
#include "mcsn/util/rng.hpp"

namespace {

using namespace mcsn;
using Clock = std::chrono::steady_clock;

// --- configuration ----------------------------------------------------------

struct SoakConfig {
  double duration_s = 60.0;
  double rate = 400.0;     ///< total well-behaved requests/s across clients
  int clients = 4;         ///< well-behaved client threads
  int workers = 2;         ///< service worker threads
  int loops = 1;           ///< socket event loops
  std::size_t pool_capacity = 8;
  std::uint64_t seed = 1;
  long idle_timeout_ms = 1500;  ///< short, so never-reader reaping happens
                                ///< many times within even a 60 s campaign

  bool fault_kill = false;
  bool fault_halfclose = false;
  bool fault_neverread = false;
  bool fault_malformed = false;
  std::size_t recv_cap = 0;
  std::size_t send_cap = 0;

  double rss_slope_max_kib_s = 512.0;
  long fd_slack = 0;
  long min_completed = -1;  ///< -1: derived as duration * rate / 10
  std::string report_path;

  /// Builder refusal bound: shapes above this come back kUnimplemented.
  /// Kept small so the over-limit class is cheap to exercise.
  int max_channels = 24;

  [[nodiscard]] long min_completed_floor() const {
    if (min_completed >= 0) return min_completed;
    return static_cast<long>(duration_s * rate / 10.0);
  }
};

/// Hot shapes most traffic lands on (warmed, pool-resident); the cold
/// tail below churns the remaining pool slots.
const SortShape kHotShapes[] = {
    {4, 4}, {8, 4}, {6, 6}, {10, 3}, {12, 4}, {16, 2},
};
constexpr int kColdChannelsMin = 2;
constexpr int kColdChannelsMax = 16;
constexpr std::size_t kColdBitsMin = 2;
constexpr std::size_t kColdBitsMax = 6;
/// Never part of campaign traffic; requested once at the end to force an
/// eviction sweep through the pool before the residency assertion.
const SortShape kFreshShape{17, 3};

// --- shared campaign state --------------------------------------------------

struct Totals {
  std::atomic<std::uint64_t> ok_single_trit{0};
  std::atomic<std::uint64_t> ok_single_value{0};
  std::atomic<std::uint64_t> ok_batch{0};
  std::atomic<std::uint64_t> ok_batch_rounds{0};
  std::atomic<std::uint64_t> deadline_ok{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> overlimit_refused{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> kills{0};
  std::atomic<std::uint64_t> halfcloses{0};
  std::atomic<std::uint64_t> neverread_sessions{0};
  std::atomic<std::uint64_t> malformed_sent{0};
  std::atomic<std::uint64_t> scrapes_ok{0};
  std::atomic<std::uint64_t> errors{0};  ///< non-injected failures

  std::mutex mu;
  std::vector<std::string> first_errors;  ///< capped detail for the report

  void fail(const std::string& what) {
    errors.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mu);
    if (first_errors.size() < 20) first_errors.push_back(what);
  }

  [[nodiscard]] std::uint64_t completed() const {
    return ok_single_trit.load() + ok_single_value.load() + ok_batch.load() +
           deadline_ok.load() + deadline_expired.load() +
           overlimit_refused.load();
  }
};

struct RssSample {
  double t_s = 0.0;
  std::int64_t rss_bytes = 0;
};

std::atomic<bool> g_stop{false};

/// Sleep until `when` in small chunks so campaign stop stays responsive.
void sleep_until_or_stop(Clock::time_point when) {
  while (!g_stop.load(std::memory_order_relaxed)) {
    const auto now = Clock::now();
    if (now >= when) return;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(when - now, std::chrono::milliseconds(50)));
  }
}

// --- request builders -------------------------------------------------------

std::vector<Trit> random_flat(Xoshiro256& rng, SortShape shape) {
  std::vector<Trit> flat;
  flat.reserve(shape.trits());
  for (const Word& w : random_valid_round(rng, shape.channels, shape.bits)) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  return flat;
}

SortShape random_shape(Xoshiro256& rng) {
  if (rng.uniform() < 0.7) {
    return kHotShapes[rng.below(std::size(kHotShapes))];
  }
  return SortShape{
      kColdChannelsMin +
          static_cast<int>(rng.below(kColdChannelsMax - kColdChannelsMin + 1)),
      kColdBitsMin + rng.below(kColdBitsMax - kColdBitsMin + 1)};
}

// --- well-behaved client thread ---------------------------------------------

void client_thread(const SoakConfig& cfg, std::uint16_t port, int index,
                   Totals& totals) {
  Xoshiro256 rng(cfg.seed * 1000003 + static_cast<std::uint64_t>(index));
  const double rate = cfg.rate / std::max(1, cfg.clients);
  PoissonClock arrivals(rate, rng);

  std::optional<net::SortClient> client;
  auto reconnect = [&]() -> bool {
    if (client) client->close();
    StatusOr<net::SortClient> c = net::SortClient::connect("127.0.0.1", port);
    if (!c.ok()) {
      totals.fail("client connect: " + c.status().to_string());
      return false;
    }
    client.emplace(std::move(*c));
    totals.reconnects.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  if (!reconnect()) return;

  std::uint64_t on_this_conn = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    sleep_until_or_stop(arrivals.next());
    if (g_stop.load(std::memory_order_relaxed)) break;
    // Connection churn: short sessions are the normal case for this
    // campaign, so accept/adopt/teardown runs thousands of times.
    if (on_this_conn >= 64) {
      on_this_conn = 0;
      if (!reconnect()) return;
    }
    ++on_this_conn;

    const double kind = rng.uniform();
    if (kind < 0.02) {
      // Over-limit shape: the builder must refuse with kUnimplemented.
      const SortShape shape{cfg.max_channels + 1 +
                                static_cast<int>(rng.below(8)),
                            4};
      StatusOr<SortRequest> req =
          SortRequest::own(shape, random_flat(rng, shape));
      if (!req.ok()) {
        totals.fail("over-limit build request: " + req.status().to_string());
        continue;
      }
      StatusOr<SortResponse> rsp = client->sort(*req);
      if (!rsp.ok()) {
        totals.fail("over-limit transport: " + rsp.status().to_string());
        if (!reconnect()) return;
        continue;
      }
      if (rsp->status.code() != StatusCode::kUnimplemented) {
        totals.fail("over-limit shape not refused: " +
                    rsp->status.to_string());
        continue;
      }
      totals.overlimit_refused.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    const SortShape shape = random_shape(rng);
    const bool storm = rng.uniform() < 0.05;

    if (kind < 0.32) {
      // BATCH frame: 2..8 same-shape rounds behind one header.
      const std::size_t rounds = 2 + rng.below(7);
      std::vector<Trit> flat;
      flat.reserve(rounds * shape.trits());
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::vector<Trit> one = random_flat(rng, shape);
        flat.insert(flat.end(), one.begin(), one.end());
      }
      StatusOr<SortRequest> req = SortRequest::own_batch(shape, rounds, flat);
      if (!req.ok()) {
        totals.fail("batch build request: " + req.status().to_string());
        continue;
      }
      if (storm) req->set_deadline_after(std::chrono::microseconds(
          20 + static_cast<long>(rng.below(180))));
      StatusOr<SortResponse> rsp = client->sort_batch(*req);
      if (!rsp.ok()) {
        totals.fail("batch transport: " + rsp.status().to_string());
        if (!reconnect()) return;
        continue;
      }
      if (rsp->status.ok()) {
        if (rsp->rounds != rounds ||
            rsp->payload.size() != rounds * shape.trits()) {
          totals.fail("batch response shape mismatch");
          continue;
        }
        if (storm) {
          totals.deadline_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          totals.ok_batch.fetch_add(1, std::memory_order_relaxed);
          totals.ok_batch_rounds.fetch_add(rounds, std::memory_order_relaxed);
        }
      } else if (storm &&
                 rsp->status.code() == StatusCode::kDeadlineExceeded) {
        totals.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      } else {
        totals.fail("batch served error: " + rsp->status.to_string());
      }
      continue;
    }

    const bool values = rng.uniform() < 0.4;
    StatusOr<SortRequest> req = Status::internal("unbuilt");
    std::vector<std::uint64_t> sorted_values;
    if (values) {
      std::vector<std::uint64_t> v(static_cast<std::size_t>(shape.channels));
      const std::uint64_t bound = shape.bits >= 64
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << shape.bits) - 1;
      for (auto& x : v) x = rng.below(bound + 1);
      sorted_values = v;
      std::sort(sorted_values.begin(), sorted_values.end());
      req = SortRequest::from_values(shape, v);
    } else {
      req = SortRequest::own(shape, random_flat(rng, shape));
    }
    if (!req.ok()) {
      totals.fail("single build request: " + req.status().to_string());
      continue;
    }
    if (storm) req->set_deadline_after(std::chrono::microseconds(
        20 + static_cast<long>(rng.below(180))));
    StatusOr<SortResponse> rsp = client->sort(*req);
    if (!rsp.ok()) {
      totals.fail("single transport: " + rsp.status().to_string());
      if (!reconnect()) return;
      continue;
    }
    if (rsp->status.ok()) {
      if (rsp->payload.size() != shape.trits()) {
        totals.fail("single response size mismatch");
        continue;
      }
      if (values) {
        // Value rounds are fully checkable against a local std::sort.
        StatusOr<std::vector<std::uint64_t>> got = rsp->values();
        if (!got.ok() || *got != sorted_values) {
          totals.fail("value round mis-sorted for " +
                      std::to_string(shape.channels) + "x" +
                      std::to_string(shape.bits));
          continue;
        }
        if (!storm) {
          totals.ok_single_value.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (!storm) {
        totals.ok_single_trit.fetch_add(1, std::memory_order_relaxed);
      }
      if (storm) totals.deadline_ok.fetch_add(1, std::memory_order_relaxed);
    } else if (storm && rsp->status.code() == StatusCode::kDeadlineExceeded) {
      totals.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    } else {
      totals.fail("single served error: " + rsp->status.to_string());
    }
  }
  if (client) client->close();
}

// --- adversaries ------------------------------------------------------------

/// Blocking loopback dial with a receive timeout so no adversary can hang
/// the campaign on a read.
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer closed / reset — fine for an adversary
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Drain until EOF/timeout; adversaries never care about the bytes.
void read_to_eof(int fd) {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    return;  // 0 = EOF, <0 = timeout/reset
  }
}

std::vector<std::uint8_t> valid_request_frame(Xoshiro256& rng) {
  const SortShape shape{4, 4};
  StatusOr<SortRequest> req =
      SortRequest::own(shape, random_flat(rng, shape));
  return wire::encode_request(*req);
}

/// Forked children SIGKILLed mid-conversation. The parent process is
/// heavily multithreaded, so between fork and _exit the child calls only
/// async-signal-safe raw syscalls — every buffer it sends is built by the
/// parent before the fork.
void killer_thread(const SoakConfig& cfg, std::uint16_t port,
                   Totals& totals) {
  Xoshiro256 rng(cfg.seed ^ 0x6b696c6cULL);  // "kill"
  const std::vector<std::uint8_t> frame = valid_request_frame(rng);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  while (!g_stop.load(std::memory_order_relaxed)) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: connect and keep sending valid frames (some half-written
      // when the SIGKILL lands) until killed. Raw syscalls only.
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0 &&
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        timespec pause{0, 500 * 1000};  // 0.5 ms between frames
        for (int i = 0; i < 100000; ++i) {
          std::size_t off = 0;
          while (off < frame.size()) {
            const ssize_t n = ::send(fd, frame.data() + off,
                                     frame.size() - off, MSG_NOSIGNAL);
            if (n <= 0) _exit(0);
            off += static_cast<std::size_t>(n);
          }
          ::nanosleep(&pause, nullptr);
        }
      }
      _exit(0);
    }
    if (pid < 0) {  // fork pressure: back off, not a campaign error
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    // Parent: let the child get mid-conversation, then kill -9. The
    // kernel tears its socket down abruptly — the server must reclaim
    // everything the half-dead session owed.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 + static_cast<long>(rng.below(75))));
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    totals.kills.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Half-close mid-frame: a valid request, then a partial frame, then
/// shutdown(SHUT_WR). The server owes the answer to the complete frame
/// and a protocol error for the truncated tail, then must fully reclaim.
void halfclose_thread(const SoakConfig& cfg, std::uint16_t port,
                      Totals& totals) {
  Xoshiro256 rng(cfg.seed ^ 0x68616c66ULL);  // "half"
  while (!g_stop.load(std::memory_order_relaxed)) {
    const std::vector<std::uint8_t> frame = valid_request_frame(rng);
    const int fd = dial(port);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    send_all(fd, frame.data(), frame.size());
    // 1..frame-1 bytes of a second frame: never completable.
    const std::size_t partial = 1 + rng.below(frame.size() - 1);
    send_all(fd, frame.data(), partial);
    ::shutdown(fd, SHUT_WR);
    read_to_eof(fd);  // response to the good frame, error frame, EOF
    ::close(fd);
    totals.halfcloses.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(10 + static_cast<long>(rng.below(40))));
  }
}

/// Never-reading peer: fill the per-connection inflight cap and sit on
/// the unread responses until the idle reaper fires. Exercises the
/// flow-control pause and the owed-backlog reclaim path.
void neverread_thread(const SoakConfig& cfg, std::uint16_t port,
                      Totals& totals) {
  Xoshiro256 rng(cfg.seed ^ 0x72656164ULL);  // "read"
  while (!g_stop.load(std::memory_order_relaxed)) {
    const std::vector<std::uint8_t> frame = valid_request_frame(rng);
    const int fd = dial(port);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    // More frames than the per-connection cap; the loop pauses reading
    // us once pending rounds hit the cap, the rest sit in kernel buffers.
    for (int i = 0; i < 128 && !g_stop.load(std::memory_order_relaxed);
         ++i) {
      send_all(fd, frame.data(), frame.size());
    }
    // Hold without reading until the idle timeout must have fired.
    const auto held_until =
        Clock::now() + std::chrono::milliseconds(cfg.idle_timeout_ms + 500);
    sleep_until_or_stop(held_until);
    ::close(fd);
    totals.neverread_sessions.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Malformed-frame injection at a seeded rate: every wire-level way to be
/// wrong, each answered (where answerable) with an error frame and a
/// close — never a crash, never a leak.
void malformed_thread(const SoakConfig& cfg, std::uint16_t port,
                      Totals& totals) {
  Xoshiro256 rng(cfg.seed ^ 0x6d616c66ULL);  // "malf"
  PoissonClock arrivals(20.0, rng);
  while (!g_stop.load(std::memory_order_relaxed)) {
    sleep_until_or_stop(arrivals.next());
    if (g_stop.load(std::memory_order_relaxed)) break;
    std::vector<std::uint8_t> bytes = valid_request_frame(rng);
    switch (rng.below(5)) {
      case 0:  // bad magic
        bytes[0] = 0x58;
        break;
      case 1:  // unsupported version
        bytes[2] = 0x7f;
        break;
      case 2:  // unknown frame type
        bytes[3] = 0x2a;
        break;
      case 3: {  // length prefix beyond kMaxBody
        const std::uint32_t huge = (1u << 24) + 1;
        std::memcpy(bytes.data() + 4, &huge, sizeof(huge));
        break;
      }
      case 4: {  // well-framed but undecodable body (truncate + fix length)
        bytes.resize(wire::kHeaderSize + 3);
        const std::uint32_t len = 3;
        std::memcpy(bytes.data() + 4, &len, sizeof(len));
        break;
      }
    }
    const int fd = dial(port);
    if (fd < 0) continue;
    send_all(fd, bytes.data(), bytes.size());
    read_to_eof(fd);  // error frame (when answerable) then close
    ::close(fd);
    totals.malformed_sent.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- resource monitor -------------------------------------------------------

void monitor_thread(std::uint16_t port, Clock::time_point start,
                    Totals& totals, std::vector<RssSample>& samples,
                    std::mutex& samples_mu) {
  int tick = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    const ProcStats s = read_proc_stats();
    if (s.rss_bytes > 0) {
      std::lock_guard lock(samples_mu);
      samples.push_back(
          {std::chrono::duration<double>(Clock::now() - start).count(),
           s.rss_bytes});
    }
    // Every ~2 s, scrape the live STATS wire frame — the monitor path an
    // external watcher would use — and check the process gauges made it
    // into the document.
    if (++tick % 4 == 0) {
      StatusOr<net::SortClient> c =
          net::SortClient::connect("127.0.0.1", port);
      if (!c.ok()) {
        totals.fail("monitor connect: " + c.status().to_string());
      } else {
        StatusOr<wire::StatsReply> reply = c->stats();
        if (!reply.ok() || !reply->status.ok()) {
          totals.fail("monitor scrape failed");
        } else if (reply->text.find("process_rss_bytes") ==
                       std::string::npos ||
                   reply->text.find("process_open_fds") ==
                       std::string::npos) {
          totals.fail("monitor scrape missing process gauges");
        } else {
          totals.scrapes_ok.fetch_add(1, std::memory_order_relaxed);
        }
        c->close();
      }
    }
    sleep_until_or_stop(Clock::now() + std::chrono::milliseconds(500));
  }
}

/// Least-squares slope of RSS over time for samples past the warmup
/// fraction, in KiB/s. nullopt when there are too few samples to fit.
std::optional<double> rss_slope_kib_s(const std::vector<RssSample>& samples,
                                      double duration_s) {
  const double warmup_end = duration_s * 0.25;
  double n = 0, st = 0, sr = 0, stt = 0, str = 0;
  for (const RssSample& s : samples) {
    if (s.t_s < warmup_end) continue;
    const double r = static_cast<double>(s.rss_bytes) / 1024.0;  // KiB
    n += 1.0;
    st += s.t_s;
    sr += r;
    stt += s.t_s * s.t_s;
    str += s.t_s * r;
  }
  if (n < 3.0) return std::nullopt;
  const double denom = n * stt - st * st;
  if (denom <= 0.0) return std::nullopt;
  return (n * str - st * sr) / denom;
}

// --- report -----------------------------------------------------------------

std::string fmt(double v) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << v;
  return os.str();
}

struct Assertion {
  std::string name;
  bool pass = false;
  std::string detail;
};

int usage() {
  std::cerr
      << "usage: tool_soak [--duration S] [--all-faults]\n"
         "  [--fault-kill] [--fault-halfclose] [--fault-neverread]\n"
         "  [--fault-malformed] [--recv-cap N] [--send-cap N]\n"
         "  [--rate R] [--clients N] [--workers N] [--loops N]\n"
         "  [--pool-capacity N] [--seed S] [--idle-timeout-ms T]\n"
         "  [--rss-slope-max-kib-s X] [--fd-slack N] [--min-completed N]\n"
         "  [--report FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  // Adversary sockets die at arbitrary moments; a write into one must
  // come back EPIPE, not kill the harness.
  std::signal(SIGPIPE, SIG_IGN);

  const CliArgs args(
      argc, argv,
      {"duration", "all-faults", "fault-kill", "fault-halfclose",
       "fault-neverread", "fault-malformed", "recv-cap", "send-cap", "rate",
       "clients", "workers", "loops", "pool-capacity", "seed",
       "idle-timeout-ms", "rss-slope-max-kib-s", "fd-slack", "min-completed",
       "report"});
  SoakConfig cfg;
  cfg.duration_s = args.get_double_or("duration", 60.0);
  cfg.rate = args.get_double_or("rate", 400.0);
  if (!std::isfinite(cfg.duration_s) || cfg.duration_s <= 0 ||
      !std::isfinite(cfg.rate) || cfg.rate <= 0) {
    return usage();
  }
  cfg.clients = static_cast<int>(args.get_long_or("clients", 4));
  cfg.workers = static_cast<int>(args.get_long_or("workers", 2));
  cfg.loops = static_cast<int>(args.get_long_or("loops", 1));
  cfg.pool_capacity =
      static_cast<std::size_t>(args.get_long_or("pool-capacity", 8));
  cfg.seed = static_cast<std::uint64_t>(args.get_long_or("seed", 1));
  cfg.idle_timeout_ms = args.get_long_or("idle-timeout-ms", 1500);
  const bool all = args.has("all-faults");
  cfg.fault_kill = all || args.has("fault-kill");
  cfg.fault_halfclose = all || args.has("fault-halfclose");
  cfg.fault_neverread = all || args.has("fault-neverread");
  cfg.fault_malformed = all || args.has("fault-malformed");
  cfg.recv_cap =
      static_cast<std::size_t>(args.get_long_or("recv-cap", all ? 7 : 0));
  cfg.send_cap =
      static_cast<std::size_t>(args.get_long_or("send-cap", all ? 9 : 0));
  cfg.rss_slope_max_kib_s = args.get_double_or("rss-slope-max-kib-s", 512.0);
  cfg.fd_slack = args.get_long_or("fd-slack", 0);
  cfg.min_completed = args.get_long_or("min-completed", -1);
  cfg.report_path = args.get_or("report", "");
  if (cfg.clients < 1 || cfg.workers < 1 || cfg.loops < 1) return usage();

  // --- bring the stack up ---------------------------------------------------

  ServeOptions vopt;
  vopt.workers = cfg.workers;
  vopt.pool_capacity = cfg.pool_capacity;
  vopt.sorter.max_channels = cfg.max_channels;
  // Warm the hot set (must fit the pool or validate() refuses).
  for (const SortShape& s : kHotShapes) {
    if (vopt.warmup_shapes.size() + 1 <= cfg.pool_capacity) {
      vopt.warmup_shapes.push_back(s);
    }
  }

  net::SocketOptions sopt;
  sopt.port = 0;  // ephemeral
  sopt.loops = cfg.loops;
  sopt.idle_timeout = std::chrono::milliseconds(cfg.idle_timeout_ms);
  sopt.fault.recv_cap = cfg.recv_cap;
  sopt.fault.send_cap = cfg.send_cap;
  // Event loops must never block in submit() even with every connection
  // at its per-connection cap.
  vopt.max_inflight =
      std::max<std::size_t>(4096, sopt.max_connections * sopt.max_inflight);
  if (Status s = vopt.validate(); !s.ok()) {
    std::cerr << "soak: " << s.to_string() << "\n";
    return 2;
  }

  SortService service(vopt);
  net::SocketServer server(service, sopt);
  if (Status s = server.start(); !s.ok()) {
    std::cerr << "soak: " << s.to_string() << "\n";
    return 2;
  }
  const std::uint16_t port = server.port();

  // fd baseline after the stack is fully up (listeners, loop pipes,
  // worker threads) and one connection has round-tripped, so nothing
  // lazily allocated later can masquerade as a leak.
  {
    Xoshiro256 rng(cfg.seed);
    StatusOr<net::SortClient> c = net::SortClient::connect("127.0.0.1", port);
    if (!c.ok()) {
      std::cerr << "soak: warm connect failed: " << c.status().to_string()
                << "\n";
      return 2;
    }
    const std::vector<Trit> flat = random_flat(rng, kHotShapes[0]);
    StatusOr<SortRequest> req = SortRequest::view(kHotShapes[0], flat);
    StatusOr<SortResponse> rsp = c->sort(*req);
    if (!rsp.ok() || !rsp->status.ok()) {
      std::cerr << "soak: warm round-trip failed\n";
      return 2;
    }
    c->close();
  }
  // The warm client's server side tears down asynchronously; settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::int64_t fd_baseline = read_proc_stats().open_fds;

  std::cerr << "soak: port " << port << ", duration " << fmt(cfg.duration_s)
            << " s, rate " << fmt(cfg.rate) << "/s, faults:"
            << (cfg.fault_kill ? " kill" : "")
            << (cfg.fault_halfclose ? " halfclose" : "")
            << (cfg.fault_neverread ? " neverread" : "")
            << (cfg.fault_malformed ? " malformed" : "") << " recv-cap "
            << cfg.recv_cap << " send-cap " << cfg.send_cap
            << ", fd baseline " << fd_baseline << "\n";

  // --- run the campaign -----------------------------------------------------

  Totals totals;
  std::vector<RssSample> samples;
  std::mutex samples_mu;
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> threads;
  for (int i = 0; i < cfg.clients; ++i) {
    threads.emplace_back(client_thread, std::cref(cfg), port, i,
                         std::ref(totals));
  }
  if (cfg.fault_kill) {
    threads.emplace_back(killer_thread, std::cref(cfg), port,
                         std::ref(totals));
  }
  if (cfg.fault_halfclose) {
    threads.emplace_back(halfclose_thread, std::cref(cfg), port,
                         std::ref(totals));
  }
  if (cfg.fault_neverread) {
    threads.emplace_back(neverread_thread, std::cref(cfg), port,
                         std::ref(totals));
  }
  if (cfg.fault_malformed) {
    threads.emplace_back(malformed_thread, std::cref(cfg), port,
                         std::ref(totals));
  }
  threads.emplace_back(monitor_thread, port, start, std::ref(totals),
                       std::ref(samples), std::ref(samples_mu));

  sleep_until_or_stop(start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      cfg.duration_s)));
  g_stop.store(true);
  for (std::thread& t : threads) t.join();

  // --- end-of-campaign assertions -------------------------------------------

  std::vector<Assertion> checks;
  auto check = [&checks](std::string name, bool pass, std::string detail) {
    checks.push_back({std::move(name), pass, std::move(detail)});
  };

  // 1. Zero client-observed errors outside the injected classes.
  check("no_uninjected_errors", totals.errors.load() == 0,
        std::to_string(totals.errors.load()) + " errors");

  // 2. The campaign actually served traffic.
  const std::uint64_t completed = totals.completed();
  check("completed_floor",
        completed >= static_cast<std::uint64_t>(cfg.min_completed_floor()),
        std::to_string(completed) + " completed, floor " +
            std::to_string(cfg.min_completed_floor()));

  // 3. Pool residency: one fresh-shape request forces an eviction sweep
  // (eviction runs on insert), then every idle shape beyond capacity must
  // be gone. A pinned-sorter leak fails here: eviction skips busy
  // entries, so residency tracks the whole campaign's shape churn.
  {
    Xoshiro256 rng(cfg.seed ^ 0xf2e5);
    StatusOr<net::SortClient> c = net::SortClient::connect("127.0.0.1", port);
    bool swept = false;
    if (c.ok()) {
      StatusOr<SortRequest> req =
          SortRequest::own(kFreshShape, random_flat(rng, kFreshShape));
      StatusOr<SortResponse> rsp = c->sort(*req);
      swept = rsp.ok() && rsp->status.ok();
      c->close();
    }
    const std::size_t shapes = service.shapes();
    check("pool_residency_within_capacity",
          swept && shapes <= cfg.pool_capacity,
          std::to_string(shapes) + " resident shapes, capacity " +
              std::to_string(cfg.pool_capacity) +
              (swept ? "" : " (sweep request failed)"));
  }

  // 4. fd count back to baseline. Server-side teardown of the last
  // connections is asynchronous — poll with a deadline before judging.
  std::int64_t fd_now = -1;
  {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      fd_now = read_proc_stats().open_fds;
      if (fd_now >= 0 && fd_now <= fd_baseline + cfg.fd_slack &&
          server.connections() == 0) {
        break;
      }
      if (Clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    check("fd_back_to_baseline",
          fd_now >= 0 && fd_now <= fd_baseline + cfg.fd_slack,
          std::to_string(fd_now) + " open fds, baseline " +
              std::to_string(fd_baseline) + " + slack " +
              std::to_string(cfg.fd_slack));
  }

  // 5. Post-warmup RSS slope under the configured bound.
  {
    std::lock_guard lock(samples_mu);
    const std::optional<double> slope =
        rss_slope_kib_s(samples, cfg.duration_s);
    // Too-short campaigns have no post-warmup window; that's a pass (the
    // fd/residency gates still hold), not a silent skip — the report
    // says so.
    check("rss_slope_within_bound",
          !slope || *slope <= cfg.rss_slope_max_kib_s,
          slope ? fmt(*slope) + " KiB/s, bound " +
                      fmt(cfg.rss_slope_max_kib_s)
                : "too few post-warmup samples; skipped");
  }

  // 6. Every FSM violation counter at zero, plus adversary-effectiveness
  // sanity: an enabled fault class that never fired would make the whole
  // campaign vacuous. Server counters are the registry's socket_*_total
  // series summed over loops; a series that is not registered fails the
  // zero check instead of reading as 0.
  const MetricsRegistry& registry = service.registry();
  const auto server_total = [&registry](const char* name) {
    return registry.counter_total(name).value_or(0);
  };
  const std::optional<std::uint64_t> fsm_violations =
      registry.counter_total("socket_fsm_violations_total");
  check("fsm_violations_zero", fsm_violations == 0u,
        fsm_violations ? std::to_string(*fsm_violations) + " violations"
                       : "socket_fsm_violations_total not registered");
  const std::uint64_t protocol_errors =
      server_total("socket_protocol_errors_total");
  const std::uint64_t idle_closed = server_total("socket_idle_closed_total");
  if (cfg.fault_kill) {
    check("kills_fired", totals.kills.load() > 0,
          std::to_string(totals.kills.load()) + " children killed");
  }
  if (cfg.fault_malformed || cfg.fault_halfclose) {
    check("protocol_errors_fired", protocol_errors > 0,
          std::to_string(protocol_errors) + " protocol errors");
  }
  if (cfg.fault_neverread) {
    check("idle_reaper_fired", idle_closed > 0,
          std::to_string(idle_closed) + " idle closes");
  }
  check("monitor_scraped", totals.scrapes_ok.load() > 0,
        std::to_string(totals.scrapes_ok.load()) + " scrapes");

  // --- report ---------------------------------------------------------------

  bool ok = true;
  std::ostringstream report;
  report.imbue(std::locale::classic());
  report << "{\n  \"config\": {\"duration_s\": " << fmt(cfg.duration_s)
         << ", \"rate\": " << fmt(cfg.rate)
         << ", \"clients\": " << cfg.clients
         << ", \"workers\": " << cfg.workers << ", \"loops\": " << cfg.loops
         << ", \"pool_capacity\": " << cfg.pool_capacity
         << ", \"seed\": " << cfg.seed << ", \"recv_cap\": " << cfg.recv_cap
         << ", \"send_cap\": " << cfg.send_cap << "},\n";
  report << "  \"traffic\": {\"completed\": " << completed
         << ", \"ok_single_trit\": " << totals.ok_single_trit.load()
         << ", \"ok_single_value\": " << totals.ok_single_value.load()
         << ", \"ok_batch\": " << totals.ok_batch.load()
         << ", \"ok_batch_rounds\": " << totals.ok_batch_rounds.load()
         << ", \"deadline_ok\": " << totals.deadline_ok.load()
         << ", \"deadline_expired\": " << totals.deadline_expired.load()
         << ", \"overlimit_refused\": " << totals.overlimit_refused.load()
         << ", \"reconnects\": " << totals.reconnects.load() << "},\n";
  report << "  \"faults\": {\"kills\": " << totals.kills.load()
         << ", \"halfcloses\": " << totals.halfcloses.load()
         << ", \"neverread_sessions\": " << totals.neverread_sessions.load()
         << ", \"malformed_sent\": " << totals.malformed_sent.load()
         << "},\n";
  report << "  \"server\": {\"accepted\": "
         << server_total("socket_accepted_total")
         << ", \"closed\": " << server_total("socket_closed_total")
         << ", \"requests\": " << server_total("socket_requests_total")
         << ", \"responses\": " << server_total("socket_responses_total")
         << ", \"protocol_errors\": " << protocol_errors
         << ", \"idle_closed\": " << idle_closed
         << ", \"fsm_violations\": " << fsm_violations.value_or(0)
         << "},\n";
  {
    std::lock_guard lock(samples_mu);
    report << "  \"resources\": {\"fd_baseline\": " << fd_baseline
           << ", \"fd_final\": " << fd_now << ", \"rss_samples\": "
           << samples.size() << ", \"rss_first_bytes\": "
           << (samples.empty() ? -1 : samples.front().rss_bytes)
           << ", \"rss_last_bytes\": "
           << (samples.empty() ? -1 : samples.back().rss_bytes) << "},\n";
  }
  report << "  \"assertions\": [\n";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Assertion& a = checks[i];
    ok = ok && a.pass;
    report << "    {\"name\": \"" << a.name << "\", \"pass\": "
           << (a.pass ? "true" : "false") << ", \"detail\": \"" << a.detail
           << "\"}" << (i + 1 < checks.size() ? "," : "") << "\n";
  }
  report << "  ],\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";

  const std::string doc = report.str();
  std::cout << doc << std::flush;
  if (!cfg.report_path.empty()) {
    std::ofstream out(cfg.report_path);
    out << doc;
  }
  {
    std::lock_guard lock(totals.mu);
    for (const std::string& e : totals.first_errors) {
      std::cerr << "soak: error: " << e << "\n";
    }
  }
  for (const Assertion& a : checks) {
    if (!a.pass) {
      std::cerr << "soak: FAIL " << a.name << ": " << a.detail << "\n";
    }
  }

  server.stop();
  service.stop();
  if (!ok) return 1;
  std::cerr << "soak: PASS (" << completed << " completed)\n";
  return 0;
} catch (const CliError& e) {
  std::cerr << "soak: " << e.what() << "\n";
  return usage();
}
