// E16 — streaming sort service under load: capacity and latency of the
// micro-batching pipeline (serve/) versus naive per-request McSorter::sort
// at equal thread count, plus an open-loop Poisson sweep across arrival
// rates and flush windows. Emits machine-readable JSON:
//
//   bench_serve_latency [--channels C] [--bits B] [--workers W]
//                       [--requests N] [--rates r1,r2,...]   (req/s)
//                       [--windows-us w1,w2,...] [--seed S]
//
// The capacity phase is closed-loop (submit as fast as backpressure allows)
// and doubles as a differential check: every series — naive per-request,
// futures serve path, callback-completion serve path (submit_callback),
// the direct zero-copy engine path (flat_batch) and the socket front-end
// in three flavors (socket: one pipelined loopback TCP connection of
// one-round frames through SocketServer; socket_batch: the same connection
// carrying 256-round BATCH frames, amortizing header/syscall/completion
// cost; uds: one-round frames over a UNIX-domain socket) — is hashed
// against direct sort_batch outputs and the process fails on mismatch. The sweep phase is open-loop: arrivals are scheduled by an
// exponential clock independent of completions, so queueing delay shows up
// in p99 instead of being absorbed by a slow producer.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <locale>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/serve/net/client.hpp"
#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/cli.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace {

using namespace mcsn;
using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a_round(std::uint64_t h, const std::vector<Word>& round) {
  for (const Word& w : round) {
    for (const Trit t : w) {
      h ^= static_cast<std::uint64_t>(t) + 1;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Order-independent digest of a result set: XOR of standalone per-round
/// hashes. Lets the thread-striped naive baseline be checked against the
/// reference without caring how rounds were divided across threads.
std::uint64_t round_digest(const std::vector<Word>& round) {
  return fnv1a_round(0xcbf29ce484222325ULL, round);
}

std::vector<std::vector<Word>> make_rounds(std::size_t n, int channels,
                                           std::size_t bits,
                                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<Word>> rounds;
  rounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rounds.push_back(random_valid_round(rng, channels, bits));
  }
  return rounds;
}

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    try {
      std::size_t pos = 0;
      const double v = std::stod(item, &pos);
      // Finite and positive: these feed PoissonClock rates and window
      // durations, where inf/NaN would spin the open loop forever.
      if (pos != item.size() || !std::isfinite(v) || v <= 0.0) {
        return {};  // empty => usage
      }
      out.push_back(v);
    } catch (const std::exception&) {
      return {};
    }
  }
  return out;
}

/// Naive baseline: `threads` threads, each with its own McSorter, calling
/// sort() per round — every request pays a whole 256-lane program pass
/// for one lane.
/// `digest` is the XOR of per-round result hashes (order-independent).
double naive_vps(int threads, int channels, std::size_t bits,
                 const std::vector<std::vector<Word>>& rounds,
                 std::uint64_t& digest) {
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(threads), 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      McSorter sorter(channels, bits);
      for (std::size_t i = static_cast<std::size_t>(t); i < rounds.size();
           i += static_cast<std::size_t>(threads)) {
        digests[static_cast<std::size_t>(t)] ^=
            round_digest(sorter.sort(rounds[i]));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  digest = 0;
  for (const std::uint64_t h : digests) digest ^= h;
  return static_cast<double>(rounds.size()) / secs;
}

std::uint64_t fnv1a_flat(std::uint64_t h, std::span<const Trit> trits) {
  for (const Trit t : trits) {
    h ^= static_cast<std::uint64_t>(t) + 1;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The zero-copy upper bound: one sort_batch_flat over the whole corpus in
/// a single flat buffer — what the serve path amortizes toward. Flattening
/// is untimed (a real producer would have written flat buffers to begin
/// with); `checksum` chains the flat output rows, comparable to the
/// serve-path chain.
double flat_batch_vps(int threads, int channels, std::size_t bits,
                      const std::vector<std::vector<Word>>& rounds,
                      std::uint64_t& checksum) {
  McSorterOptions opt;
  opt.batch.threads = threads;
  const McSorter sorter(channels, bits, opt);
  const std::size_t round_trits = sorter.shape().trits();
  std::vector<Trit> in;
  in.reserve(rounds.size() * round_trits);
  for (const std::vector<Word>& round : rounds) {
    for (const Word& w : round) in.insert(in.end(), w.begin(), w.end());
  }
  std::vector<Trit> out(in.size());
  const auto t0 = Clock::now();
  const Status status = sorter.sort_batch_flat(in, out);
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!status.ok()) {
    std::cerr << "flat_batch failed: " << status.to_string() << "\n";
    checksum = 0;
    return 0.0;
  }
  checksum = fnv1a_flat(0xcbf29ce484222325ULL, out);
  return static_cast<double>(rounds.size()) / secs;
}

/// What the report reads from one service's registry: executed lane groups
/// (serve_batches_total), per-request latency (serve_latency_ns) and lane
/// occupancy — the serve_batch_lanes mean over max_lanes, perfbench's
/// batcher.lane_occupancy formula.
struct ServeReading {
  std::uint64_t batches = 0;
  double occupancy = 0.0;
  Histogram latency_ns;
};

ServeReading read_registry(const SortService& service) {
  ServeReading r;
  for (const MetricsRegistry::Series& s : service.registry().snapshot()) {
    if (s.name == "serve_batches_total") r.batches = s.counter_value;
    if (s.name == "serve_latency_ns") r.latency_ns = s.histogram;
    if (s.name == "serve_batch_lanes") {
      r.occupancy = s.histogram.mean() /
                    static_cast<double>(service.options().max_lanes);
    }
  }
  return r;
}

/// Serve capacity via callback completions: no promise/future shared state
/// per request; each completion writes its slot and the last one releases
/// the driver. `checksum` chains the responses in submission order.
double serve_callback_vps(int workers, std::chrono::microseconds window,
                          const std::vector<std::vector<Word>>& rounds,
                          std::uint64_t& checksum, ServeReading& metrics) {
  const std::size_t n = rounds.size();
  // Completion state outlives the service (declared first): any return
  // path destroys the service — whose stop() runs the still-pending
  // callbacks — before the slots they write to.
  std::vector<SortResponse> slots(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;

  ServeOptions opt;
  opt.workers = workers;
  opt.flush_window = window;
  SortService service(opt);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    StatusOr<SortRequest> request = SortRequest::from_words(rounds[i]);
    if (!request.ok()) {
      std::cerr << "submit_callback: " << request.status().to_string() << "\n";
      checksum = 0;
      return 0.0;
    }
    service.submit(std::move(*request), [&, i](SortResponse response) {
      slots[i] = std::move(response);
      std::lock_guard lock(mu);
      if (++completed == n) cv.notify_one();
    });
  }
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return completed == n; });
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  metrics = read_registry(service);
  checksum = 0xcbf29ce484222325ULL;
  for (const SortResponse& response : slots) {
    if (!response.status.ok()) {
      std::cerr << "submit_callback response: "
                << response.status.to_string() << "\n";
      checksum = 0;
      return 0.0;
    }
    checksum = fnv1a_flat(checksum, response.payload);
  }
  return static_cast<double>(n) / secs;
}

/// Transport/framing knobs for the socket-front-end series.
struct SocketBenchConfig {
  const char* name = "socket";
  bool uds = false;  ///< UNIX-domain instead of loopback TCP
  /// Rounds per BATCH frame; 0 sends classic one-round request frames.
  std::size_t batch_rounds = 0;
};

/// Serve capacity through the socket front-end: one pipelined connection
/// into a SocketServer (writer thread streams request frames, the main
/// thread receives responses in order), measuring what the wire codec,
/// kernel socket hops and the event loop cost on top of the in-process
/// callback path. Three variants: loopback TCP with one-round frames
/// (socket), TCP with BATCH frames carrying cfg.batch_rounds rounds each
/// (socket_batch — amortizing header/syscall/completion cost), and
/// UNIX-domain with one-round frames (uds — no TCP/IP stack in the path).
/// `checksum` chains the responses in submission order, comparable to the
/// serve-path chain (a batch response carries its rounds contiguously in
/// order, so the chain is identical).
double socket_vps(int workers, std::chrono::microseconds window,
                  const std::vector<std::vector<Word>>& rounds,
                  std::uint64_t& checksum, ServeReading& metrics,
                  const SocketBenchConfig& cfg = {}) {
  const auto fail = [&checksum, &cfg](const std::string& what) {
    std::cerr << cfg.name << ": " << what << "\n";
    checksum = 0;
    return 0.0;
  };
  const SortShape shape{static_cast<int>(rounds.front().size()),
                        rounds.front().front().size()};
  // Pre-flatten batch payloads (untimed, like make_rounds itself): a real
  // batching producer accumulates flat buffers to begin with.
  std::vector<std::vector<Trit>> group_flats;
  if (cfg.batch_rounds > 0) {
    for (std::size_t i = 0; i < rounds.size(); i += cfg.batch_rounds) {
      const std::size_t count = std::min(cfg.batch_rounds, rounds.size() - i);
      std::vector<Trit> flat;
      flat.reserve(count * shape.trits());
      for (std::size_t r = i; r < i + count; ++r) {
        for (const Word& w : rounds[r]) {
          flat.insert(flat.end(), w.begin(), w.end());
        }
      }
      group_flats.push_back(std::move(flat));
    }
  }

  ServeOptions opt;
  opt.workers = workers;
  opt.flush_window = window;
  opt.max_inflight = 16384;  // stays above the connection cap below
  SortService service(opt);
  net::SocketOptions sopt;
  // Deep pipeline; the cap counts rounds, so batch frames need headroom
  // for several frames' worth.
  sopt.max_inflight = std::max<std::size_t>(1024, cfg.batch_rounds * 32);
  const std::string uds_path =
      "/tmp/mcsn_bench_serve_" + std::to_string(::getpid()) + ".sock";
  if (cfg.uds) {
    sopt.listen_tcp = false;
    sopt.unix_path = uds_path;
  }
  net::SocketServer server(service, sopt);
  if (Status s = server.start(); !s.ok()) return fail(s.to_string());
  StatusOr<net::SortClient> client =
      cfg.uds ? net::SortClient::connect_unix(uds_path)
              : net::SortClient::connect("127.0.0.1", server.port());
  if (!client.ok()) return fail(client.status().to_string());

  const auto t0 = Clock::now();
  std::atomic<bool> send_failed{false};
  std::thread writer([&] {
    if (cfg.batch_rounds > 0) {
      for (const std::vector<Trit>& flat : group_flats) {
        StatusOr<SortRequest> request = SortRequest::view_batch(
            shape, flat.size() / shape.trits(), flat);
        if (!request.ok() || !client->send_batch(*request).ok()) {
          send_failed.store(true);
          return;
        }
      }
    } else {
      for (const std::vector<Word>& r : rounds) {
        StatusOr<SortRequest> request = SortRequest::from_words(r);
        if (!request.ok() || !client->send(*request).ok()) {
          send_failed.store(true);
          return;
        }
      }
    }
  });
  const std::size_t frames =
      cfg.batch_rounds > 0 ? group_flats.size() : rounds.size();
  checksum = 0xcbf29ce484222325ULL;
  std::size_t rounds_back = 0;
  std::string error;
  for (std::size_t i = 0; i < frames && error.empty(); ++i) {
    StatusOr<SortResponse> response = client->receive();
    if (!response.ok()) {
      error = response.status().to_string();
    } else if (!response->status.ok()) {
      error = response->status.to_string();
    } else {
      checksum = fnv1a_flat(checksum, response->payload);
      rounds_back += response->rounds;
    }
  }
  if (!error.empty() && client->connected()) {
    // The writer may be blocked in send() against a server paused at its
    // per-connection cap; without the receive side draining, that block
    // would outlast any kernel buffer. Shooting the socket unblocks it so
    // the failure gets reported instead of hanging the bench.
    ::shutdown(client->native_handle(), SHUT_RDWR);
  }
  writer.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  metrics = read_registry(service);
  server.stop();
  if (!error.empty()) return fail(error);
  if (send_failed.load()) return fail("send failed");
  if (rounds_back != rounds.size()) {
    return fail("round count mismatch: " + std::to_string(rounds_back) +
                " of " + std::to_string(rounds.size()) + " came back");
  }
  return static_cast<double>(rounds.size()) / secs;
}

/// Serve capacity: closed-loop submission into the micro-batching service
/// with `workers` executor threads.
double serve_vps(int workers, std::chrono::microseconds window,
                 const std::vector<std::vector<Word>>& rounds,
                 std::uint64_t& checksum, ServeReading& metrics) {
  ServeOptions opt;
  opt.workers = workers;
  opt.flush_window = window;
  SortService service(opt);
  std::vector<std::future<std::vector<Word>>> futures;
  futures.reserve(rounds.size());
  const auto t0 = Clock::now();
  for (const std::vector<Word>& r : rounds) {
    futures.push_back(service.submit(r));
  }
  checksum = 0xcbf29ce484222325ULL;
  for (auto& f : futures) checksum = fnv1a_round(checksum, f.get());
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  metrics = read_registry(service);
  return static_cast<double>(rounds.size()) / secs;
}

/// Cold-start vs warmed first-request latency for a non-catalog shape:
/// the cold service pays composer + elaboration + compile inside its first
/// request, the warmed service pre-builds via warmup_shapes so the first
/// request only pays queueing + execution. The gap is what --warmup buys.
struct ColdWarmResult {
  double cold_first_us = -1.0;
  double warm_first_us = -1.0;
  double warm_build_ms = 0.0;
  bool ok = false;
};

ColdWarmResult cold_vs_warm(int workers, SortShape shape, std::uint64_t seed) {
  ColdWarmResult res;
  Xoshiro256 rng(seed);
  const std::vector<Word> round =
      random_valid_round(rng, shape.channels, shape.bits);
  const auto first_request_us = [&round](ServeOptions opt) -> double {
    SortService service(std::move(opt));
    StatusOr<SortRequest> request = SortRequest::from_words(round);
    if (!request.ok()) return -1.0;
    const auto t0 = Clock::now();
    const SortResponse response = service.submit(std::move(*request)).get();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    return response.status.ok() ? us : -1.0;
  };

  ServeOptions cold;
  cold.workers = workers;
  res.cold_first_us = first_request_us(std::move(cold));

  std::uint64_t build_ns = 0;
  ServeOptions warm;
  warm.workers = workers;
  warm.warmup_shapes = {shape};
  warm.warmup_observer = [&build_ns](const SortShape&, const Status&,
                                     std::uint64_t ns) { build_ns = ns; };
  res.warm_first_us = first_request_us(std::move(warm));
  res.warm_build_ms = static_cast<double>(build_ns) / 1e6;
  res.ok = res.cold_first_us >= 0.0 && res.warm_first_us >= 0.0;
  return res;
}

/// Mixed-shape churn against a bounded pool: more distinct shapes than the
/// pool holds, submitted in per-shape bursts (so resident shapes score
/// hits) cycling through the whole mix (so cold shapes force misses and
/// LRU evictions). The series demonstrates the capacity contract: the pool
/// stays within its bound, evictions happen, and no request ever fails.
struct ChurnResult {
  double vps = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t resident = 0;
  std::size_t pool_capacity = 0;
  int shapes = 0;
  bool ok = false;
};

ChurnResult churn_series(int workers, std::size_t bits, std::uint64_t seed) {
  const std::vector<int> channel_mix{4, 6, 11, 12, 13, 14};
  ChurnResult res;
  res.shapes = static_cast<int>(channel_mix.size());
  res.pool_capacity = 3;

  ServeOptions opt;
  opt.workers = workers;
  opt.pool_capacity = res.pool_capacity;
  opt.flush_window = std::chrono::microseconds(50);
  SortService service(opt);
  Xoshiro256 rng(seed);

  constexpr int kCycles = 24;
  constexpr int kBurst = 4;  // rounds per shape per cycle: burst => hits
  bool all_ok = true;
  const auto t0 = Clock::now();
  std::size_t completed = 0;
  for (int cycle = 0; cycle < kCycles && all_ok; ++cycle) {
    for (const int channels : channel_mix) {
      std::vector<std::future<SortResponse>> burst;
      for (int r = 0; r < kBurst; ++r) {
        StatusOr<SortRequest> request = SortRequest::from_words(
            random_valid_round(rng, channels, bits));
        if (!request.ok()) {
          all_ok = false;
          break;
        }
        burst.push_back(service.submit(std::move(*request)));
      }
      // Draining per burst keeps the previous shape idle by the time the
      // next one arrives — the LRU can actually evict.
      for (auto& f : burst) {
        const SortResponse response = f.get();
        if (!response.status.ok()) {
          std::cerr << "churn: " << response.status.to_string() << "\n";
          all_ok = false;
        }
        ++completed;
      }
    }
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  res.vps = static_cast<double>(completed) / secs;
  res.hits = service.registry().counter("pool_hits_total").value();
  res.misses = service.registry().counter("pool_misses_total").value();
  res.evictions = service.registry().counter("pool_evictions_total").value();
  res.resident = service.shapes();
  res.ok = all_ok && res.evictions > 0 &&
           res.resident <= res.pool_capacity + 1;  // +1: one in-flight build
  return res;
}

struct SweepResult {
  double rate = 0.0;
  long window_us = 0;
  double throughput = 0.0;
  double elapsed_s = 0.0;
  ServeReading metrics;
};

/// Open-loop point: exponential inter-arrivals at `rate` req/s; the
/// producer never waits for completions (it only yields to backpressure).
SweepResult open_loop_point(int workers, double rate, long window_us,
                            const std::vector<std::vector<Word>>& rounds,
                            std::uint64_t seed) {
  ServeOptions opt;
  opt.workers = workers;
  opt.flush_window = std::chrono::microseconds(window_us);
  SortService service(opt);
  Xoshiro256 rng(seed);

  std::vector<std::future<std::vector<Word>>> futures;
  futures.reserve(rounds.size());
  PoissonClock arrivals(rate, rng);
  for (const std::vector<Word>& r : rounds) {
    const auto scheduled = arrivals.next();
    if (scheduled > Clock::now()) std::this_thread::sleep_until(scheduled);
    futures.push_back(service.submit(r));
  }
  for (auto& f : futures) (void)f.get();

  SweepResult res;
  res.rate = rate;
  res.window_us = window_us;
  res.elapsed_s =
      std::chrono::duration<double>(Clock::now() - arrivals.start()).count();
  res.throughput = static_cast<double>(rounds.size()) / res.elapsed_s;
  res.metrics = read_registry(service);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  // The JSON on stdout is consumed by CI artifact tooling; keep it in the
  // locale-independent "C" form regardless of the global locale.
  std::cout.imbue(std::locale::classic());

  const CliArgs args(argc, argv);
  const int channels = static_cast<int>(args.get_long_or("channels", 10));
  const std::size_t bits =
      static_cast<std::size_t>(args.get_long_or("bits", 8));
  const int workers = static_cast<int>(args.get_long_or("workers", 1));
  const std::size_t requests =
      static_cast<std::size_t>(args.get_long_or("requests", 8192));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_long_or("seed", 42));
  const std::vector<double> rates =
      parse_list(args.get_or("rates", "10000,50000,200000"));
  const std::vector<double> windows =
      parse_list(args.get_or("windows-us", "100,500"));
  if (channels < 2 || bits < 1 || bits > 16 || requests < 1 ||
      rates.empty() || windows.empty()) {
    std::cerr << "usage: bench_serve_latency [--channels C>=2] [--bits 1..16]"
                 " [--workers W>=1] [--requests N>=1]"
                 " [--rates r1,r2,...] [--windows-us w1,w2,...] [--seed S]\n";
    return 2;
  }
  // Service knobs go through ServeOptions::validate() so an out-of-range
  // flag errors with the offending knob named instead of being clamped.
  {
    ServeOptions probe;
    probe.workers = workers;
    if (Status s = probe.validate(); !s.ok()) {
      std::cerr << "bench_serve_latency: " << s.to_string() << "\n";
      return 2;
    }
  }

  const std::vector<std::vector<Word>> rounds =
      make_rounds(requests, channels, bits, seed);

  // Reference checksums for the differential checks: an ordered chain for
  // the serve path (results come back in submission order) and an
  // order-independent digest for the thread-striped naive baseline.
  const McSorter reference(channels, bits);
  std::uint64_t expect_chain = 0xcbf29ce484222325ULL;
  std::uint64_t expect_digest = 0;
  for (const std::vector<Word>& r : reference.sort_batch(rounds)) {
    expect_chain = fnv1a_round(expect_chain, r);
    expect_digest ^= round_digest(r);
  }

  std::uint64_t naive_sum = 0;
  const double naive = naive_vps(workers, channels, bits, rounds, naive_sum);
  std::uint64_t serve_sum = 0;
  ServeReading cap_metrics;
  const double serve =
      serve_vps(workers, std::chrono::microseconds(200), rounds, serve_sum,
                cap_metrics);
  std::uint64_t callback_sum = 0;
  ServeReading callback_metrics;
  const double callback =
      serve_callback_vps(workers, std::chrono::microseconds(200), rounds,
                         callback_sum, callback_metrics);
  std::uint64_t flat_sum = 0;
  const double flat = flat_batch_vps(workers, channels, bits, rounds,
                                     flat_sum);
  std::uint64_t socket_sum = 0;
  ServeReading socket_metrics;
  const double socket = socket_vps(workers, std::chrono::microseconds(200),
                                   rounds, socket_sum, socket_metrics);
  std::uint64_t socket_batch_sum = 0;
  ServeReading socket_batch_metrics;
  SocketBenchConfig batch_cfg;
  batch_cfg.name = "socket_batch";
  batch_cfg.batch_rounds = 256;
  const double socket_batch =
      socket_vps(workers, std::chrono::microseconds(200), rounds,
                 socket_batch_sum, socket_batch_metrics, batch_cfg);
  std::uint64_t uds_sum = 0;
  ServeReading uds_metrics;
  SocketBenchConfig uds_cfg;
  uds_cfg.name = "uds";
  uds_cfg.uds = true;
  const double uds = socket_vps(workers, std::chrono::microseconds(200),
                                rounds, uds_sum, uds_metrics, uds_cfg);
  const bool agree = serve_sum == expect_chain && naive_sum == expect_digest &&
                     callback_sum == expect_chain &&
                     flat_sum == expect_chain && socket_sum == expect_chain &&
                     socket_batch_sum == expect_chain &&
                     uds_sum == expect_chain;

  // Arbitrary-shape serving series: what warmup saves on a non-catalog
  // (composed) shape, and how a bounded pool behaves under shape churn.
  const SortShape composed_shape{24, bits};
  const ColdWarmResult cw = cold_vs_warm(workers, composed_shape, seed + 2);
  const ChurnResult churn = churn_series(workers, bits, seed + 3);

  std::cout << "{\n  \"workload\": {\"channels\": " << channels
            << ", \"bits\": " << bits << ", \"workers\": " << workers
            << ", \"requests\": " << requests << "},\n"
            << "  \"capacity\": {\"naive_vps\": " << naive
            << ", \"serve_vps\": " << serve
            << ", \"submit_callback_vps\": " << callback
            << ", \"flat_batch_vps\": " << flat
            << ", \"socket_vps\": " << socket
            << ", \"socket_batch_vps\": " << socket_batch
            << ", \"uds_vps\": " << uds
            << ", \"speedup\": " << (naive > 0.0 ? serve / naive : 0.0)
            << ", \"serve_mean_occupancy\": " << cap_metrics.occupancy
            << ", \"callback_mean_occupancy\": " << callback_metrics.occupancy
            << ", \"socket_mean_occupancy\": " << socket_metrics.occupancy
            << ", \"socket_batch_mean_occupancy\": "
            << socket_batch_metrics.occupancy
            << ", \"uds_mean_occupancy\": " << uds_metrics.occupancy
            << ", \"results_match_sort_batch\": " << (agree ? "true" : "false")
            << "},\n"
            << "  \"cold_vs_warm\": {\"channels\": " << composed_shape.channels
            << ", \"bits\": " << composed_shape.bits
            << ", \"cold_first_us\": " << cw.cold_first_us
            << ", \"warm_first_us\": " << cw.warm_first_us
            << ", \"warm_build_ms\": " << cw.warm_build_ms
            << ", \"ok\": " << (cw.ok ? "true" : "false") << "},\n"
            << "  \"churn\": {\"shapes\": " << churn.shapes
            << ", \"pool_capacity\": " << churn.pool_capacity
            << ", \"throughput_vps\": " << churn.vps
            << ", \"pool_hits\": " << churn.hits
            << ", \"pool_misses\": " << churn.misses
            << ", \"pool_evictions\": " << churn.evictions
            << ", \"resident_shapes\": " << churn.resident
            << ", \"zero_serve_errors\": " << (churn.ok ? "true" : "false")
            << "},\n  \"sweep\": [\n";
  bool first = true;
  for (const double window_us : windows) {
    for (const double rate : rates) {
      const SweepResult r = open_loop_point(
          workers, rate, static_cast<long>(window_us), rounds, seed + 1);
      const ServeReading& m = r.metrics;
      if (!first) std::cout << ",\n";
      first = false;
      std::cout << "    {\"rate\": " << r.rate
                << ", \"window_us\": " << r.window_us
                << ", \"throughput_vps\": " << r.throughput
                << ", \"elapsed_s\": " << r.elapsed_s
                << ", \"batches\": " << m.batches
                << ", \"mean_occupancy\": " << m.occupancy
                << ", \"latency_us\": " << m.latency_ns.json(1000.0) << "}";
    }
  }
  std::cout << "\n  ]\n}\n";
  return (agree && cw.ok && churn.ok) ? 0 : 1;
}
