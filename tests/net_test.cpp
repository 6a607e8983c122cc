// The TCP front-end: loopback round-trip parity against the direct flat
// batch engine, concurrent pipelined clients with interleaved responses,
// byte-split and coalesced frame delivery, malformed-frame teardown (error
// frame then close), graceful drain on stop, idle-timeout reaping, and
// several event loops behind loop 0's shared acceptor (placement and
// per-loop accounting).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/core/gray.hpp"
#include "mcsn/serve/net/client.hpp"
#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

using namespace std::chrono_literals;

std::vector<Trit> random_flat(Xoshiro256& rng, SortShape shape) {
  std::vector<Trit> flat;
  flat.reserve(shape.trits());
  for (const Word& w : random_valid_round(rng, shape.channels, shape.bits)) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  return flat;
}

/// Sorted flat payloads for `rounds`, computed by the direct engine path
/// the serve/net stack must agree with bit-for-bit.
std::vector<std::vector<Trit>> expected_sorted(
    SortShape shape, const std::vector<std::vector<Trit>>& rounds) {
  const McSorter sorter(shape.channels, shape.bits);
  std::vector<Trit> in;
  in.reserve(rounds.size() * shape.trits());
  for (const std::vector<Trit>& r : rounds) {
    in.insert(in.end(), r.begin(), r.end());
  }
  std::vector<Trit> out(in.size());
  EXPECT_TRUE(sorter.sort_batch_flat(in, out).ok());
  std::vector<std::vector<Trit>> result;
  result.reserve(rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const auto begin = out.begin() + static_cast<std::ptrdiff_t>(
                                         i * shape.trits());
    result.emplace_back(begin,
                        begin + static_cast<std::ptrdiff_t>(shape.trits()));
  }
  return result;
}

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

/// A counter of the service's registry, summed over every series that
/// carries `labels` — all loops of a socket_*_total series by default; a
/// series the service never registered fails the test.
std::uint64_t counter_total(const SortService& service,
                            const std::string& name,
                            const MetricsRegistry::Labels& labels) {
  const std::optional<std::uint64_t> total =
      service.registry().counter_total(name, labels);
  EXPECT_TRUE(total.has_value()) << name << " is not registered";
  return total.value_or(0);
}

/// A service + started server on an ephemeral loopback port.
struct Loopback {
  explicit Loopback(net::SocketOptions sopt = {}, ServeOptions vopt = {}) {
    service.emplace(vopt);
    sopt.port = 0;
    server.emplace(*service, sopt);
    const Status s = server->start();
    EXPECT_TRUE(s.ok()) << s.to_string();
  }

  net::SortClient client() {
    StatusOr<net::SortClient> c =
        net::SortClient::connect("127.0.0.1", server->port());
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return std::move(*c);
  }

  std::uint64_t counter(const std::string& name,
                        const MetricsRegistry::Labels& labels = {}) const {
    return counter_total(*service, name, labels);
  }

  std::optional<SortService> service;
  std::optional<net::SocketServer> server;
};

ServeOptions fast_flush() {
  ServeOptions opt;
  opt.flush_window = std::chrono::microseconds(100);
  return opt;
}

// --- correctness ------------------------------------------------------------

TEST(SocketServer, RoundTripParityVsFlatBatch) {
  const SortShape shape{6, 6};
  Xoshiro256 rng(7);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 64; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortRequest> request = SortRequest::view(shape, rounds[i]);
    ASSERT_TRUE(request.ok());
    StatusOr<SortResponse> response = client.sort(*request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response->status.ok()) << response->status.to_string();
    EXPECT_EQ(response->payload, expect[i]) << "round " << i;
  }
  EXPECT_EQ(loop.counter("socket_requests_total"), rounds.size());
  EXPECT_EQ(loop.counter("socket_accepted_total"), 1u);
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 0u);
}

TEST(SocketServer, NonCatalogShapeRoundTripsWithParity) {
  // 24 channels is beyond the paper's optimal catalog: the pool builds it
  // through the recursive composer (nets/compose/) on first request, and
  // the wire result must still match the direct flat engine bit-for-bit.
  const SortShape shape{24, 3};
  Xoshiro256 rng(24);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 16; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortRequest> request = SortRequest::view(shape, rounds[i]);
    ASSERT_TRUE(request.ok());
    StatusOr<SortResponse> response = client.sort(*request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response->status.ok()) << response->status.to_string();
    EXPECT_EQ(response->payload, expect[i]) << "round " << i;
  }
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 0u);
}

TEST(SocketServer, UnsupportedShapeGetsUnimplementedFrameNotAClose) {
  // A shape beyond the configured construction bound is a well-formed
  // request the server cannot serve: it must come back as a
  // kUnimplemented *error frame* on a connection that stays usable — not
  // a protocol error, not a teardown.
  ServeOptions vopt = fast_flush();
  vopt.sorter.max_channels = 8;
  Loopback loop({}, vopt);
  net::SortClient client = loop.client();

  const SortShape big{9, 4};
  const std::vector<Trit> big_round(big.trits(), Trit::zero);
  StatusOr<SortRequest> over = SortRequest::view(big, big_round);
  ASSERT_TRUE(over.ok());
  StatusOr<SortResponse> rejected = client.sort(*over);
  ASSERT_TRUE(rejected.ok()) << rejected.status().to_string();
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnimplemented);

  // The same connection still serves shapes inside the bound.
  const SortShape ok_shape{8, 4};
  Xoshiro256 rng(88);
  const std::vector<Trit> round = random_flat(rng, ok_shape);
  const std::vector<std::vector<Trit>> expect =
      expected_sorted(ok_shape, {round});
  StatusOr<SortRequest> request = SortRequest::view(ok_shape, round);
  ASSERT_TRUE(request.ok());
  StatusOr<SortResponse> response = client.sort(*request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_TRUE(response->status.ok()) << response->status.to_string();
  EXPECT_EQ(response->payload, expect[0]);
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 0u);
}

TEST(SocketServer, ValueRequestsDecodeAsIntegers) {
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  const std::vector<std::uint64_t> values{13, 2, 250, 9};
  StatusOr<SortRequest> request =
      SortRequest::from_values(SortShape{4, 8}, values);
  ASSERT_TRUE(request.ok());
  StatusOr<SortResponse> response = client.sort(*request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_TRUE(response->status.ok());
  const StatusOr<std::vector<std::uint64_t>> sorted = response->values();
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted, (std::vector<std::uint64_t>{2, 9, 13, 250}));
}

TEST(SocketServer, MetastableTritSurvivesTheWire) {
  // The paper's whole point: a marginal measurement must cross the network
  // uncertain and come back still exactly one uncertain bit.
  const SortShape shape{2, 8};
  std::vector<Trit> flat;
  const Word g = gray_encode(100, shape.bits);
  Word h = gray_encode(100, shape.bits);
  h[gray_flip_index(100, shape.bits)] = Trit::meta;
  flat.insert(flat.end(), h.begin(), h.end());
  flat.insert(flat.end(), g.begin(), g.end());
  const std::vector<std::vector<Trit>> expect =
      expected_sorted(shape, {flat});

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  StatusOr<SortRequest> request = SortRequest::view(shape, flat);
  ASSERT_TRUE(request.ok());
  StatusOr<SortResponse> response = client.sort(*request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->payload, expect[0]);
  EXPECT_EQ(std::count(response->payload.begin(), response->payload.end(),
                       Trit::meta),
            1);
}

TEST(SocketServer, ConcurrentPipelinedClientsInterleave) {
  const SortShape shape{4, 5};
  constexpr int kClients = 6;
  constexpr int kPerClient = 48;
  Loopback loop({}, fast_flush());

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(c));
      std::vector<std::vector<Trit>> rounds;
      for (int i = 0; i < kPerClient; ++i) {
        rounds.push_back(random_flat(rng, shape));
      }
      const std::vector<std::vector<Trit>> expect =
          expected_sorted(shape, rounds);
      net::SortClient client = loop.client();
      // Pipeline: all sends first, then the matching receives — responses
      // must come back in send order even while five other clients
      // interleave through the same service.
      for (const std::vector<Trit>& r : rounds) {
        StatusOr<SortRequest> request = SortRequest::view(shape, r);
        if (!request.ok() || !client.send(*request).ok()) {
          failures[static_cast<std::size_t>(c)] = "send failed";
          return;
        }
      }
      for (int i = 0; i < kPerClient; ++i) {
        StatusOr<SortResponse> response = client.receive();
        if (!response.ok() || !response->status.ok()) {
          failures[static_cast<std::size_t>(c)] = "receive failed";
          return;
        }
        if (response->payload != expect[static_cast<std::size_t>(i)]) {
          failures[static_cast<std::size_t>(c)] =
              "order/parity mismatch at " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_EQ(loop.counter("socket_requests_total"),
            static_cast<std::uint64_t>(kClients) * kPerClient);
}

TEST(SocketServer, InflightCapPausesAndResumes) {
  net::SocketOptions sopt;
  sopt.max_inflight = 4;  // far below the burst: pause/resume must engage
  Loopback loop(sopt, fast_flush());

  const SortShape shape{4, 4};
  Xoshiro256 rng(11);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 96; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  net::SortClient client = loop.client();
  for (const std::vector<Trit>& r : rounds) {
    StatusOr<SortRequest> request = SortRequest::view(shape, r);
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(client.send(*request).ok());
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expect[i]) << "round " << i;
  }
}

TEST(SocketServer, HalfCloseAfterBurstStillAnswersEverything) {
  // shutdown(SHUT_WR) right after pipelining far past the pending cap:
  // the EOF lands while most frames are still buffered unparsed, so the
  // server must keep re-parsing from the buffer (no more reads will ever
  // come) and only close once every buffered request was answered.
  const SortShape shape{4, 4};
  constexpr int kRounds = 64;
  Xoshiro256 rng(19);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < kRounds; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  net::SocketOptions sopt;
  sopt.max_inflight = 4;
  Loopback loop(sopt, fast_flush());
  net::SortClient client = loop.client();
  for (const std::vector<Trit>& r : rounds) {
    StatusOr<SortRequest> request = SortRequest::view(shape, r);
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(client.send(*request).ok());
  }
  ASSERT_EQ(::shutdown(client.native_handle(), SHUT_WR), 0);
  for (int i = 0; i < kRounds; ++i) {
    StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok()) << "round " << i << ": "
                               << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expect[static_cast<std::size_t>(i)]);
  }
  StatusOr<SortResponse> eof = client.receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);  // clean close
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 0u);
}

TEST(SocketServer, LateReaderDrainsBackpressuredWrites) {
  // A client that pipelines a large burst and only starts reading later:
  // the tiny pinned SO_SNDBUF guarantees the server's writes hit EAGAIN,
  // so EPOLLOUT arming, flush-on-writable, disarm-after-drain and the
  // re-parse of frames buffered during the write stall all run — and
  // every response must still arrive, in order, bit-exact.
  const SortShape shape{4, 16};
  constexpr int kRounds = 2048;
  Xoshiro256 rng(29);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < kRounds; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  net::SocketOptions sopt;
  sopt.max_inflight = 8;
  sopt.sndbuf = 4096;
  Loopback loop(sopt, fast_flush());
  net::SortClient client = loop.client();
  std::thread writer([&] {
    for (const std::vector<Trit>& r : rounds) {
      StatusOr<SortRequest> request = SortRequest::view(shape, r);
      if (!request.ok() || !client.send(*request).ok()) return;
    }
  });
  std::this_thread::sleep_for(150ms);  // let the write side back up
  for (int i = 0; i < kRounds; ++i) {
    StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok()) << "round " << i << ": "
                               << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expect[static_cast<std::size_t>(i)])
        << "round " << i;
  }
  writer.join();
}

TEST(SocketServer, NeverReadingClientIsReaped) {
  // A client that pipelines requests and never reads responses must not
  // pin server memory: the pending cap stops the server reading it, and
  // the idle sweep reclaims the connection — owed responses included —
  // once the socket makes no progress for idle_timeout. The client's
  // SO_RCVBUF is pinned tiny *before* connecting (a raw socket, since
  // autotuned buffers on loopback would quietly absorb everything and the
  // stall this test is about would never happen).
  const SortShape shape{4, 16};
  Xoshiro256 rng(31);
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 1024; ++i) {
    StatusOr<SortRequest> request =
        SortRequest::own(shape, random_flat(rng, shape));
    ASSERT_TRUE(request.ok());
    const std::vector<std::uint8_t> frame = wire::encode_request(*request);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }

  net::SocketOptions sopt;
  sopt.max_inflight = 8;
  sopt.sndbuf = 4096;
  sopt.idle_timeout = std::chrono::milliseconds(200);
  Loopback loop(sopt, fast_flush());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loop.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  std::thread writer([&] {
    std::size_t off = 0;
    while (off < burst.size()) {
      const ssize_t n = ::send(fd, burst.data() + off, burst.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // reap resets the connection under us: done
      off += static_cast<std::size_t>(n);
    }
  });
  EXPECT_TRUE(eventually(
      [&] { return loop.counter("socket_idle_closed_total") >= 1; }, 10000ms));
  EXPECT_TRUE(eventually([&] { return loop.server->connections() == 0; }));
  writer.join();
  ::close(fd);
}

// --- framing robustness -----------------------------------------------------

TEST(SocketServer, SplitFrameReadsReassemble) {
  const SortShape shape{4, 4};
  Xoshiro256 rng(3);
  const std::vector<Trit> round = random_flat(rng, shape);
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, {round});

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  StatusOr<SortRequest> request = SortRequest::view(shape, round);
  ASSERT_TRUE(request.ok());
  const std::vector<std::uint8_t> frame = wire::encode_request(*request);
  // One byte at a time, with pauses inside the header and inside the body:
  // the per-connection buffer must reassemble across arbitrarily many
  // event-loop wakeups.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_EQ(::send(client.native_handle(), frame.data() + i, 1, 0), 1);
    if (i % 5 == 0) std::this_thread::sleep_for(1ms);
  }
  StatusOr<SortResponse> response = client.receive();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->payload, expect[0]);
}

TEST(SocketServer, CoalescedFramesAllAnswered) {
  const SortShape shape{4, 4};
  Xoshiro256 rng(5);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 8; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  std::vector<std::uint8_t> burst;  // 8 frames in one send(2)
  for (const std::vector<Trit>& r : rounds) {
    StatusOr<SortRequest> request = SortRequest::view(shape, r);
    ASSERT_TRUE(request.ok());
    const std::vector<std::uint8_t> frame = wire::encode_request(*request);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(client.native_handle(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expect[i]);
  }
}

TEST(SocketServer, BadMagicGetsErrorFrameThenClose) {
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  const std::uint8_t garbage[16] = {'X', 'X', 1, 1, 4, 0, 0, 0,
                                    0,   0,   0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(client.native_handle(), garbage, sizeof garbage, 0),
            static_cast<ssize_t>(sizeof garbage));
  StatusOr<SortResponse> response = client.receive();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status.code(), StatusCode::kDataLoss);
  // Defensive teardown: after the error frame, the server closes.
  StatusOr<SortResponse> eof = client.receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 1u);
}

TEST(SocketServer, UndecodableRequestBodyGetsStatusThenClose) {
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  // Intact framing, nonsense body: shape 0x0 with an empty payload.
  std::vector<std::uint8_t> frame = {'M', 'C', 1, 1, 20, 0, 0, 0};
  frame.resize(8 + 20, 0);
  ASSERT_EQ(::send(client.native_handle(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  StatusOr<SortResponse> response = client.receive();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  StatusOr<SortResponse> eof = client.receive();
  EXPECT_FALSE(eof.ok());
}

TEST(SocketServer, ErrorFrameWaitsBehindOwedResponses) {
  // Good request then garbage in one burst: the good round's response must
  // arrive first, the error frame second — ordering is what lets a client
  // attribute the failure to the right request.
  const SortShape shape{4, 4};
  Xoshiro256 rng(13);
  const std::vector<Trit> round = random_flat(rng, shape);
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, {round});

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  StatusOr<SortRequest> request = SortRequest::view(shape, round);
  ASSERT_TRUE(request.ok());
  std::vector<std::uint8_t> burst = wire::encode_request(*request);
  const char* garbage = "not a frame";
  burst.insert(burst.end(), garbage, garbage + std::strlen(garbage));
  ASSERT_EQ(::send(client.native_handle(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  StatusOr<SortResponse> first = client.receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->status.ok());
  EXPECT_EQ(first->payload, expect[0]);
  StatusOr<SortResponse> second = client.receive();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.code(), StatusCode::kDataLoss);
  StatusOr<SortResponse> eof = client.receive();
  EXPECT_FALSE(eof.ok());
}

TEST(SocketServer, ResponseFrameToServerIsAProtocolError) {
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  const std::vector<std::uint8_t> frame = wire::encode_response(
      SortResponse::failure(Status::internal("nope"), SortShape{1, 1}));
  ASSERT_EQ(::send(client.native_handle(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  StatusOr<SortResponse> response = client.receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kUnimplemented);
}

TEST(SocketServer, CloseMidFrameCountsAsProtocolError) {
  Loopback loop({}, fast_flush());
  {
    net::SortClient client = loop.client();
    const std::uint8_t partial[4] = {'M', 'C', 1, 1};  // header cut short
    ASSERT_EQ(::send(client.native_handle(), partial, sizeof partial, 0), 4);
    ASSERT_TRUE(eventually(
        [&] { return loop.counter("socket_accepted_total") == 1; }));
  }  // close with the frame unfinished
  EXPECT_TRUE(eventually(
      [&] { return loop.counter("socket_protocol_errors_total") == 1; }));
}

// --- lifecycle --------------------------------------------------------------

TEST(SocketServer, StopDrainsPendingResponses) {
  const SortShape shape{4, 4};
  Xoshiro256 rng(17);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 16; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  // A wide flush window keeps the batch pending in the service when stop()
  // lands, so the drain actually has something to wait for.
  ServeOptions vopt;
  vopt.flush_window = std::chrono::milliseconds(20);
  Loopback loop({}, vopt);
  net::SortClient client = loop.client();
  for (const std::vector<Trit>& r : rounds) {
    StatusOr<SortRequest> request = SortRequest::view(shape, r);
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(client.send(*request).ok());
  }
  ASSERT_TRUE(eventually(
      [&] { return loop.counter("socket_requests_total") == rounds.size(); }));
  loop.server->stop();
  // Every admitted request's response was flushed before the close.
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok()) << "round " << i << ": "
                               << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expect[i]);
  }
  StatusOr<SortResponse> eof = client.receive();
  EXPECT_FALSE(eof.ok());
}

TEST(SocketServer, IdleConnectionsAreReaped) {
  net::SocketOptions sopt;
  sopt.idle_timeout = std::chrono::milliseconds(50);
  Loopback loop(sopt, fast_flush());
  net::SortClient client = loop.client();
  StatusOr<SortResponse> response = client.receive();  // blocks until reap
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(eventually(
      [&] { return loop.counter("socket_idle_closed_total") == 1; }));
}

TEST(SocketServer, StartValidatesOptionsAndRejectsReuse) {
  ServeOptions vopt;
  SortService service(vopt);
  net::SocketOptions bad;
  bad.max_connections = 0;
  bad.loops = 0;
  net::SocketServer broken(service, bad);
  const Status invalid = broken.start();
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(invalid.message().find("max_connections"), std::string::npos);
  EXPECT_NE(invalid.message().find("loops"), std::string::npos);

  net::SocketServer server(service, {});
  ASSERT_TRUE(server.start().ok());
  const Status twice = server.start();
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.code(), StatusCode::kInvalidArgument);
}

TEST(SocketServer, StopIsIdempotentAndClosesClients) {
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  ASSERT_TRUE(eventually([&] { return loop.server->connections() == 1; }));
  loop.server->stop();
  loop.server->stop();
  StatusOr<SortResponse> eof = client.receive();
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(loop.server->connections(), 0u);
}

// --- multi-loop -------------------------------------------------------------

TEST(SocketServer, MultiLoopPipelinedClientsSpreadAndAgree) {
  // Three event loops behind loop 0's shared acceptor, which places
  // connections round-robin. Six pipelined clients land two per loop, and
  // every response must still arrive in per-connection send order,
  // bit-identical to the direct engine path.
  const SortShape shape{4, 5};
  constexpr int kClients = 6;
  constexpr int kPerClient = 48;
  net::SocketOptions sopt;
  sopt.loops = 3;
  Loopback loop(sopt, fast_flush());
  ASSERT_EQ(loop.server->loop_count(), 3u);

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Xoshiro256 rng(500 + static_cast<std::uint64_t>(c));
      std::vector<std::vector<Trit>> rounds;
      for (int i = 0; i < kPerClient; ++i) {
        rounds.push_back(random_flat(rng, shape));
      }
      const std::vector<std::vector<Trit>> expect =
          expected_sorted(shape, rounds);
      net::SortClient client = loop.client();
      for (const std::vector<Trit>& r : rounds) {
        StatusOr<SortRequest> request = SortRequest::view(shape, r);
        if (!request.ok() || !client.send(*request).ok()) {
          failures[static_cast<std::size_t>(c)] = "send failed";
          return;
        }
      }
      for (int i = 0; i < kPerClient; ++i) {
        StatusOr<SortResponse> response = client.receive();
        if (!response.ok() || !response->status.ok()) {
          failures[static_cast<std::size_t>(c)] = "receive failed";
          return;
        }
        if (response->payload != expect[static_cast<std::size_t>(i)]) {
          failures[static_cast<std::size_t>(c)] =
              "order/parity mismatch at " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");

  // Counters summed over the loop label cover every loop's traffic, and
  // the round-robin dispatch actually used every loop.
  const std::uint64_t requests = loop.counter("socket_requests_total");
  EXPECT_EQ(requests, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(loop.counter("socket_accepted_total"),
            static_cast<std::uint64_t>(kClients));
  std::uint64_t summed = 0;
  for (std::size_t l = 0; l < loop.server->loop_count(); ++l) {
    const std::uint64_t per = loop.counter("socket_requests_total",
                                           {{"loop", std::to_string(l)}});
    EXPECT_GT(per, 0u) << "loop " << l << " served nothing";
    summed += per;
  }
  EXPECT_EQ(summed, requests);
}

TEST(SocketServer, MultiLoopGracefulStopDrainsEveryLoop) {
  // Owed responses pending on BOTH loops when stop() lands (wide flush
  // window keeps the batches unflushed): the drain must flush every
  // connection on every loop, not just loop 0's.
  const SortShape shape{4, 4};
  Xoshiro256 rng(47);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 16; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  net::SocketOptions sopt;
  sopt.loops = 2;  // round-robin: client 1 -> loop 0, client 2 -> loop 1
  ServeOptions vopt;
  vopt.flush_window = std::chrono::milliseconds(20);
  Loopback loop(sopt, vopt);
  net::SortClient a = loop.client();
  net::SortClient b = loop.client();
  for (const std::vector<Trit>& r : rounds) {
    StatusOr<SortRequest> request = SortRequest::view(shape, r);
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(a.send(*request).ok());
    ASSERT_TRUE(b.send(*request).ok());
  }
  ASSERT_TRUE(eventually([&] {
    return loop.counter("socket_requests_total") == 2 * rounds.size();
  }));
  loop.server->stop();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortResponse> ra = a.receive();
    StatusOr<SortResponse> rb = b.receive();
    ASSERT_TRUE(ra.ok() && rb.ok()) << "round " << i;
    ASSERT_TRUE(ra->status.ok() && rb->status.ok());
    EXPECT_EQ(ra->payload, expect[i]);
    EXPECT_EQ(rb->payload, expect[i]);
  }
  EXPECT_FALSE(a.receive().ok());
  EXPECT_FALSE(b.receive().ok());
  EXPECT_EQ(loop.server->connections(), 0u);
}

// --- batch frames over the socket -------------------------------------------

TEST(SocketServer, BatchFramesRoundTripWithParityAndCounters) {
  const SortShape shape{6, 6};
  constexpr std::size_t kRounds = 64;
  Xoshiro256 rng(53);
  std::vector<std::vector<Trit>> rounds;
  std::vector<Trit> flat;
  for (std::size_t i = 0; i < kRounds; ++i) {
    rounds.push_back(random_flat(rng, shape));
    flat.insert(flat.end(), rounds.back().begin(), rounds.back().end());
  }
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  net::SocketOptions sopt;
  sopt.max_inflight = 256;  // in rounds: one 64-round frame fits comfortably
  Loopback loop(sopt, fast_flush());
  net::SortClient client = loop.client();
  StatusOr<SortRequest> request = SortRequest::view_batch(shape, kRounds, flat);
  ASSERT_TRUE(request.ok()) << request.status().to_string();
  StatusOr<SortResponse> response = client.sort_batch(*request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_TRUE(response->status.ok()) << response->status.to_string();
  EXPECT_EQ(response->rounds, kRounds);
  ASSERT_EQ(response->payload.size(), kRounds * shape.trits());
  for (std::size_t i = 0; i < kRounds; ++i) {
    const std::vector<Trit> row(
        response->payload.begin() +
            static_cast<std::ptrdiff_t>(i * shape.trits()),
        response->payload.begin() +
            static_cast<std::ptrdiff_t>((i + 1) * shape.trits()));
    EXPECT_EQ(row, expect[i]) << "round " << i;
  }
  EXPECT_EQ(loop.counter("socket_requests_total"), 1u);  // one frame...
  EXPECT_EQ(loop.counter("socket_batch_requests_total"), 1u);  // ...a batch
  EXPECT_EQ(loop.counter("socket_rounds_total"), kRounds);  // ...of kRounds
}

TEST(SocketServer, BatchAndSingleFramesInterleaveInOrder) {
  // A pipelined mix of single-round and batch frames on one connection:
  // responses come back in send order, each answered with its own frame
  // type (rounds tells them apart on the client).
  const SortShape shape{4, 4};
  Xoshiro256 rng(59);
  const std::vector<Trit> single1 = random_flat(rng, shape);
  std::vector<std::vector<Trit>> batch_rounds;
  std::vector<Trit> batch_flat;
  for (int i = 0; i < 5; ++i) {
    batch_rounds.push_back(random_flat(rng, shape));
    batch_flat.insert(batch_flat.end(), batch_rounds.back().begin(),
                      batch_rounds.back().end());
  }
  const std::vector<Trit> single2 = random_flat(rng, shape);
  const std::vector<std::vector<Trit>> expect1 =
      expected_sorted(shape, {single1});
  const std::vector<std::vector<Trit>> expect_batch =
      expected_sorted(shape, batch_rounds);
  const std::vector<std::vector<Trit>> expect2 =
      expected_sorted(shape, {single2});

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  ASSERT_TRUE(client.send(SortRequest::view(shape, single1).value()).ok());
  ASSERT_TRUE(
      client.send_batch(SortRequest::view_batch(shape, 5, batch_flat).value())
          .ok());
  ASSERT_TRUE(client.send(SortRequest::view(shape, single2).value()).ok());

  StatusOr<SortResponse> r1 = client.receive();
  ASSERT_TRUE(r1.ok() && r1->status.ok());
  EXPECT_EQ(r1->rounds, 1u);
  EXPECT_EQ(r1->payload, expect1[0]);
  StatusOr<SortResponse> rb = client.receive();
  ASSERT_TRUE(rb.ok() && rb->status.ok());
  EXPECT_EQ(rb->rounds, 5u);
  for (int i = 0; i < 5; ++i) {
    const std::vector<Trit> row(
        rb->payload.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(i) * shape.trits()),
        rb->payload.begin() +
            static_cast<std::ptrdiff_t>(static_cast<std::size_t>(i + 1) *
                                        shape.trits()));
    EXPECT_EQ(row, expect_batch[static_cast<std::size_t>(i)]);
  }
  StatusOr<SortResponse> r2 = client.receive();
  ASSERT_TRUE(r2.ok() && r2->status.ok());
  EXPECT_EQ(r2->rounds, 1u);
  EXPECT_EQ(r2->payload, expect2[0]);
}

TEST(SocketServer, MultiRoundSortTravelsAsBatchFrame) {
  // sort() of a multi-round request: a v1 frame has no round count, so it
  // must go out as a batch frame, come back with every round, and leave
  // the connection usable for the next single-round sort.
  const SortShape shape{4, 4};
  Xoshiro256 rng(61);
  std::vector<std::vector<Trit>> rounds;
  std::vector<Trit> flat;
  for (int i = 0; i < 3; ++i) {
    rounds.push_back(random_flat(rng, shape));
    flat.insert(flat.end(), rounds.back().begin(), rounds.back().end());
  }
  std::vector<Trit> expect;
  for (const std::vector<Trit>& r : expected_sorted(shape, rounds)) {
    expect.insert(expect.end(), r.begin(), r.end());
  }
  const std::vector<Trit> single = random_flat(rng, shape);

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  const StatusOr<SortResponse> batch =
      client.sort(SortRequest::view_batch(shape, 3, flat).value());
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  ASSERT_TRUE(batch->status.ok()) << batch->status.to_string();
  EXPECT_EQ(batch->rounds, 3u);
  EXPECT_EQ(batch->payload, expect);

  const StatusOr<SortResponse> one =
      client.sort(SortRequest::view(shape, single).value());
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  ASSERT_TRUE(one->status.ok()) << one->status.to_string();
  EXPECT_EQ(one->rounds, 1u);
  EXPECT_EQ(one->payload, expected_sorted(shape, {single})[0]);
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 0u);
}

// --- UNIX-domain sockets ----------------------------------------------------

std::string fresh_uds_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mcsn_net_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A service + started UDS-only server on a fresh socket path.
struct UdsLoop {
  explicit UdsLoop(net::SocketOptions sopt = {}, ServeOptions vopt = {})
      : path(fresh_uds_path()) {
    service.emplace(vopt);
    sopt.listen_tcp = false;
    sopt.unix_path = path;
    server.emplace(*service, sopt);
    const Status s = server->start();
    EXPECT_TRUE(s.ok()) << s.to_string();
  }

  net::SortClient client() {
    StatusOr<net::SortClient> c = net::SortClient::connect_unix(path);
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return std::move(*c);
  }

  std::uint64_t counter(const std::string& name,
                        const MetricsRegistry::Labels& labels = {}) const {
    return counter_total(*service, name, labels);
  }

  std::string path;
  std::optional<SortService> service;
  std::optional<net::SocketServer> server;
};

TEST(SocketServer, UnixDomainParityWithTcpIncludingMetastable) {
  // The same traffic over AF_UNIX must be indistinguishable from TCP:
  // pipelined parity rounds plus a marginal measurement whose single M
  // trit crosses the socket intact.
  const SortShape shape{4, 8};
  Xoshiro256 rng(61);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 32; ++i) rounds.push_back(random_flat(rng, shape));
  Word marginal = gray_encode(77, shape.bits);
  marginal[gray_flip_index(77, shape.bits)] = Trit::meta;
  std::vector<Trit> meta_round;
  for (int c = 0; c < shape.channels; ++c) {
    const Word w = c == 0 ? marginal : gray_encode(200, shape.bits);
    meta_round.insert(meta_round.end(), w.begin(), w.end());
  }
  rounds.push_back(meta_round);
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  UdsLoop loop({}, fast_flush());
  ASSERT_EQ(loop.server->port(), 0);  // no TCP listener at all
  net::SortClient client = loop.client();
  for (const std::vector<Trit>& r : rounds) {
    StatusOr<SortRequest> request = SortRequest::view(shape, r);
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(client.send(*request).ok());
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expect[i]) << "round " << i;
  }
  EXPECT_EQ(std::count(expect.back().begin(), expect.back().end(), Trit::meta),
            1);
}

TEST(SocketServer, UnixDomainBatchAndMultiLoopDispatch) {
  // With several loops the UDS listener lives on loop 0, like the TCP
  // one, and hands accepted fds round-robin to every loop — batch frames
  // included.
  const SortShape shape{4, 4};
  constexpr std::size_t kRounds = 24;
  Xoshiro256 rng(67);
  std::vector<std::vector<Trit>> rounds;
  std::vector<Trit> flat;
  for (std::size_t i = 0; i < kRounds; ++i) {
    rounds.push_back(random_flat(rng, shape));
    flat.insert(flat.end(), rounds.back().begin(), rounds.back().end());
  }
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  net::SocketOptions sopt;
  sopt.loops = 2;
  UdsLoop loop(sopt, fast_flush());
  for (int c = 0; c < 4; ++c) {
    net::SortClient client = loop.client();
    StatusOr<SortRequest> request =
        SortRequest::view_batch(shape, kRounds, flat);
    ASSERT_TRUE(request.ok());
    StatusOr<SortResponse> response = client.sort_batch(*request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    ASSERT_EQ(response->payload.size(), kRounds * shape.trits());
    for (std::size_t i = 0; i < kRounds; ++i) {
      const std::vector<Trit> row(
          response->payload.begin() +
              static_cast<std::ptrdiff_t>(i * shape.trits()),
          response->payload.begin() +
              static_cast<std::ptrdiff_t>((i + 1) * shape.trits()));
      EXPECT_EQ(row, expect[i]);
    }
  }
  EXPECT_EQ(loop.counter("socket_accepted_total"), 4u);
  EXPECT_EQ(loop.counter("socket_batch_requests_total"), 4u);
  EXPECT_EQ(loop.counter("socket_rounds_total"), 4 * kRounds);
  // Round-robin dispatch: both loops adopted connections.
  EXPECT_GT(loop.counter("socket_accepted_total", {{"loop", "0"}}) +
                loop.counter("socket_requests_total", {{"loop", "0"}}),
            0u);
  EXPECT_GT(loop.counter("socket_requests_total", {{"loop", "1"}}), 0u);
}

TEST(SocketServer, MultiLoopCountsEachConnectionOnItsOwnLoop) {
  // Loop 0 accepts on both listeners and hands every other connection to
  // loop 1, whichever transport it came in on. Eight sequential clients
  // alternate TCP and UDS, so each loop serves four. Each loop counts a
  // connection accepted where it adopts it, so after stop() every loop's
  // accepted count equals its closed count: none is counted on loop 0
  // and closed on loop 1.
  const SortShape shape{4, 4};
  const std::string path = fresh_uds_path();
  net::SocketOptions sopt;
  sopt.loops = 2;
  sopt.unix_path = path;
  Loopback loop(sopt, fast_flush());
  ASSERT_EQ(loop.server->loop_count(), 2u);
  ASSERT_NE(loop.server->port(), 0);

  Xoshiro256 rng(41);
  for (int c = 0; c < 8; ++c) {
    const std::vector<Trit> round = random_flat(rng, shape);
    StatusOr<net::SortClient> client =
        c % 2 == 0 ? net::SortClient::connect("127.0.0.1", loop.server->port())
                   : net::SortClient::connect_unix(path);
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    StatusOr<SortRequest> request = SortRequest::view(shape, round);
    ASSERT_TRUE(request.ok());
    StatusOr<SortResponse> response = client->sort(*request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, expected_sorted(shape, {round})[0]);
  }
  loop.server->stop();
  for (const char* l : {"0", "1"}) {
    EXPECT_EQ(loop.counter("socket_accepted_total", {{"loop", l}}), 4u)
        << "loop " << l;
    EXPECT_EQ(loop.counter("socket_closed_total", {{"loop", l}}), 4u)
        << "loop " << l;
    EXPECT_EQ(loop.counter("socket_requests_total", {{"loop", l}}), 4u)
        << "loop " << l;
  }
}

TEST(SocketServer, UnixPathIsUnlinkedOnStopAndNonSocketRefused) {
  const std::string path = fresh_uds_path();
  {
    ServeOptions vopt;
    SortService service(vopt);
    net::SocketOptions sopt;
    sopt.listen_tcp = false;
    sopt.unix_path = path;
    net::SocketServer server(service, sopt);
    ASSERT_TRUE(server.start().ok());
    server.stop();
    // The socket file is gone: a later server can bind the path fresh.
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
  }
  // A non-socket file at the path is never unlinked, it's an error.
  {
    const std::string file = fresh_uds_path();
    FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ServeOptions vopt;
    SortService service(vopt);
    net::SocketOptions sopt;
    sopt.listen_tcp = false;
    sopt.unix_path = file;
    net::SocketServer server(service, sopt);
    const Status s = server.start();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(::access(file.c_str(), F_OK), 0);  // still there
    ::unlink(file.c_str());
  }
}

// --- every serving path agrees ---------------------------------------------

/// Round-trips `requests` on `client` with at most `window` frames in
/// flight and returns the responses in send order; a transport failure
/// fails the test and cuts the list short.
std::vector<SortResponse> round_trip(net::SortClient& client,
                                     const std::vector<SortRequest>& requests,
                                     std::size_t window) {
  std::vector<SortResponse> responses;
  for (std::size_t begin = 0; begin < requests.size(); begin += window) {
    const std::size_t end = std::min(requests.size(), begin + window);
    for (std::size_t i = begin; i < end; ++i) {
      const Status sent = client.send(requests[i]);
      EXPECT_TRUE(sent.ok()) << sent.to_string();
      if (!sent.ok()) return responses;
    }
    for (std::size_t i = begin; i < end; ++i) {
      StatusOr<SortResponse> response = client.receive();
      EXPECT_TRUE(response.ok()) << response.status().to_string();
      if (!response.ok()) return responses;
      responses.push_back(std::move(*response));
    }
  }
  return responses;
}

/// Checks that `responses`, read in order with any number of rounds each,
/// carry exactly the rounds of `expect`.
void expect_rounds(const std::string& path,
                   const std::vector<SortResponse>& responses,
                   const std::vector<std::vector<Word>>& expect) {
  const std::size_t channels = expect.front().size();
  std::size_t round = 0;
  for (const SortResponse& response : responses) {
    ASSERT_TRUE(response.status.ok())
        << path << ": " << response.status.to_string();
    const std::vector<Word> words = response.words();
    ASSERT_EQ(words.size(), response.rounds * channels) << path;
    const auto width = static_cast<std::ptrdiff_t>(channels);
    for (auto w = words.begin(); w != words.end(); w += width, ++round) {
      ASSERT_LT(round, expect.size()) << path;
      ASSERT_EQ(std::vector<Word>(w, w + width), expect[round])
          << path << " round " << round;
    }
  }
  EXPECT_EQ(round, expect.size()) << path;
}

TEST(SocketServer, EveryServingPathMatchesSortBatch) {
  // The paper's 10-channel 8-bit sorter through the five ways a round
  // reaches the engine: the in-process future and callback submits, TCP
  // one-round and 256-round batch frames, and UNIX-domain one-round
  // frames. Each must answer exactly what a direct sort_batch does.
  const SortShape shape{10, 8};
  constexpr std::size_t kRounds = 2048;
  constexpr std::size_t kBatchRounds = 256;
  Xoshiro256 rng(71);
  std::vector<std::vector<Word>> rounds;
  std::vector<SortRequest> singles;
  for (std::size_t i = 0; i < kRounds; ++i) {
    rounds.push_back(random_valid_round(rng, shape.channels, shape.bits));
    singles.push_back(
        std::move(SortRequest::from_words(rounds.back()).value()));
  }
  std::vector<SortRequest> batches;
  for (std::size_t i = 0; i < kRounds; i += kBatchRounds) {
    std::vector<Trit> flat;
    for (std::size_t r = i; r < i + kBatchRounds; ++r) {
      for (const Word& w : rounds[r]) {
        flat.insert(flat.end(), w.begin(), w.end());
      }
    }
    batches.push_back(std::move(
        SortRequest::own_batch(shape, kBatchRounds, std::move(flat)).value()));
  }
  const std::vector<std::vector<Word>> expect =
      McSorter(shape.channels, shape.bits).sort_batch(rounds);

  // Callback slots outlive the service: its destructor drains pending
  // callbacks, which must find their targets alive.
  std::vector<SortResponse> callback_slots(kRounds);
  std::atomic<std::size_t> callbacks_left{kRounds};
  std::promise<void> callbacks_done;
  const std::future<void> all_called_back = callbacks_done.get_future();

  net::SocketOptions sopt;
  sopt.unix_path = fresh_uds_path();
  sopt.max_inflight = 1024;  // rounds: room for a few batch frames
  ServeOptions vopt = fast_flush();
  vopt.workers = 2;
  Loopback loop(sopt, vopt);
  SortService& service = *loop.service;

  std::vector<std::future<SortResponse>> futures;
  for (const SortRequest& request : singles) {
    futures.push_back(service.submit(request));
  }
  std::vector<SortResponse> future_responses;
  for (std::future<SortResponse>& f : futures) {
    future_responses.push_back(f.get());
  }
  expect_rounds("submit future", future_responses, expect);

  for (std::size_t i = 0; i < kRounds; ++i) {
    service.submit(singles[i], [&, i](SortResponse response) {
      callback_slots[i] = std::move(response);
      if (callbacks_left.fetch_sub(1) == 1) callbacks_done.set_value();
    });
  }
  ASSERT_EQ(all_called_back.wait_for(30s), std::future_status::ready);
  expect_rounds("submit callback", callback_slots, expect);

  net::SortClient tcp = loop.client();
  expect_rounds("TCP one-round frames", round_trip(tcp, singles, 64), expect);
  expect_rounds("TCP batch frames", round_trip(tcp, batches, 2), expect);

  StatusOr<net::SortClient> uds =
      net::SortClient::connect_unix(sopt.unix_path);
  ASSERT_TRUE(uds.ok()) << uds.status().to_string();
  expect_rounds("UDS one-round frames", round_trip(*uds, singles, 64), expect);
  EXPECT_EQ(loop.counter("socket_batch_requests_total"),
            kRounds / kBatchRounds);
}

// --- connect timeout --------------------------------------------------------

TEST(SortClient, ConnectWithTimeoutSucceedsAgainstLiveServer) {
  // The bounded-connect path (non-blocking + poll + restore-to-blocking)
  // must leave a perfectly usable connection behind.
  const SortShape shape{4, 4};
  Xoshiro256 rng(71);
  const std::vector<Trit> round = random_flat(rng, shape);
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, {round});

  Loopback loop({}, fast_flush());
  StatusOr<net::SortClient> client =
      net::SortClient::connect("127.0.0.1", loop.server->port(), 2000ms);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  StatusOr<SortResponse> response =
      client->sort(SortRequest::view(shape, round).value());
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->payload, expect[0]);
}

TEST(SortClient, ConnectTimesOutAgainstFullBacklog) {
  // A listener that never accepts, with its backlog pre-filled: further
  // SYNs are dropped (Linux default) so the connect can only hang — the
  // timeout must cut it off with kDeadlineExceeded near the budget.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  // Fill the accept queue (backlog 1 admits a couple of connections on
  // Linux; a handful of fillers makes the overflow certain).
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(50ms);  // let the queue fill

  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<net::SortClient> client =
      net::SortClient::connect("127.0.0.1", port, 300ms);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kDeadlineExceeded)
      << client.status().to_string();
  EXPECT_GE(elapsed, 250ms);
  EXPECT_LT(elapsed, 5000ms);  // and it didn't hang anywhere near forever

  for (const int fd : fillers) ::close(fd);
  ::close(lfd);
}

TEST(SortClient, ConnectUnixRejectsBadPaths) {
  EXPECT_EQ(net::SortClient::connect_unix("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::SortClient::connect_unix(std::string(200, 'x'))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // longer than sun_path
  const StatusOr<net::SortClient> missing =
      net::SortClient::connect_unix("/tmp/mcsn_no_such_socket_here.sock");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kUnavailable);
}

// --- stats admin frames ------------------------------------------------------

TEST(SocketServer, LiveStatsScrapeDuringPipelinedLoad) {
  const SortShape shape{4, 4};
  Xoshiro256 rng(51);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 64; ++i) rounds.push_back(random_flat(rng, shape));

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  for (const std::vector<Trit>& r : rounds) {
    ASSERT_TRUE(client.send(SortRequest::view(shape, r).value()).ok());
  }
  // Scrape from a second connection while the pipelined load is in
  // flight: the stats path must answer from the event loop without a
  // batcher trip (a scrape stuck behind the load would deadlock a
  // monitoring client).
  net::SortClient scraper = loop.client();
  const StatusOr<wire::StatsReply> mid = scraper.stats();
  ASSERT_TRUE(mid.ok()) << mid.status().to_string();
  ASSERT_TRUE(mid->status.ok()) << mid->status.to_string();
  EXPECT_EQ(mid->format, wire::StatsFormat::json);
  // Eagerly registered series only: the per-shape pool series appear
  // after the first batch executes, which may race this scrape.
  for (const char* key :
       {"\"metrics\"", "\"slow_requests\"", "serve_submitted_total",
        "stage_decode_ns", "stage_queue_ns", "stage_execute_ns",
        "stage_encode_ns", "stage_write_ns", "socket_requests_total"}) {
    EXPECT_NE(mid->text.find(key), std::string::npos) << key;
  }

  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const StatusOr<SortResponse> response = client.receive();
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
  }
  // After the drain, every stage histogram must have samples — the
  // Prometheus rendering exposes the counts directly.
  const StatusOr<wire::StatsReply> after =
      scraper.stats(wire::StatsFormat::prometheus);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->status.ok());
  EXPECT_EQ(after->format, wire::StatsFormat::prometheus);
  for (const char* stage :
       {"stage_decode_ns", "stage_queue_ns", "stage_execute_ns",
        "stage_encode_ns", "stage_write_ns"}) {
    const std::string count_key = std::string(stage) + "_count ";
    const std::size_t at = after->text.find(count_key);
    ASSERT_NE(at, std::string::npos) << stage;
    EXPECT_NE(after->text.compare(at + count_key.size(), 2, "0\n"), 0)
        << stage << " histogram is empty";
  }
  // By now at least one batch executed, so the per-shape pool series exist.
  EXPECT_NE(after->text.find("pool_batches_total{bits=\"4\",channels=\"4\"}"),
            std::string::npos);
  EXPECT_GE(loop.counter("socket_stats_requests_total"), 2u);
}

TEST(SocketServer, StatsFramesInterleaveWithSortFramesInOrder) {
  const SortShape shape{4, 4};
  Xoshiro256 rng(53);
  constexpr std::size_t kRounds = 3;
  std::vector<Trit> flat;
  std::vector<std::vector<Trit>> rounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    rounds.push_back(random_flat(rng, shape));
    flat.insert(flat.end(), rounds.back().begin(), rounds.back().end());
  }
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);
  const std::vector<Trit> single = random_flat(rng, shape);
  const std::vector<std::vector<Trit>> single_expect =
      expected_sorted(shape, {single});

  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  // One connection, four pipelined sends: batch, stats, single, stats.
  // Responses must come back in exactly that order — stats replies are
  // served inline by the loop but still queue behind owed responses.
  ASSERT_TRUE(
      client.send_batch(SortRequest::view_batch(shape, kRounds, flat).value())
          .ok());
  ASSERT_TRUE(client.send_stats(wire::StatsFormat::json).ok());
  ASSERT_TRUE(client.send(SortRequest::view(shape, single).value()).ok());
  ASSERT_TRUE(client.send_stats(wire::StatsFormat::prometheus).ok());

  const StatusOr<SortResponse> batch = client.receive();
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  ASSERT_TRUE(batch->status.ok());
  EXPECT_EQ(batch->rounds, kRounds);
  const StatusOr<wire::StatsReply> json_reply = client.receive_stats();
  ASSERT_TRUE(json_reply.ok()) << json_reply.status().to_string();
  ASSERT_TRUE(json_reply->status.ok());
  EXPECT_EQ(json_reply->format, wire::StatsFormat::json);
  EXPECT_EQ(json_reply->text.front(), '{');
  const StatusOr<SortResponse> one = client.receive();
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  ASSERT_TRUE(one->status.ok());
  EXPECT_EQ(one->payload, single_expect[0]);
  const StatusOr<wire::StatsReply> prom_reply = client.receive_stats();
  ASSERT_TRUE(prom_reply.ok()) << prom_reply.status().to_string();
  ASSERT_TRUE(prom_reply->status.ok());
  EXPECT_EQ(prom_reply->format, wire::StatsFormat::prometheus);
  EXPECT_EQ(prom_reply->text.compare(0, 7, "# TYPE "), 0);
  // The JSON scrape ran between the two sorts: it must already count the
  // batch frame but reflect a live server either way.
  EXPECT_NE(json_reply->text.find("socket_batch_requests_total"),
            std::string::npos);
}

TEST(SortClient, FrameOfTheOtherKindStaysBufferedForItsReceiver) {
  // receive() meeting a stats response (or receive_stats() meeting a sort
  // response) reports kUnimplemented and leaves the frame in place, so
  // the matching receiver still gets it.
  const SortShape shape{4, 4};
  Xoshiro256 rng(63);
  const std::vector<Trit> round = random_flat(rng, shape);
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();

  ASSERT_TRUE(client.send_stats().ok());
  const StatusOr<SortResponse> early = client.receive();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kUnimplemented);
  const StatusOr<wire::StatsReply> reply = client.receive_stats();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_TRUE(reply->status.ok());
  EXPECT_EQ(reply->format, wire::StatsFormat::json);

  ASSERT_TRUE(client.send(SortRequest::view(shape, round).value()).ok());
  const StatusOr<wire::StatsReply> wrong = client.receive_stats();
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kUnimplemented);
  const StatusOr<SortResponse> response = client.receive();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(response->payload, expected_sorted(shape, {round})[0]);
}

TEST(SocketServer, MalformedStatsRequestGetsErrorReplyAndSurvives) {
  Loopback loop({}, fast_flush());
  net::SortClient client = loop.client();
  // Intact framing, wrong body size (3 bytes, must be exactly 4): the
  // reply carries the decode failure as its status, and — unlike a corrupt
  // sort frame — the connection stays up, because framing was never lost.
  const std::uint8_t bad_len[] = {'M', 'C', 2, 5, 3, 0, 0, 0, 1, 2, 3};
  ASSERT_EQ(::send(client.native_handle(), bad_len, sizeof bad_len, 0),
            static_cast<ssize_t>(sizeof bad_len));
  const StatusOr<wire::StatsReply> reply = client.receive_stats();
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(reply->text.empty());

  // An unknown format value (a newer client) answers kUnimplemented.
  const std::uint8_t bad_format[] = {'M', 'C', 2, 5, 4, 0, 0, 0, 9, 0, 0, 0};
  ASSERT_EQ(::send(client.native_handle(), bad_format, sizeof bad_format, 0),
            static_cast<ssize_t>(sizeof bad_format));
  const StatusOr<wire::StatsReply> reply2 = client.receive_stats();
  ASSERT_TRUE(reply2.ok()) << reply2.status().to_string();
  EXPECT_EQ(reply2->status.code(), StatusCode::kUnimplemented);

  // The connection still sorts.
  const SortShape shape{4, 4};
  Xoshiro256 rng(57);
  const std::vector<Trit> round = random_flat(rng, shape);
  const StatusOr<SortResponse> response =
      client.sort(SortRequest::view(shape, round).value());
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(loop.counter("socket_protocol_errors_total"), 0u);
}

TEST(SocketServer, SlowRequestRingCapturesDeadlineExceeded) {
  // A deadline shorter than the flush window: the request expires in the
  // batcher, the client sees kDeadlineExceeded, and the slow-request ring
  // records the victim with its stage breakdown.
  ServeOptions vopt;
  vopt.flush_window = std::chrono::microseconds(20000);
  Loopback loop({}, vopt);
  net::SortClient client = loop.client();
  const SortShape shape{4, 4};
  Xoshiro256 rng(59);
  const std::vector<Trit> round = random_flat(rng, shape);
  StatusOr<SortRequest> request = SortRequest::view(shape, round);
  ASSERT_TRUE(request.ok());
  request->set_deadline_after(std::chrono::milliseconds(1));
  const StatusOr<SortResponse> response = client.sort(*request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);

  const std::vector<SlowRequest> slow = loop.service->slow_requests().snapshot();
  ASSERT_FALSE(slow.empty());
  bool found = false;
  for (const SlowRequest& r : slow) {
    if (r.code != StatusCode::kDeadlineExceeded) continue;
    found = true;
    EXPECT_EQ(r.channels, shape.channels);
    EXPECT_EQ(r.bits, shape.bits);
    EXPECT_EQ(r.rounds, 1u);
    // It spent (at least) the deadline waiting in the queue, and never
    // reached the engine.
    EXPECT_GE(r.queue_ns, 1000000u);
    EXPECT_EQ(r.execute_ns, 0u);
    EXPECT_GE(r.total_ns, r.queue_ns);
  }
  EXPECT_TRUE(found);
  // The ring also renders into the live scrape document.
  const StatusOr<wire::StatsReply> reply = client.stats();
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply->text.find("\"slow_requests\": [{"), std::string::npos);
}

// --- abruptly killed server -------------------------------------------------

/// A stand-in for a server that dies: a raw listener on an ephemeral
/// loopback port whose accept thread runs `behavior` on the accepted fd
/// and then closes it. No SocketServer involved — the point is to control
/// the exact byte position at which the peer disappears.
class DyingServer {
 public:
  explicit DyingServer(std::function<void(int)> behavior) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    accept_thread_ = std::thread([this, behavior = std::move(behavior)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      behavior(fd);
      ::close(fd);
    });
  }

  ~DyingServer() {
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
};

/// Lets the client's request bytes arrive (and discards them) so the
/// client's send() succeeds and the failure surfaces in receive().
void drain_briefly(int fd) {
  timeval tv{};
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::uint8_t buf[4096];
  (void)::recv(fd, buf, sizeof(buf), 0);
}

SortRequest small_request(Xoshiro256& rng, std::vector<Trit>& storage) {
  const SortShape shape{4, 4};
  storage = random_flat(rng, shape);
  StatusOr<SortRequest> request = SortRequest::view(shape, storage);
  EXPECT_TRUE(request.ok());
  return std::move(*request);
}

TEST(SortClient, ServerClosingBeforeResponseFailsSortCleanly) {
  // The server reads the request and closes cleanly between frames: the
  // client must return kUnavailable — not hang, not crash.
  Xoshiro256 rng(91);
  std::vector<Trit> storage;
  const SortRequest request = small_request(rng, storage);
  {
    DyingServer server(drain_briefly);
    StatusOr<net::SortClient> client =
        net::SortClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    const StatusOr<SortResponse> rsp = client->sort(request);
    ASSERT_FALSE(rsp.ok());
    EXPECT_EQ(rsp.status().code(), StatusCode::kUnavailable);
  }
  {
    DyingServer server(drain_briefly);
    StatusOr<net::SortClient> client =
        net::SortClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    const StatusOr<SortResponse> rsp = client->sort_batch(request);
    ASSERT_FALSE(rsp.ok());
    EXPECT_EQ(rsp.status().code(), StatusCode::kUnavailable);
  }
  {
    DyingServer server(drain_briefly);
    StatusOr<net::SortClient> client =
        net::SortClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    const StatusOr<wire::StatsReply> rsp = client->stats();
    ASSERT_FALSE(rsp.ok());
    EXPECT_EQ(rsp.status().code(), StatusCode::kUnavailable);
  }
}

TEST(SortClient, ServerDyingMidResponseFrameReportsDataLoss) {
  // The server answers with a valid header promising a body it never
  // delivers, then dies: a close mid-frame is data loss, distinguishable
  // from a clean shutdown.
  DyingServer server([](int fd) {
    drain_briefly(fd);
    std::uint8_t partial[wire::kHeaderSize + 5] = {};
    partial[0] = 'M';
    partial[1] = 'C';
    partial[2] = wire::kVersion;
    partial[3] = static_cast<std::uint8_t>(wire::FrameType::response);
    partial[4] = 100;  // length 100 LE; only 5 body bytes follow.
    (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
  });
  StatusOr<net::SortClient> client =
      net::SortClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Xoshiro256 rng(92);
  std::vector<Trit> storage;
  const StatusOr<SortResponse> rsp = client->sort(small_request(rng, storage));
  ASSERT_FALSE(rsp.ok());
  EXPECT_EQ(rsp.status().code(), StatusCode::kDataLoss);
}

TEST(SortClient, PeerClosingMidHeaderIsDataLossForEitherReceiver) {
  // Three header bytes, then EOF: receive() and receive_stats() share one
  // read loop, and both must report the truncation as kDataLoss rather
  // than the clean-close kUnavailable.
  for (const bool stats : {false, true}) {
    DyingServer server([](int fd) {
      drain_briefly(fd);
      const std::uint8_t partial[] = {wire::kMagic0, wire::kMagic1,
                                      wire::kVersion};
      (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
    });
    StatusOr<net::SortClient> client =
        net::SortClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    Xoshiro256 rng(94);
    std::vector<Trit> storage;
    const Status status = stats
                              ? client->stats().status()
                              : client->sort(small_request(rng, storage))
                                    .status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << (stats ? "receive_stats: " : "receive: ") << status.to_string();
  }
}

TEST(SortClient, ServerResetFailsEveryPipelinedInFlightCall) {
  // SIGKILL of a serving process manifests to the peer as either a clean
  // FIN or an RST depending on socket state; SO_LINGER{1,0} forces the
  // harsher RST case. Several requests and a stats scrape are in flight —
  // every receive must come back with a Status, none may hang.
  DyingServer server([](int fd) {
    drain_briefly(fd);
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  });
  StatusOr<net::SortClient> client =
      net::SortClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Xoshiro256 rng(93);
  std::vector<Trit> storage[3];
  // Pipeline: the sends may themselves fail (EPIPE after the RST lands) —
  // that is fine, as long as they fail with a Status.
  (void)client->send(small_request(rng, storage[0]));
  (void)client->send(small_request(rng, storage[1]));
  (void)client->send(small_request(rng, storage[2]));
  (void)client->send_stats();
  for (int i = 0; i < 3; ++i) {
    const StatusOr<SortResponse> rsp = client->receive();
    EXPECT_FALSE(rsp.ok());
  }
  const StatusOr<wire::StatsReply> stats = client->receive_stats();
  EXPECT_FALSE(stats.ok());
  // The connection is dead; further calls keep returning Status values.
  const StatusOr<SortResponse> again =
      client->sort(small_request(rng, storage[0]));
  EXPECT_FALSE(again.ok());
}

TEST(SocketServer, FaultInjectionByteCapsPreserveParity) {
  // The soak harness's syscall byte caps (SocketOptions::fault) slice
  // every recv/send into tiny pieces; the framing layer must reassemble
  // and the answers must stay bit-identical to the direct engine.
  net::SocketOptions sopt;
  sopt.fault.recv_cap = 3;
  sopt.fault.send_cap = 5;
  Loopback loop(sopt, fast_flush());
  net::SortClient client = loop.client();

  const SortShape shape{5, 4};
  Xoshiro256 rng(94);
  std::vector<std::vector<Trit>> rounds;
  for (int i = 0; i < 8; ++i) rounds.push_back(random_flat(rng, shape));
  const std::vector<std::vector<Trit>> expect = expected_sorted(shape, rounds);

  for (std::size_t i = 0; i < rounds.size(); ++i) {
    StatusOr<SortRequest> request = SortRequest::view(shape, rounds[i]);
    ASSERT_TRUE(request.ok());
    const StatusOr<SortResponse> rsp = client.sort(*request);
    ASSERT_TRUE(rsp.ok()) << rsp.status().to_string();
    ASSERT_TRUE(rsp->status.ok()) << rsp->status.to_string();
    EXPECT_EQ(rsp->payload, expect[i]) << "single round " << i;
  }

  std::vector<Trit> flat;
  for (const std::vector<Trit>& r : rounds) {
    flat.insert(flat.end(), r.begin(), r.end());
  }
  StatusOr<SortRequest> batch =
      SortRequest::view_batch(shape, rounds.size(), flat);
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  const StatusOr<SortResponse> rsp = client.sort_batch(*batch);
  ASSERT_TRUE(rsp.ok()) << rsp.status().to_string();
  ASSERT_TRUE(rsp->status.ok()) << rsp->status.to_string();
  std::vector<Trit> expect_flat;
  for (const std::vector<Trit>& r : expect) {
    expect_flat.insert(expect_flat.end(), r.begin(), r.end());
  }
  EXPECT_EQ(rsp->payload, expect_flat);

  // A stats document (much larger than the caps) survives the slicing too.
  const StatusOr<wire::StatsReply> stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats->text.find("process_rss_bytes"), std::string::npos);
}

}  // namespace
}  // namespace mcsn
