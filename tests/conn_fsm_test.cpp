// The connection-lifecycle FSM (serve/net/conn_fsm.hpp): the transition
// table itself, then a randomized property suite driving >= 1000 client
// sessions — pipelined sorts, batches, stats scrapes, half-closes,
// garbage tails, truncated frames, abrupt resets — against a real
// SocketServer. The server's per-connection ConnFsm aborts the process
// on any illegal lifecycle transition in this (debug/MCSN_VERIFY) build,
// so the property is simply that every randomized session completes with
// the expected responses and the server survives.

#include "mcsn/serve/net/conn_fsm.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/serve/net/client.hpp"
#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

using namespace std::chrono_literals;
using net::ConnFsm;
using net::ConnState;

// --- transition table -------------------------------------------------------

/// A non-aborting FSM so illegal transitions can be asserted on instead
/// of killing the test binary.
ConnFsm soft() { return ConnFsm(/*abort_on_violation=*/false); }

TEST(ConnFsm, HappyPathRequestResponseCycles) {
  ConnFsm fsm = soft();
  EXPECT_EQ(fsm.state(), ConnState::kReading);
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_TRUE(fsm.request_admitted());
    EXPECT_TRUE(fsm.request_admitted());
    EXPECT_EQ(fsm.state(), ConnState::kOwed);
    EXPECT_EQ(fsm.owed(), 2u);
    EXPECT_TRUE(fsm.response_written());
    EXPECT_EQ(fsm.state(), ConnState::kOwed);  // one still owed
    EXPECT_TRUE(fsm.response_written());
    EXPECT_EQ(fsm.state(), ConnState::kReading);  // balanced again
  }
  EXPECT_TRUE(fsm.connection_closed());
  EXPECT_EQ(fsm.state(), ConnState::kClosed);
  EXPECT_EQ(fsm.violations(), 0u);
}

TEST(ConnFsm, ResponseWithoutRequestIsAViolation) {
  ConnFsm fsm = soft();
  EXPECT_FALSE(fsm.response_written());
  EXPECT_EQ(fsm.violations(), 1u);

  // Also after the books balance: a stray extra write is caught.
  EXPECT_TRUE(fsm.request_admitted());
  EXPECT_TRUE(fsm.response_written());
  EXPECT_FALSE(fsm.response_written());
  EXPECT_EQ(fsm.violations(), 2u);
}

TEST(ConnFsm, HalfCloseDrainsOwedThenNothingNewAfterTeardown) {
  ConnFsm fsm = soft();
  EXPECT_TRUE(fsm.request_admitted());
  EXPECT_TRUE(fsm.peer_half_closed());
  EXPECT_EQ(fsm.state(), ConnState::kEofDraining);
  // Frames buffered before the EOF still parse and are owed answers.
  EXPECT_TRUE(fsm.request_admitted());
  EXPECT_TRUE(fsm.response_written());
  EXPECT_TRUE(fsm.response_written());
  EXPECT_EQ(fsm.state(), ConnState::kEofDraining);  // EOF is sticky
  EXPECT_TRUE(fsm.connection_closed());
  EXPECT_EQ(fsm.violations(), 0u);
}

TEST(ConnFsm, ProtocolErrorOwesTheErrorFrameAndStopsAdmission) {
  ConnFsm fsm = soft();
  EXPECT_TRUE(fsm.request_admitted());
  EXPECT_TRUE(fsm.protocol_error());
  EXPECT_EQ(fsm.state(), ConnState::kErrorDraining);
  EXPECT_EQ(fsm.owed(), 2u);  // the sort + the error response
  EXPECT_FALSE(fsm.request_admitted());  // framing stopped at the bad byte
  EXPECT_FALSE(fsm.protocol_error());    // and stays stopped
  EXPECT_EQ(fsm.violations(), 2u);
  EXPECT_TRUE(fsm.response_written());
  EXPECT_TRUE(fsm.response_written());
  EXPECT_TRUE(fsm.connection_closed());
}

TEST(ConnFsm, TruncatedTailAfterEofEscalatesToError) {
  // recv()==0 with a partial frame buffered: data_loss is reported, so
  // kEofDraining -> kErrorDraining must be legal.
  ConnFsm fsm = soft();
  EXPECT_TRUE(fsm.peer_half_closed());
  EXPECT_TRUE(fsm.protocol_error());
  EXPECT_EQ(fsm.state(), ConnState::kErrorDraining);
  EXPECT_EQ(fsm.owed(), 1u);
  EXPECT_EQ(fsm.violations(), 0u);
}

TEST(ConnFsm, StopDrainHalfCloseIsIdempotent) {
  // stop() marks every connection peer_eof, including ones already
  // draining — the event must be a no-op there, not a violation.
  ConnFsm fsm = soft();
  EXPECT_TRUE(fsm.peer_half_closed());
  EXPECT_TRUE(fsm.peer_half_closed());
  EXPECT_EQ(fsm.state(), ConnState::kEofDraining);
  EXPECT_TRUE(fsm.protocol_error());
  EXPECT_TRUE(fsm.peer_half_closed());
  EXPECT_EQ(fsm.state(), ConnState::kErrorDraining);
  EXPECT_EQ(fsm.violations(), 0u);
}

TEST(ConnFsm, IdleReapIsLegalWithResponsesStillOwed) {
  ConnFsm fsm = soft();
  EXPECT_TRUE(fsm.request_admitted());
  EXPECT_TRUE(fsm.idle_expired());
  EXPECT_EQ(fsm.state(), ConnState::kClosed);
  // schedule_close runs after the reaper already moved the FSM.
  EXPECT_TRUE(fsm.connection_closed());
  // But nothing else is legal after close.
  EXPECT_FALSE(fsm.request_admitted());
  EXPECT_FALSE(fsm.response_written());
  EXPECT_FALSE(fsm.peer_half_closed());
  EXPECT_FALSE(fsm.idle_expired());
  EXPECT_EQ(fsm.violations(), 4u);
}

// --- randomized sessions against a real server ------------------------------

std::vector<Trit> random_flat(Xoshiro256& rng, SortShape shape) {
  std::vector<Trit> flat;
  flat.reserve(shape.trits());
  for (const Word& w : random_valid_round(rng, shape.channels, shape.bits)) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  return flat;
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

/// One randomized session: a pipelined burst of valid traffic, then a
/// randomly chosen ending. Returns false only on unexpected failures
/// (expected error responses and connection teardowns are part of the
/// exercise).
void run_session(net::SortClient& client, Xoshiro256& rng) {
  const SortShape shape{2, 2};
  enum class Sent : std::uint8_t { sort, batch, stats };
  std::vector<Sent> sent;

  const std::size_t burst = rng.below(5);  // 0..4 pipelined frames
  for (std::size_t i = 0; i < burst; ++i) {
    switch (rng.below(3)) {
      case 0: {
        StatusOr<SortRequest> req =
            SortRequest::own(shape, random_flat(rng, shape));
        ASSERT_TRUE(req.ok());
        ASSERT_TRUE(client.send(*req).ok());
        sent.push_back(Sent::sort);
        break;
      }
      case 1: {
        const std::size_t rounds = 1 + rng.below(3);
        std::vector<Trit> flat;
        for (std::size_t r = 0; r < rounds; ++r) {
          const std::vector<Trit> one = random_flat(rng, shape);
          flat.insert(flat.end(), one.begin(), one.end());
        }
        StatusOr<SortRequest> req =
            SortRequest::own_batch(shape, rounds, std::move(flat));
        ASSERT_TRUE(req.ok());
        ASSERT_TRUE(client.send_batch(*req).ok());
        sent.push_back(Sent::batch);
        break;
      }
      default:
        ASSERT_TRUE(client.send_stats().ok());
        sent.push_back(Sent::stats);
        break;
    }
  }

  // Random ending, chosen BEFORE draining so teardowns race real traffic.
  const std::uint64_t ending = rng.below(5);
  if (ending == 1) {
    // Garbage tail: the server answers everything owed, appends an error
    // response, and tears the connection down. Must be at least a full
    // header (8 bytes): a shorter prefix is indistinguishable from an
    // incomplete frame, and the server rightly waits for the rest.
    const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef,
                                 0x00, 0x99, 0x77, 0x66};
    (void)::send(client.native_handle(), junk, sizeof junk, MSG_NOSIGNAL);
  } else if (ending == 2) {
    // Truncated frame then half-close: mid-frame EOF is data loss.
    const std::vector<std::uint8_t> frame =
        wire::encode_stats_request(wire::StatsFormat::json);
    (void)::send(client.native_handle(), frame.data(), frame.size() / 2,
                 MSG_NOSIGNAL);
    (void)::shutdown(client.native_handle(), SHUT_WR);
  } else if (ending == 3) {
    // Clean half-close: everything already sent must still be answered.
    (void)::shutdown(client.native_handle(), SHUT_WR);
  }  // 0: plain close after draining; 4: abrupt close with responses owed

  if (ending == 4) {
    client.close();
    return;
  }

  // Drain every owed response in order; after a garbage/truncated tail
  // one final error response may follow, then the server closes.
  for (const Sent type : sent) {
    if (type == Sent::stats) {
      StatusOr<wire::StatsReply> reply = client.receive_stats();
      ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    } else {
      StatusOr<SortResponse> rsp = client.receive();
      ASSERT_TRUE(rsp.ok()) << rsp.status().to_string();
      ASSERT_TRUE(rsp->status.ok()) << rsp->status.to_string();
      ASSERT_EQ(rsp->payload.size(),
                shape.trits() * (type == Sent::batch ? rsp->rounds : 1));
    }
  }
  if (ending == 1 || ending == 2) {
    // The teardown error frame (bad magic / mid-frame truncation).
    StatusOr<SortResponse> err = client.receive();
    if (err.ok()) {
      EXPECT_FALSE(err->status.ok());
    }  // (the connection may already read as closed under races — fine)
    // And then nothing more: the server closed.
    EXPECT_FALSE(client.receive().ok());
  }
}

TEST(ConnFsmProperty, ThousandRandomizedSessionsAgainstRealServer) {
  ServeOptions vopt;
  vopt.flush_window = std::chrono::microseconds(100);
  SortService service(vopt);
  net::SocketOptions sopt;
  sopt.port = 0;
  // Backstop: a session that deadlocks (client waiting on a response the
  // server does not owe) gets reaped instead of hanging the suite.
  sopt.idle_timeout = std::chrono::milliseconds(2000);
  net::SocketServer server(service, sopt);
  ASSERT_TRUE(server.start().ok());

  constexpr int kSessions = 1000;
  Xoshiro256 rng(20260807);
  for (int s = 0; s < kSessions; ++s) {
    StatusOr<net::SortClient> client =
        net::SortClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << "session " << s << ": "
                             << client.status().to_string();
    run_session(*client, rng);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "session " << s << " failed";
    }
  }

  // All sessions eventually account for their close (abrupt ones lag).
  const MetricsRegistry& reg = service.registry();
  EXPECT_TRUE(eventually([&] {
    return reg.counter_total("socket_closed_total").value_or(0) +
               reg.counter_total("socket_idle_closed_total").value_or(0) >=
           kSessions;
  }));
  EXPECT_EQ(reg.counter_total("socket_accepted_total"),
            static_cast<std::uint64_t>(kSessions));
  // Garbage/truncation endings ran.
  EXPECT_GT(reg.counter_total("socket_protocol_errors_total").value_or(0), 0u);
  server.stop();
}

TEST(ConnFsmProperty, IdleReaperClosesStalledConnections) {
  ServeOptions vopt;
  vopt.flush_window = std::chrono::microseconds(100);
  SortService service(vopt);
  net::SocketOptions sopt;
  sopt.port = 0;
  sopt.idle_timeout = 60ms;
  net::SocketServer server(service, sopt);
  ASSERT_TRUE(server.start().ok());

  StatusOr<net::SortClient> idle =
      net::SortClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok());
  // Send one request so the reap happens on a connection that has lived
  // through the kOwed state, then stall.
  Xoshiro256 rng(99);
  StatusOr<SortRequest> req =
      SortRequest::own(SortShape{2, 2}, random_flat(rng, {2, 2}));
  ASSERT_TRUE(req.ok());
  StatusOr<SortResponse> rsp = idle->sort(*req);
  ASSERT_TRUE(rsp.ok());

  EXPECT_TRUE(eventually([&] {
    return service.registry().counter_total("socket_idle_closed_total") >= 1u;
  }));
  server.stop();
}

}  // namespace
}  // namespace mcsn
