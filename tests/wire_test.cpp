// The binary wire codec: byte-exact round-trips for requests and responses
// across every catalog shape and both payload encodings, plus the
// robustness suite — truncated frames at every prefix length, corrupt
// length prefixes, version/magic/type/flag mismatches, invalid packed
// trits — and stream framing over iostreams.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mcsn/core/gray.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

std::vector<Trit> random_flat(Xoshiro256& rng, SortShape shape) {
  std::vector<Trit> flat;
  flat.reserve(shape.trits());
  for (const Word& w : random_valid_round(rng, shape.channels, shape.bits)) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  return flat;
}

SortRequest decode_request_frame(std::span<const std::uint8_t> frame) {
  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  EXPECT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view->type, wire::FrameType::request);
  StatusOr<SortRequest> req = wire::decode_request(view->body);
  EXPECT_TRUE(req.ok()) << req.status().to_string();
  return std::move(*req);
}

// --- round trips -------------------------------------------------------------

// Requests round-trip on every catalog shape (and the Batcher fallback),
// with re-encoding being byte-exact — the codec has one canonical form.
TEST(Wire, RequestRoundTripsAllCatalogShapesByteExact) {
  const std::vector<SortShape> shapes = {
      {4, 4}, {7, 3}, {9, 2}, {10, 8}, {6, 5}, {2, 16}};
  Xoshiro256 rng(3);
  for (const SortShape shape : shapes) {
    const std::vector<Trit> flat = random_flat(rng, shape);
    const SortRequest original =
        std::move(SortRequest::own(shape, flat).value());
    const auto now = Clock::now();
    const std::vector<std::uint8_t> frame =
        wire::encode_request(original, now);

    StatusOr<wire::FrameView> view = wire::parse_frame(frame);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view->frame_size, frame.size());
    StatusOr<SortRequest> decoded = wire::decode_request(view->body, now);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->shape, shape);
    ASSERT_EQ(decoded->payload.size(), flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_EQ(decoded->payload[i], flat[i]) << "trit " << i;
    }
    EXPECT_FALSE(decoded->values_requested);
    EXPECT_FALSE(decoded->deadline.has_value());

    // Canonical: re-encoding the decoded request reproduces the bytes.
    EXPECT_EQ(wire::encode_request(*decoded, now), frame);
  }
}

TEST(Wire, ValueEncodedRequestRoundTrips) {
  const StatusOr<SortRequest> original = SortRequest::from_values(
      SortShape{4, 10}, std::vector<std::uint64_t>{1023, 0, 512, 7});
  ASSERT_TRUE(original.ok());
  const std::vector<std::uint8_t> frame = wire::encode_request(*original);
  // 8 header + 20 fixed + 4 channels x 8 bytes.
  EXPECT_EQ(frame.size(), 8u + 20u + 32u);

  const SortRequest decoded = decode_request_frame(frame);
  EXPECT_TRUE(decoded.values_requested);
  EXPECT_EQ(decoded.shape, (SortShape{4, 10}));
  ASSERT_EQ(decoded.payload.size(), original->payload.size());
  for (std::size_t i = 0; i < decoded.payload.size(); ++i) {
    ASSERT_EQ(decoded.payload[i], original->payload[i]);
  }
}

TEST(Wire, DeadlineTravelsAsRelativeBudget) {
  Xoshiro256 rng(5);
  SortRequest req =
      std::move(SortRequest::own(SortShape{2, 2}, random_flat(rng, {2, 2}))
                    .value());
  const auto encode_now = Clock::now();
  req.deadline = encode_now + 5ms;
  const std::vector<std::uint8_t> frame = wire::encode_request(req, encode_now);

  const auto decode_now = encode_now + 1h;  // "another process", much later
  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortRequest> decoded = wire::decode_request(view->body, decode_now);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->deadline.has_value());
  // The 5ms budget is re-anchored at decode time, not the original epoch.
  EXPECT_EQ(*decoded->deadline, decode_now + 5ms);

  // An already-expired deadline still arrives as a (tiny) deadline rather
  // than silently becoming "none".
  req.deadline = encode_now - 5ms;
  const auto expired_frame = wire::encode_request(req, encode_now);
  view = wire::parse_frame(expired_frame);
  ASSERT_TRUE(view.ok());
  decoded = wire::decode_request(view->body, decode_now);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->deadline.has_value());
  EXPECT_EQ(*decoded->deadline, decode_now + 1ns);
}

// Fuzz regression: a deadline budget near 2^64 ns used to feed
// steady_clock::now() + nanoseconds(u64) straight into a signed 64-bit
// rep — UB at the top of the range, a deadline in the past after wrap.
// Decoders now clamp the budget at 2^60 ns (~36 years) before anchoring.
TEST(Wire, HostileDeadlineBudgetSaturatesInsteadOfOverflowing) {
  Xoshiro256 rng(6);
  SortRequest req =
      std::move(SortRequest::own(SortShape{2, 2}, random_flat(rng, {2, 2}))
                    .value());
  req.deadline = Clock::now() + 5ms;  // any nonzero budget; bytes patched below
  std::vector<std::uint8_t> frame = wire::encode_request(req, Clock::now());
  for (std::size_t i = 0; i < 8; ++i) {
    frame[wire::kHeaderSize + 12 + i] = 0xFF;  // budget = u64 max
  }
  const auto decode_now = Clock::now();
  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortRequest> decoded = wire::decode_request(view->body, decode_now);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_TRUE(decoded->deadline.has_value());
  // Clamped to the saturation cap — and, critically, still in the future.
  EXPECT_EQ(*decoded->deadline,
            decode_now + std::chrono::nanoseconds(std::int64_t{1} << 60));
  EXPECT_GT(*decoded->deadline, decode_now);

  // Same hole on the batch path (offset 12 in the batch body too).
  req.rounds = 2;
  std::vector<Trit> batch_flat = random_flat(rng, {2, 2});
  const std::vector<Trit> more = random_flat(rng, {2, 2});
  batch_flat.insert(batch_flat.end(), more.begin(), more.end());
  SortRequest batch =
      std::move(SortRequest::own_batch(SortShape{2, 2}, 2,
                                       std::move(batch_flat))
                    .value());
  batch.deadline = Clock::now() + 5ms;
  std::vector<std::uint8_t> bframe =
      wire::encode_batch_request(batch, Clock::now());
  for (std::size_t i = 0; i < 8; ++i) {
    bframe[wire::kHeaderSize + 12 + i] = 0xFF;
  }
  view = wire::parse_frame(bframe);
  ASSERT_TRUE(view.ok());
  decoded = wire::decode_batch_request(view->body, decode_now);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_TRUE(decoded->deadline.has_value());
  EXPECT_GT(*decoded->deadline, decode_now);
}

// Companion regression: a hostile latency field in a response must clamp
// at int64 max, not wrap std::chrono::nanoseconds negative.
TEST(Wire, HostileResponseLatencySaturatesInsteadOfWrapping) {
  SortResponse rsp;
  rsp.status = Status();
  rsp.shape = SortShape{2, 2};
  rsp.payload.assign(4, Trit::zero);
  rsp.latency = 1ms;
  for (const bool batch : {false, true}) {
    if (batch) rsp.rounds = 1;
    std::vector<std::uint8_t> frame =
        batch ? wire::encode_batch_response(rsp) : wire::encode_response(rsp);
    for (std::size_t i = 0; i < 8; ++i) {
      frame[wire::kHeaderSize + 16 + i] = 0xFF;  // latency = u64 max
    }
    StatusOr<wire::FrameView> view = wire::parse_frame(frame);
    ASSERT_TRUE(view.ok());
    StatusOr<SortResponse> decoded = batch
                                         ? wire::decode_batch_response(view->body)
                                         : wire::decode_response(view->body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->latency.count(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_GT(decoded->latency.count(), 0);
  }
}

TEST(Wire, ResponseRoundTripsPayloadStatusAndLatency) {
  Xoshiro256 rng(7);
  SortResponse rsp;
  rsp.shape = SortShape{7, 3};
  rsp.payload = random_flat(rng, rsp.shape);
  rsp.latency = 12345ns;
  const std::vector<std::uint8_t> frame = wire::encode_response(rsp);

  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->type, wire::FrameType::response);
  StatusOr<SortResponse> decoded = wire::decode_response(view->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->shape, rsp.shape);
  EXPECT_EQ(decoded->latency, 12345ns);
  ASSERT_EQ(decoded->payload.size(), rsp.payload.size());
  for (std::size_t i = 0; i < rsp.payload.size(); ++i) {
    ASSERT_EQ(decoded->payload[i], rsp.payload[i]);
  }
  EXPECT_EQ(wire::encode_response(*decoded), frame);  // byte-exact
}

TEST(Wire, ErrorResponseCarriesStatusAndMessage) {
  const SortResponse failed = SortResponse::failure(
      Status::deadline_exceeded("expired before flush"), SortShape{4, 4});
  const std::vector<std::uint8_t> frame = wire::encode_response(failed);
  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortResponse> decoded = wire::decode_response(view->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->status.message(), "expired before flush");
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Wire, ValueEncodedResponseFallsBackToTritsOnMetastableOutput) {
  SortResponse rsp;
  rsp.shape = SortShape{1, 2};
  rsp.values_requested = true;
  rsp.payload = {Trit::one, Trit::meta};  // integers cannot express M
  const std::vector<std::uint8_t> frame = wire::encode_response(rsp);
  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortResponse> decoded = wire::decode_response(view->body);
  ASSERT_TRUE(decoded.ok());
  // Flag is clear (trit payload) and the M survived intact.
  EXPECT_FALSE(decoded->values_requested);
  ASSERT_EQ(decoded->payload.size(), 2u);
  EXPECT_EQ(decoded->payload[1], Trit::meta);
}

// --- robustness --------------------------------------------------------------

TEST(Wire, TruncatedFramesAreDataLossAtEveryPrefixLength) {
  Xoshiro256 rng(11);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{4, 4}, random_flat(rng, {4, 4}))
                    .value());
  const std::vector<std::uint8_t> frame = wire::encode_request(req);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const StatusOr<wire::FrameView> view =
        wire::parse_frame(std::span(frame.data(), len));
    ASSERT_FALSE(view.ok()) << "prefix " << len;
    EXPECT_EQ(view.status().code(), StatusCode::kDataLoss) << "prefix " << len;
  }
  EXPECT_TRUE(wire::parse_frame(frame).ok());
}

TEST(Wire, CorruptLengthPrefixIsRejectedNotAllocated) {
  Xoshiro256 rng(13);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{2, 2}, random_flat(rng, {2, 2}))
                    .value());
  std::vector<std::uint8_t> frame = wire::encode_request(req);
  // Length prefix lives at bytes [4, 8): claim a multi-gigabyte body.
  frame[4] = frame[5] = frame[6] = frame[7] = 0xff;
  const StatusOr<wire::FrameView> huge = wire::parse_frame(frame);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);

  // A plausible-but-wrong length (one byte short) is data loss.
  frame = wire::encode_request(req);
  frame[4] = static_cast<std::uint8_t>(frame[4] + 1);
  const StatusOr<wire::FrameView> short_body = wire::parse_frame(frame);
  ASSERT_FALSE(short_body.ok());
  EXPECT_EQ(short_body.status().code(), StatusCode::kDataLoss);
}

TEST(Wire, VersionAndMagicAndTypeMismatchesAreRejected) {
  Xoshiro256 rng(17);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{2, 2}, random_flat(rng, {2, 2}))
                    .value());
  const std::vector<std::uint8_t> good = wire::encode_request(req);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(wire::parse_frame(bad_magic).status().code(),
            StatusCode::kDataLoss);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[2] = wire::kVersion + 1;
  EXPECT_EQ(wire::parse_frame(bad_version).status().code(),
            StatusCode::kUnimplemented);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[3] = 99;
  EXPECT_EQ(wire::parse_frame(bad_type).status().code(),
            StatusCode::kUnimplemented);
}

TEST(Wire, UnknownBodyFlagsAndInvalidTritsAreRejected) {
  Xoshiro256 rng(19);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{2, 2}, random_flat(rng, {2, 2}))
                    .value());
  const std::vector<std::uint8_t> frame = wire::encode_request(req);
  const std::size_t body_off = wire::kHeaderSize;

  std::vector<std::uint8_t> unknown_flag = frame;
  unknown_flag[body_off + 8] |= 0x80;  // undefined flag bit
  {
    const auto view = wire::parse_frame(unknown_flag);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(wire::decode_request(view->body).status().code(),
              StatusCode::kUnimplemented);
  }

  std::vector<std::uint8_t> bad_trit = frame;
  bad_trit[body_off + 20] |= 0x03;  // first packed pair -> 11 (invalid)
  {
    const auto view = wire::parse_frame(bad_trit);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(wire::decode_request(view->body).status().code(),
              StatusCode::kDataLoss);
  }

  // Nonzero padding bits after the last trit break canonical form.
  std::vector<std::uint8_t> bad_padding = frame;
  // 2x2 = 4 trits fill byte 0 exactly; use a 2x3 request for padding room.
  const SortRequest odd =
      std::move(SortRequest::own(SortShape{2, 3}, random_flat(rng, {2, 3}))
                    .value());
  bad_padding = wire::encode_request(odd);
  bad_padding[wire::kHeaderSize + 20 + 1] |= 0xC0;  // trits 4..5 used, 6..7 pad
  {
    const auto view = wire::parse_frame(bad_padding);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(wire::decode_request(view->body).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(Wire, RequestBodyShapeAndSizeMismatchesAreRejected) {
  // Hand-build a request body claiming a 0-channel shape.
  std::vector<std::uint8_t> body(20, 0);
  body[4] = 4;  // bits = 4, channels = 0
  EXPECT_EQ(wire::decode_request(body).status().code(),
            StatusCode::kInvalidArgument);

  // Valid shape but payload shorter than the shape demands.
  Xoshiro256 rng(23);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{4, 4}, random_flat(rng, {4, 4}))
                    .value());
  const std::vector<std::uint8_t> frame = wire::encode_request(req);
  const auto view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(wire::decode_request(view->body.first(view->body.size() - 1))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// The codec moves packed trits eight per 64-bit step, so its edges are the
// payload tails. Trit payloads of every length from 1 to 17 (one channel
// of that many bits) carry each trit's code where the format puts it and
// round-trip byte-exactly as requests and responses. A code 3 at any index
// is kDataLoss naming that index, also when a later code 3 follows, and a
// nonzero code in any padding slot of a partial final byte is kDataLoss.
TEST(Wire, TritPayloadsOfEveryLengthRoundTripAndRefuseBadCodes) {
  constexpr std::size_t kPayload = wire::kHeaderSize + 20;
  const auto decode_status = [](std::span<const std::uint8_t> frame) {
    return wire::decode_request(frame.subspan(wire::kHeaderSize)).status();
  };
  Xoshiro256 rng(41);
  for (std::size_t len = 1; len <= 17; ++len) {
    const SortShape shape{1, len};
    std::vector<Trit> flat(len);
    for (Trit& t : flat) t = trit_from_index(static_cast<int>(rng.below(3)));
    const std::vector<std::uint8_t> frame =
        wire::encode_request(std::move(SortRequest::own(shape, flat).value()));
    ASSERT_EQ(frame.size(), kPayload + (len + 3) / 4) << len << " trits";
    // Trit i's code sits in bits [2(i % 4), 2(i % 4) + 2) of byte i / 4.
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ((frame[kPayload + i / 4] >> (2 * (i % 4))) & 3u,
                static_cast<unsigned>(flat[i]))
          << len << " trits, i=" << i;
    }
    const SortRequest decoded = decode_request_frame(frame);
    EXPECT_TRUE(std::equal(decoded.payload.begin(), decoded.payload.end(),
                           flat.begin(), flat.end()))
        << len << " trits";
    EXPECT_EQ(wire::encode_request(decoded), frame) << len << " trits";

    SortResponse response;
    response.shape = shape;
    response.payload = flat;
    const std::vector<std::uint8_t> rsp_frame = wire::encode_response(response);
    const StatusOr<wire::FrameView> rsp_view = wire::parse_frame(rsp_frame);
    ASSERT_TRUE(rsp_view.ok());
    const StatusOr<SortResponse> rsp_back =
        wire::decode_response(rsp_view->body);
    ASSERT_TRUE(rsp_back.ok()) << rsp_back.status().to_string();
    EXPECT_EQ(rsp_back->payload, flat) << len << " trits";
    EXPECT_EQ(wire::encode_response(*rsp_back), rsp_frame);

    for (std::size_t bad = 0; bad < len; ++bad) {
      std::vector<std::uint8_t> broken = frame;
      broken[kPayload + bad / 4] |=
          static_cast<std::uint8_t>(3u << (2 * (bad % 4)));
      broken[kPayload + (len - 1) / 4] |=
          static_cast<std::uint8_t>(3u << (2 * ((len - 1) % 4)));
      const Status s = decode_status(broken);
      EXPECT_EQ(s.code(), StatusCode::kDataLoss);
      EXPECT_EQ(s.message(),
                "invalid packed trit at index " + std::to_string(bad))
          << len << " trits";
    }
    for (std::size_t pad = len; pad % 4 != 0; ++pad) {
      for (unsigned code = 1; code <= 3; ++code) {
        std::vector<std::uint8_t> broken = frame;
        broken[kPayload + pad / 4] |=
            static_cast<std::uint8_t>(code << (2 * (pad % 4)));
        const Status s = decode_status(broken);
        EXPECT_EQ(s.code(), StatusCode::kDataLoss);
        EXPECT_EQ(s.message(), "nonzero padding in packed trit payload")
            << len << " trits, padding slot " << pad << ", code " << code;
      }
    }
  }
}

// --- batch frames (wire v2) ---------------------------------------------------

std::vector<Trit> random_batch_flat(Xoshiro256& rng, SortShape shape,
                                    std::size_t rounds) {
  std::vector<Trit> flat;
  flat.reserve(rounds * shape.trits());
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<Trit> one = random_flat(rng, shape);
    flat.insert(flat.end(), one.begin(), one.end());
  }
  return flat;
}

TEST(WireBatch, BatchRequestRoundTripsByteExact) {
  const std::vector<std::pair<SortShape, std::size_t>> cases = {
      {{4, 4}, 1}, {{4, 4}, 7}, {{10, 8}, 256}, {{2, 16}, 3}, {{7, 3}, 100}};
  Xoshiro256 rng(301);
  for (const auto& [shape, rounds] : cases) {
    const std::vector<Trit> flat = random_batch_flat(rng, shape, rounds);
    const SortRequest original =
        std::move(SortRequest::view_batch(shape, rounds, flat).value());
    const auto now = Clock::now();
    const std::vector<std::uint8_t> frame =
        wire::encode_batch_request(original, now);

    // Batch frames carry the v2 version byte; the type marks them BATCH.
    EXPECT_EQ(frame[2], wire::kVersionBatch);
    StatusOr<wire::FrameView> view = wire::parse_frame(frame);
    ASSERT_TRUE(view.ok()) << view.status().to_string();
    EXPECT_EQ(view->type, wire::FrameType::batch_request);
    StatusOr<SortRequest> decoded = wire::decode_batch_request(view->body, now);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->shape, shape);
    EXPECT_EQ(decoded->rounds, rounds);
    ASSERT_EQ(decoded->payload.size(), flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_EQ(decoded->payload[i], flat[i]) << "trit " << i;
    }
    // Canonical: one byte representation (one padding tail for the whole
    // batch, not one per round).
    EXPECT_EQ(wire::encode_batch_request(*decoded, now), frame);
  }
}

TEST(WireBatch, SingleRoundFramesStayVersion1ForV1Interop) {
  // A v2 sender's single-round traffic is byte-identical to v1: a v1-only
  // peer never sees a version byte it cannot handle unless BATCH frames
  // are actually used.
  Xoshiro256 rng(303);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{4, 4}, random_flat(rng, {4, 4}))
                    .value());
  EXPECT_EQ(wire::encode_request(req)[2], wire::kVersionMin);
  SortResponse rsp;
  rsp.shape = SortShape{4, 4};
  rsp.payload = random_flat(rng, rsp.shape);
  EXPECT_EQ(wire::encode_response(rsp)[2], wire::kVersionMin);
}

TEST(WireBatch, MultiRoundFramesEncodeAsBatchFramesWhateverTheEntryPoint) {
  // A v1 body has no round count, so encode_request/encode_response of a
  // multi-round value must produce the batch frame, byte for byte — not a
  // v1 frame whose payload no decoder accepts.
  Xoshiro256 rng(305);
  const SortShape shape{4, 4};
  const std::vector<Trit> flat = random_batch_flat(rng, shape, 3);
  const SortRequest req =
      std::move(SortRequest::view_batch(shape, 3, flat).value());
  const auto now = Clock::now();
  const std::vector<std::uint8_t> frame = wire::encode_request(req, now);
  EXPECT_EQ(frame, wire::encode_batch_request(req, now));
  const auto view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortRequest> decoded = wire::decode_batch_request(view->body, now);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->rounds, 3u);

  SortResponse rsp;
  rsp.shape = shape;
  rsp.rounds = 3;
  rsp.payload = flat;
  EXPECT_EQ(wire::encode_response(rsp), wire::encode_batch_response(rsp));
  // Value-encoded responses take the same route.
  rsp.payload.clear();
  for (const std::uint64_t v : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
    const Word w = gray_encode(v, shape.bits);
    rsp.payload.insert(rsp.payload.end(), w.begin(), w.end());
  }
  rsp.values_requested = true;
  EXPECT_EQ(wire::encode_response(rsp), wire::encode_batch_response(rsp));
}

TEST(WireBatch, ValueEncodedBatchRequestRoundTrips) {
  const SortShape shape{3, 10};
  const std::vector<std::uint64_t> values = {1023, 0, 512, 7, 99, 1000};
  std::vector<Trit> flat;
  for (const std::uint64_t v : values) {
    const Word w = gray_encode(v, shape.bits);
    flat.insert(flat.end(), w.begin(), w.end());
  }
  SortRequest original =
      std::move(SortRequest::view_batch(shape, 2, flat).value());
  original.values_requested = true;
  const std::vector<std::uint8_t> frame = wire::encode_batch_request(original);
  // 8 header + 24 fixed + 2 rounds x 3 channels x 8 bytes.
  EXPECT_EQ(frame.size(), 8u + 24u + 48u);

  const auto view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortRequest> decoded = wire::decode_batch_request(view->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(decoded->values_requested);
  EXPECT_EQ(decoded->rounds, 2u);
  ASSERT_EQ(decoded->payload.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_EQ(decoded->payload[i], flat[i]);
  }
}

TEST(WireBatch, BatchResponseRoundTripsRoundsLatencyAndPayload) {
  Xoshiro256 rng(307);
  SortResponse rsp;
  rsp.shape = SortShape{7, 3};
  rsp.rounds = 5;
  rsp.payload = random_batch_flat(rng, rsp.shape, 5);
  rsp.latency = std::chrono::nanoseconds(98765);
  const std::vector<std::uint8_t> frame = wire::encode_batch_response(rsp);

  EXPECT_EQ(frame[2], wire::kVersionBatch);
  StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->type, wire::FrameType::batch_response);
  StatusOr<SortResponse> decoded = wire::decode_batch_response(view->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->shape, rsp.shape);
  EXPECT_EQ(decoded->rounds, 5u);
  EXPECT_EQ(decoded->latency, std::chrono::nanoseconds(98765));
  ASSERT_EQ(decoded->payload.size(), rsp.payload.size());
  for (std::size_t i = 0; i < rsp.payload.size(); ++i) {
    ASSERT_EQ(decoded->payload[i], rsp.payload[i]);
  }
  EXPECT_EQ(wire::encode_batch_response(*decoded), frame);  // byte-exact
}

TEST(WireBatch, ErrorBatchResponseCarriesStatusAndRounds) {
  const SortResponse failed =
      SortResponse::failure(Status::deadline_exceeded("batch expired"),
                            SortShape{4, 4}, false, 12);
  const std::vector<std::uint8_t> frame = wire::encode_batch_response(failed);
  const auto view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  StatusOr<SortResponse> decoded = wire::decode_batch_response(view->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->status.message(), "batch expired");
  EXPECT_EQ(decoded->rounds, 12u);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WireBatch, TruncatedBatchFramesAreIncompleteAtEveryPrefixLength) {
  Xoshiro256 rng(311);
  const SortShape shape{4, 4};
  const std::vector<Trit> flat = random_batch_flat(rng, shape, 9);
  const SortRequest req =
      std::move(SortRequest::view_batch(shape, 9, flat).value());
  const std::vector<std::uint8_t> frame = wire::encode_batch_request(req);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    // Blocking parse: truncation is data loss.
    const StatusOr<wire::FrameView> view =
        wire::parse_frame(std::span(frame.data(), len));
    ASSERT_FALSE(view.ok()) << "prefix " << len;
    EXPECT_EQ(view.status().code(), StatusCode::kDataLoss) << "prefix " << len;
    // Incremental parse: truncation means "keep reading", never an error.
    StatusOr<std::optional<wire::FrameView>> partial =
        wire::try_parse_frame(std::span(frame.data(), len));
    ASSERT_TRUE(partial.ok()) << "prefix " << len;
    EXPECT_FALSE(partial->has_value()) << "prefix " << len;
  }
  EXPECT_TRUE(wire::parse_frame(frame).ok());
}

TEST(WireBatch, ZeroRoundBatchFrameIsInvalidArgument) {
  // view_batch refuses rounds == 0 at encode time, so hand-tamper a valid
  // frame's round count (body offset 20, frame offset 28).
  Xoshiro256 rng(313);
  const SortShape shape{4, 4};
  const std::vector<Trit> flat = random_batch_flat(rng, shape, 2);
  const SortRequest req =
      std::move(SortRequest::view_batch(shape, 2, flat).value());
  ASSERT_FALSE(SortRequest::view_batch(shape, 0, {}).ok());
  std::vector<std::uint8_t> frame = wire::encode_batch_request(req);
  frame[wire::kHeaderSize + 20] = 0;
  frame[wire::kHeaderSize + 21] = 0;
  const auto view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(wire::decode_batch_request(view->body).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireBatch, RoundCountBodyLengthInconsistencyIsDataLoss) {
  Xoshiro256 rng(317);
  const SortShape shape{4, 4};
  const std::vector<Trit> flat = random_batch_flat(rng, shape, 4);
  const SortRequest req =
      std::move(SortRequest::view_batch(shape, 4, flat).value());
  std::vector<std::uint8_t> frame = wire::encode_batch_request(req);
  // Claim one more round than the payload carries: well-framed (header
  // length matches the bytes on the wire) but internally inconsistent.
  frame[wire::kHeaderSize + 20] = 5;
  {
    const auto view = wire::parse_frame(frame);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(wire::decode_batch_request(view->body).status().code(),
              StatusCode::kDataLoss);
  }
  // And one fewer: trailing payload bytes the count does not explain.
  frame[wire::kHeaderSize + 20] = 3;
  {
    const auto view = wire::parse_frame(frame);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(wire::decode_batch_request(view->body).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(WireBatch, OversizedBatchIsResourceExhaustedAtBothEnds) {
  // Encode side: view_batch rejects a batch over the API bounds before a
  // frame is ever built (kMaxBody is unreachable through the encoder).
  const SortShape shape{4, 4};
  EXPECT_FALSE(
      SortRequest::view_batch(shape, kMaxBatchRounds + 1, {}).ok());
  // Decode side: a hand-built frame claiming a huge round count is
  // rejected by the bound check before any allocation sized from it.
  Xoshiro256 rng(331);
  const std::vector<Trit> flat = random_batch_flat(rng, shape, 2);
  const SortRequest req =
      std::move(SortRequest::view_batch(shape, 2, flat).value());
  std::vector<std::uint8_t> frame = wire::encode_batch_request(req);
  frame[wire::kHeaderSize + 20] = 0xFF;
  frame[wire::kHeaderSize + 21] = 0xFF;
  frame[wire::kHeaderSize + 22] = 0xFF;
  frame[wire::kHeaderSize + 23] = 0x7F;
  const auto view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(wire::decode_batch_request(view->body).status().code(),
            StatusCode::kResourceExhausted);
}

// The decoders build requests without SortRequest::validate(), which
// admission runs once per request, so every request they return must pass
// it. Checked at the edges validate() checks: a value payload, a one-trit
// round and a batch of exactly kMaxBatchTrits trits, each sent as a
// version-1 and as a batch frame.
TEST(WireBatch, DecodedRequestsPassValidate) {
  const SortRequest values =
      SortRequest::from_values({4, 10},
                               std::vector<std::uint64_t>{1023, 0, 512, 7})
          .value();
  const std::vector<Trit> one{Trit::meta};
  const SortRequest lone = SortRequest::view({1, 1}, one).value();
  const SortShape shape{16, 16};
  std::vector<Trit> big(kMaxBatchTrits);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<Trit>(i % 3);
  }
  const SortRequest batch =
      SortRequest::view_batch(shape, kMaxBatchTrits / shape.trits(), big)
          .value();
  for (const SortRequest* request : {&values, &lone, &batch}) {
    for (const bool as_batch : {false, true}) {
      const std::vector<std::uint8_t> frame =
          as_batch ? wire::encode_batch_request(*request)
                   : wire::encode_request(*request);
      const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
      ASSERT_TRUE(view.ok()) << view.status().to_string();
      const StatusOr<SortRequest> decoded =
          view->type == wire::FrameType::batch_request
              ? wire::decode_batch_request(view->body)
              : wire::decode_request(view->body);
      ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
      EXPECT_TRUE(decoded->validate().ok())
          << decoded->validate().to_string();
      EXPECT_EQ(decoded->rounds, request->rounds);
      EXPECT_TRUE(std::ranges::equal(decoded->payload, request->payload));
    }
  }
}

TEST(WireBatch, TryParseFrameClassifiesBatchTypesAndVersionMix) {
  Xoshiro256 rng(337);
  const SortShape shape{4, 4};
  const std::vector<Trit> flat = random_batch_flat(rng, shape, 3);
  const SortRequest req =
      std::move(SortRequest::view_batch(shape, 3, flat).value());
  const std::vector<std::uint8_t> frame = wire::encode_batch_request(req);

  // A complete batch frame classifies with its type and exact boundary.
  std::vector<std::uint8_t> two = frame;
  two.insert(two.end(), frame.begin(), frame.end());
  StatusOr<std::optional<wire::FrameView>> whole = wire::try_parse_frame(two);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(whole->has_value());
  EXPECT_EQ((*whole)->type, wire::FrameType::batch_request);
  EXPECT_EQ((*whole)->frame_size, frame.size());

  // A batch type under a v1 header is a version violation (a v1 peer
  // could never have sent it), reported as kUnimplemented immediately.
  std::vector<std::uint8_t> v1_batch = frame;
  v1_batch[2] = wire::kVersionMin;
  EXPECT_EQ(wire::try_parse_frame(v1_batch).status().code(),
            StatusCode::kUnimplemented);

  // A version above kVersion is from the future: kUnimplemented, not data
  // loss — the bytes are fine, this decoder is just too old.
  std::vector<std::uint8_t> v3 = frame;
  v3[2] = wire::kVersion + 1;
  EXPECT_EQ(wire::try_parse_frame(v3).status().code(),
            StatusCode::kUnimplemented);
}

/// A hand-built one-round body of sort frame `type` (1-4): the request or
/// ok-response fields for `shape` under `flags`, the round count (1) for
/// the batch types, then `payload` verbatim.
std::vector<std::uint8_t> one_round_body(
    wire::FrameType type, SortShape shape, std::uint32_t flags,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> body;
  const auto put = [&body](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const bool batch = type == wire::FrameType::batch_request ||
                     type == wire::FrameType::batch_response;
  if (type == wire::FrameType::request ||
      type == wire::FrameType::batch_request) {
    put(static_cast<std::uint32_t>(shape.channels), 4);
    put(shape.bits, 4);
    put(flags, 4);
    put(0, 8);  // no deadline
    if (batch) put(1, 4);
  } else {
    put(0, 4);  // status ok
    put(flags, 4);
    put(static_cast<std::uint32_t>(shape.channels), 4);
    put(shape.bits, 4);
    put(0, 8);  // latency
    if (batch) put(1, 4);
    put(0, 4);  // no message
  }
  body.insert(body.end(), payload.begin(), payload.end());
  return body;
}

StatusCode decode_code(wire::FrameType type,
                       std::span<const std::uint8_t> body) {
  switch (type) {
    case wire::FrameType::request:
      return wire::decode_request(body).status().code();
    case wire::FrameType::response:
      return wire::decode_response(body).status().code();
    case wire::FrameType::batch_request:
      return wire::decode_batch_request(body).status().code();
    default:
      return wire::decode_batch_response(body).status().code();
  }
}

TEST(WireBatch, SortFrameTypesSharePayloadRules) {
  // The four sort frame types read payloads the same way; only the batch
  // types take the kMaxBatchTrits bound, and they take it at one round too.
  std::vector<std::uint8_t> out_of_range(16, 0);
  out_of_range[8 + 1] = 1;  // second value 256: one past 8 bits
  const SortShape wide{64, 16385};  // one round of 1,048,640 trits
  ASSERT_GT(wide.trits(), kMaxBatchTrits);
  struct Row {
    const char* what;
    SortShape shape;
    std::uint32_t flags;
    std::vector<std::uint8_t> payload;
    StatusCode single;  // types 1/2
    StatusCode batch;   // types 3/4
  };
  const std::vector<Row> rows = {
      {"out-of-range value", {2, 8}, wire::kFlagValues, out_of_range,
       StatusCode::kDataLoss, StatusCode::kDataLoss},
      {"value payload at bits > 64", {1, 65}, wire::kFlagValues,
       std::vector<std::uint8_t>(8, 0), StatusCode::kInvalidArgument,
       StatusCode::kInvalidArgument},
      {"one round wider than kMaxBatchTrits", wide, 0,
       std::vector<std::uint8_t>((wide.trits() + 3) / 4, 0), StatusCode::kOk,
       StatusCode::kResourceExhausted},
  };
  for (const Row& row : rows) {
    for (const wire::FrameType type :
         {wire::FrameType::request, wire::FrameType::response,
          wire::FrameType::batch_request, wire::FrameType::batch_response}) {
      const bool batch = type == wire::FrameType::batch_request ||
                         type == wire::FrameType::batch_response;
      EXPECT_EQ(decode_code(type, one_round_body(type, row.shape, row.flags,
                                                 row.payload)),
                batch ? row.batch : row.single)
          << row.what << ", frame type " << static_cast<int>(type);
    }
  }
}

// --- incremental framing ------------------------------------------------------

TEST(Wire, TryParseFrameDistinguishesIncompleteFromCorrupt) {
  Xoshiro256 rng(41);
  const SortRequest request =
      std::move(SortRequest::own(SortShape{4, 4}, random_flat(rng, {4, 4}))
                    .value());
  const std::vector<std::uint8_t> frame = wire::encode_request(request);

  // Every strict prefix is "incomplete" (keep reading), never an error —
  // the property a non-blocking front-end's decode loop leans on.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    StatusOr<std::optional<wire::FrameView>> partial =
        wire::try_parse_frame(std::span(frame).first(len));
    ASSERT_TRUE(partial.ok()) << "prefix " << len << ": "
                              << partial.status().to_string();
    EXPECT_FALSE(partial->has_value()) << "prefix " << len;
  }
  // The complete frame parses, and trailing bytes of the next frame don't
  // confuse it: frame_size points at the boundary.
  std::vector<std::uint8_t> two = frame;
  two.insert(two.end(), frame.begin(), frame.end());
  StatusOr<std::optional<wire::FrameView>> whole = wire::try_parse_frame(two);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(whole->has_value());
  EXPECT_EQ((*whole)->frame_size, frame.size());
  EXPECT_EQ((*whole)->type, wire::FrameType::request);
  EXPECT_TRUE(wire::decode_request((*whole)->body).ok());

  // Corruption is still an immediate error, not "wait for more bytes".
  std::vector<std::uint8_t> bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_EQ(wire::try_parse_frame(bad_magic).status().code(),
            StatusCode::kDataLoss);
  std::vector<std::uint8_t> bad_version = frame;
  bad_version[2] = 9;
  EXPECT_EQ(wire::try_parse_frame(bad_version).status().code(),
            StatusCode::kUnimplemented);
  std::vector<std::uint8_t> huge_len = frame;
  huge_len[4] = huge_len[5] = huge_len[6] = huge_len[7] = 0xFF;
  EXPECT_EQ(wire::try_parse_frame(huge_len).status().code(),
            StatusCode::kResourceExhausted);
}

// --- stream framing ----------------------------------------------------------

TEST(Wire, ReadFrameStreamsFramesAndSignalsCleanEof) {
  Xoshiro256 rng(29);
  const SortRequest a =
      std::move(SortRequest::own(SortShape{4, 4}, random_flat(rng, {4, 4}))
                    .value());
  const SortRequest b =
      std::move(SortRequest::own(SortShape{7, 3}, random_flat(rng, {7, 3}))
                    .value());
  std::stringstream stream;
  wire::write_frame(stream, wire::encode_request(a));
  wire::write_frame(stream, wire::encode_request(b));

  StatusOr<std::optional<wire::Frame>> first = wire::read_frame(stream);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(wire::decode_request((*first)->body)->shape, (SortShape{4, 4}));

  StatusOr<std::optional<wire::Frame>> second = wire::read_frame(stream);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ(wire::decode_request((*second)->body)->shape, (SortShape{7, 3}));

  StatusOr<std::optional<wire::Frame>> eof = wire::read_frame(stream);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());  // clean EOF, not an error
}

TEST(Wire, ReadFrameReportsMidFrameEofAsDataLoss) {
  Xoshiro256 rng(31);
  const SortRequest req =
      std::move(SortRequest::own(SortShape{4, 4}, random_flat(rng, {4, 4}))
                    .value());
  const std::vector<std::uint8_t> frame = wire::encode_request(req);

  {  // ends inside the header
    std::stringstream stream;
    wire::write_frame(stream, std::span(frame.data(), 5));
    EXPECT_EQ(wire::read_frame(stream).status().code(), StatusCode::kDataLoss);
  }
  {  // ends inside the body
    std::stringstream stream;
    wire::write_frame(stream, std::span(frame.data(), frame.size() - 3));
    EXPECT_EQ(wire::read_frame(stream).status().code(), StatusCode::kDataLoss);
  }
}

// --- stats frames ------------------------------------------------------------

TEST(WireStats, StatsRequestRoundTripsByteExact) {
  for (const wire::StatsFormat format :
       {wire::StatsFormat::json, wire::StatsFormat::prometheus}) {
    const std::vector<std::uint8_t> frame = wire::encode_stats_request(format);
    // Fixed layout: header + a 4-byte format word, under the stats version.
    ASSERT_EQ(frame.size(), wire::kHeaderSize + 4);
    EXPECT_EQ(frame[0], wire::kMagic0);
    EXPECT_EQ(frame[1], wire::kMagic1);
    EXPECT_EQ(frame[2], wire::kVersionStats);
    EXPECT_EQ(frame[3],
              static_cast<std::uint8_t>(wire::FrameType::stats_request));
    const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
    ASSERT_TRUE(view.ok()) << view.status().to_string();
    EXPECT_EQ(view->type, wire::FrameType::stats_request);
    const StatusOr<wire::StatsFormat> decoded =
        wire::decode_stats_request(view->body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(*decoded, format);
    // One canonical form: re-encoding reproduces the frame byte-exact.
    EXPECT_EQ(wire::encode_stats_request(*decoded), frame);
  }
}

TEST(WireStats, StatsResponseRoundTripsDocumentByteExact) {
  wire::StatsReply reply;
  reply.format = wire::StatsFormat::prometheus;
  reply.text =
      "# TYPE serve_submitted_total counter\nserve_submitted_total 3\n";
  const std::vector<std::uint8_t> frame = wire::encode_stats_response(reply);
  EXPECT_EQ(frame[2], wire::kVersionStats);
  const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view->type, wire::FrameType::stats_response);
  const StatusOr<wire::StatsReply> decoded =
      wire::decode_stats_response(view->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->format, reply.format);
  EXPECT_EQ(decoded->text, reply.text);
  EXPECT_EQ(wire::encode_stats_response(*decoded), frame);
}

TEST(WireStats, ErrorStatsResponseCarriesStatusAndDropsDocument) {
  wire::StatsReply reply;
  reply.status = Status::unimplemented("unknown stats format 7");
  reply.text = "must not travel on an error reply";
  const std::vector<std::uint8_t> frame = wire::encode_stats_response(reply);
  const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  const StatusOr<wire::StatsReply> decoded =
      wire::decode_stats_response(view->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->status.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(decoded->status.message(), "unknown stats format 7");
  EXPECT_TRUE(decoded->text.empty());  // the encoder refused to send it

  // A hand-built error reply that does carry a document is corrupt: the
  // decoder must reject it rather than surface half-valid state.
  std::vector<std::uint8_t> body;
  for (const std::uint32_t word :
       {static_cast<std::uint32_t>(StatusCode::kInternal),
        static_cast<std::uint32_t>(wire::StatsFormat::json), 0u}) {
    body.push_back(static_cast<std::uint8_t>(word));
    body.push_back(static_cast<std::uint8_t>(word >> 8));
    body.push_back(static_cast<std::uint8_t>(word >> 16));
    body.push_back(static_cast<std::uint8_t>(word >> 24));
  }
  body.push_back('x');  // stray document byte
  EXPECT_EQ(wire::decode_stats_response(body).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireStats, TruncatedStatsFramesAreDataLossAtEveryPrefixLength) {
  wire::StatsReply reply;
  reply.text = "{\"metrics\": {}}";
  for (const std::vector<std::uint8_t>& frame :
       {wire::encode_stats_request(wire::StatsFormat::json),
        wire::encode_stats_response(reply)}) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const StatusOr<wire::FrameView> view =
          wire::parse_frame(std::span(frame.data(), len));
      ASSERT_FALSE(view.ok()) << "prefix " << len;
      EXPECT_EQ(view.status().code(), StatusCode::kDataLoss)
          << "prefix " << len;
    }
    EXPECT_TRUE(wire::parse_frame(frame).ok());
  }
  // Body-level truncation: a response body shorter than its fixed part,
  // and one whose message length overruns the bytes present.
  const std::vector<std::uint8_t> frame = wire::encode_stats_response(reply);
  const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  for (std::size_t len = 0; len < 12; ++len) {
    EXPECT_EQ(
        wire::decode_stats_response(view->body.subspan(0, len)).status().code(),
        StatusCode::kDataLoss)
        << "body prefix " << len;
  }
  std::vector<std::uint8_t> overrun(view->body.begin(), view->body.end());
  overrun[8] = 0xff;  // message_len low byte: claims 255+ message bytes
  EXPECT_EQ(wire::decode_stats_response(overrun).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireStats, CorruptLengthAndUnknownFormatsAreRejected) {
  // Length prefix one byte long: plausible but wrong — data loss.
  std::vector<std::uint8_t> frame =
      wire::encode_stats_request(wire::StatsFormat::json);
  frame[4] = static_cast<std::uint8_t>(frame[4] + 1);
  EXPECT_EQ(wire::parse_frame(frame).status().code(), StatusCode::kDataLoss);

  // A stats request body must be exactly the 4-byte format word.
  frame = wire::encode_stats_request(wire::StatsFormat::json);
  const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(wire::decode_stats_request(view->body.subspan(0, 3))
                .status()
                .code(),
            StatusCode::kDataLoss);

  // Unknown format values are kUnimplemented (a newer peer), in both the
  // request and the response direction; same for an unknown status code.
  std::vector<std::uint8_t> bad_format(view->body.begin(), view->body.end());
  bad_format[0] = 9;
  EXPECT_EQ(wire::decode_stats_request(bad_format).status().code(),
            StatusCode::kUnimplemented);
  wire::StatsReply reply;
  reply.text = "{}";
  const std::vector<std::uint8_t> rsp = wire::encode_stats_response(reply);
  const StatusOr<wire::FrameView> rsp_view = wire::parse_frame(rsp);
  ASSERT_TRUE(rsp_view.ok());
  std::vector<std::uint8_t> bad_rsp(rsp_view->body.begin(),
                                    rsp_view->body.end());
  bad_rsp[4] = 9;  // format word
  EXPECT_EQ(wire::decode_stats_response(bad_rsp).status().code(),
            StatusCode::kUnimplemented);
  bad_rsp = {rsp_view->body.begin(), rsp_view->body.end()};
  bad_rsp[0] = 99;  // status code word
  EXPECT_EQ(wire::decode_stats_response(bad_rsp).status().code(),
            StatusCode::kUnimplemented);
}

TEST(WireStats, StatsTypesUnderV1HeaderAreVersionViolations) {
  // A v1 peer could never have sent a stats frame: a stats type under a
  // version-1 header is kUnimplemented at parse time, for both types and
  // through both parse entry points.
  wire::StatsReply reply;
  reply.text = "{}";
  for (std::vector<std::uint8_t> frame :
       {wire::encode_stats_request(wire::StatsFormat::json),
        wire::encode_stats_response(reply)}) {
    frame[2] = wire::kVersionMin;
    EXPECT_EQ(wire::parse_frame(frame).status().code(),
              StatusCode::kUnimplemented);
    EXPECT_EQ(wire::try_parse_frame(frame).status().code(),
              StatusCode::kUnimplemented);
    // From-the-future versions too: the bytes are fine, this decoder is
    // just too old — never data loss.
    frame[2] = wire::kVersion + 1;
    EXPECT_EQ(wire::parse_frame(frame).status().code(),
              StatusCode::kUnimplemented);
  }
}

}  // namespace
}  // namespace mcsn
