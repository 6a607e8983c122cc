// The unified request/response API: Status/StatusOr semantics, SortRequest
// construction and validation, SortResponse decoding, and — the load-bearing
// property — that the flat zero-copy batch entry points are bit-identical to
// the legacy vector-of-vectors path on every catalog shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/api/status.hpp"
#include "mcsn/core/gray.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

// --- Status / StatusOr -------------------------------------------------------

TEST(Status, DefaultIsOkAndFactoriesCarryCodeAndMessage) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.to_string(), "ok");

  const Status bad = Status::invalid_argument("ragged round");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(), "ragged round");
  EXPECT_EQ(bad.to_string(), "invalid_argument: ragged round");

  EXPECT_EQ(status_code_name(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(status_code_name(StatusCode::kDataLoss), "data_loss");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> with_value(42);
  ASSERT_TRUE(with_value.ok());
  EXPECT_EQ(*with_value, 42);
  EXPECT_TRUE(with_value.status().ok());

  StatusOr<int> with_error(Status::unavailable("stopped"));
  ASSERT_FALSE(with_error.ok());
  EXPECT_EQ(with_error.status().code(), StatusCode::kUnavailable);

  // Move-out works for move-only payloads.
  StatusOr<std::unique_ptr<int>> moveonly(std::make_unique<int>(7));
  ASSERT_TRUE(moveonly.ok());
  std::unique_ptr<int> taken = std::move(moveonly).value();
  EXPECT_EQ(*taken, 7);
}

// --- SortShape / SortRequest -------------------------------------------------

TEST(SortShape, ValidatesBounds) {
  EXPECT_TRUE((SortShape{4, 8}).validate().ok());
  EXPECT_FALSE((SortShape{0, 8}).validate().ok());
  EXPECT_FALSE((SortShape{4, 0}).validate().ok());
  EXPECT_FALSE((SortShape{kMaxChannels + 1, 8}).validate().ok());
  EXPECT_FALSE((SortShape{4, kMaxBits + 1}).validate().ok());
  EXPECT_EQ((SortShape{4, 8}).trits(), 32u);
}

TEST(SortRequest, ViewAliasesCallerMemoryAndOwnCopies) {
  const std::vector<Trit> flat(8, Trit::one);
  const StatusOr<SortRequest> view = SortRequest::view(SortShape{2, 4}, flat);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->payload.data(), flat.data());  // zero-copy
  EXPECT_EQ(view->storage, nullptr);
  EXPECT_TRUE(view->validate().ok());

  const StatusOr<SortRequest> owned =
      SortRequest::own(SortShape{2, 4}, std::vector<Trit>(8, Trit::meta));
  ASSERT_TRUE(owned.ok());
  ASSERT_NE(owned->storage, nullptr);
  EXPECT_EQ(owned->payload.data(), owned->storage->data());
}

// take_trits moves the buffer out only when the request is its sole owner
// and the payload spans all of it, and copies the payload otherwise;
// either way the request is left without a payload.
TEST(SortRequest, TakeTritsMovesOnlyASoleOwnersWholeBuffer) {
  const SortShape shape{2, 4};
  SortRequest sole = std::move(
      SortRequest::own(shape, std::vector<Trit>(8, Trit::one)).value());
  const Trit* const data = sole.payload.data();
  const std::vector<Trit> moved = std::move(sole).take_trits();
  EXPECT_EQ(moved.data(), data);
  EXPECT_TRUE(sole.payload.empty());
  EXPECT_EQ(sole.storage, nullptr);

  SortRequest shared = std::move(
      SortRequest::own(shape, std::vector<Trit>(8, Trit::meta)).value());
  const SortRequest copy = shared;
  const std::vector<Trit> copied = std::move(shared).take_trits();
  EXPECT_NE(copied.data(), copy.payload.data());
  EXPECT_TRUE(std::equal(copied.begin(), copied.end(), copy.payload.begin(),
                         copy.payload.end()));

  // A hand-built request whose payload is the first half of its storage.
  SortRequest half;
  half.shape = SortShape{1, 4};
  half.storage = std::make_shared<std::vector<Trit>>(8, Trit::one);
  half.payload = std::span<const Trit>(*half.storage).first(4);
  EXPECT_EQ(std::move(half).take_trits(), std::vector<Trit>(4, Trit::one));
}

TEST(SortRequest, FactoriesRejectMismatchedPayloads) {
  const std::vector<Trit> flat(7, Trit::zero);  // 7 != 2*4
  EXPECT_EQ(SortRequest::view(SortShape{2, 4}, flat).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SortRequest::own(SortShape{0, 4}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SortRequest::from_words({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SortRequest::from_words({Word(4), Word(3)}).status().code(),
            StatusCode::kInvalidArgument);  // ragged
  EXPECT_EQ(SortRequest::from_words({Word(0), Word(0)}).status().code(),
            StatusCode::kInvalidArgument);  // zero-width words
}

// A Trit is a byte, so a cast can carry a value that is no trit. A
// request holding one is refused, naming the first bad index, by every
// factory and by validate() on a hand-built request, so the wire encoders
// and the engine never see it (they would read a 5 as 1 and as M). Trit
// bytes 3 and above are refused at every offset around an eight-trit word.
TEST(SortRequest, ValidateRefusesTritBytesOutsideZeroOneTwo) {
  const std::vector<Trit> bad = {static_cast<Trit>(5), Trit::zero, Trit::one,
                                 Trit::one};
  const StatusOr<SortRequest> owned = SortRequest::own(SortShape{2, 2}, bad);
  EXPECT_EQ(owned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(owned.status().message().find("trit 0 is 5"), std::string::npos)
      << owned.status().to_string();
  EXPECT_EQ(SortRequest::view(SortShape{2, 2}, bad).status().code(),
            StatusCode::kInvalidArgument);

  // Passing through the factory, then broken by hand.
  std::vector<Trit> flat(17, Trit::meta);
  SortRequest request =
      std::move(SortRequest::view(SortShape{1, 17}, flat).value());
  for (const std::size_t at : {0u, 6u, 7u, 8u, 9u, 15u, 16u}) {
    for (const unsigned value : {3u, 4u, 128u, 255u}) {
      flat[at] = static_cast<Trit>(value);
      const Status s = request.validate();
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(s.message().find("trit " + std::to_string(at) + " is " +
                                 std::to_string(value)),
                std::string::npos)
          << s.to_string();
      flat[at] = Trit::one;
    }
  }
  EXPECT_TRUE(request.validate().ok());

  // McSorter's in-process path refuses it too, instead of sorting a 5 as M.
  const McSorter sorter(2, 2);
  SortRequest hand;
  hand.shape = SortShape{2, 2};
  hand.payload = bad;
  EXPECT_EQ(sorter.sort_request(hand).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(SortRequest, FromValuesGrayEncodesAndFlagsIntent) {
  const StatusOr<SortRequest> req = SortRequest::from_values(
      SortShape{3, 4}, std::vector<std::uint64_t>{5, 0, 15});
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(req->values_requested);
  ASSERT_EQ(req->payload.size(), 12u);
  const Word expect5 = gray_encode(5, 4);
  for (std::size_t b = 0; b < 4; ++b) EXPECT_EQ(req->payload[b], expect5[b]);
}

// Satellite regression: every integer-valued entry point rejects bits > 64
// (values are uint64_t) instead of silently mis-encoding.
TEST(SortRequest, FromValuesRejectsBitsOver64AndOutOfRangeValues) {
  const StatusOr<SortRequest> too_wide = SortRequest::from_values(
      SortShape{2, 65}, std::vector<std::uint64_t>{1, 2});
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_wide.status().message().find("64"), std::string::npos);

  const StatusOr<SortRequest> zero_width = SortRequest::from_values(
      SortShape{2, 0}, std::vector<std::uint64_t>{0, 0});
  EXPECT_EQ(zero_width.status().code(), StatusCode::kInvalidArgument);

  const StatusOr<SortRequest> too_big = SortRequest::from_values(
      SortShape{2, 4}, std::vector<std::uint64_t>{3, 16});  // 16 needs 5 bits
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);

  // 64 bits exactly is fine, including the extreme value.
  EXPECT_TRUE(SortRequest::from_values(
                  SortShape{2, 64},
                  std::vector<std::uint64_t>{0, ~std::uint64_t{0}})
                  .ok());
}

// --- SortResponse ------------------------------------------------------------

TEST(SortResponse, WordsAndValuesDecodeThePayload) {
  SortResponse rsp;
  rsp.shape = SortShape{2, 3};
  const Word a = gray_encode(6, 3);
  const Word b = gray_encode(1, 3);
  rsp.payload.insert(rsp.payload.end(), a.begin(), a.end());
  rsp.payload.insert(rsp.payload.end(), b.begin(), b.end());

  const std::vector<Word> words = rsp.words();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], a);
  EXPECT_EQ(words[1], b);

  const StatusOr<std::vector<std::uint64_t>> values = rsp.values();
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<std::uint64_t>{6, 1}));
}

TEST(SortResponse, ValuesFailOnMetastableOrErrorResponses) {
  SortResponse rsp;
  rsp.shape = SortShape{1, 2};
  rsp.payload = {Trit::one, Trit::meta};
  const StatusOr<std::vector<std::uint64_t>> meta = rsp.values();
  ASSERT_FALSE(meta.ok());
  EXPECT_EQ(meta.status().code(), StatusCode::kFailedPrecondition);

  const SortResponse failed = SortResponse::failure(
      Status::unavailable("stopped"), SortShape{1, 2});
  EXPECT_EQ(failed.values().status().code(), StatusCode::kUnavailable);
}

// --- flat batch parity -------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::span<const Trit> trits) {
  for (const Trit t : trits) {
    h ^= static_cast<std::uint64_t>(t) + 1;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Differential parity on every catalog shape (plus a Batcher fallback):
// sort_batch_flat and sort_request are checksum-identical to the legacy
// sort_batch path on random valid rounds, including partial lane groups.
TEST(McSorterFlat, FlatBatchMatchesLegacySortBatchOnAllCatalogShapes) {
  struct Case {
    int channels;
    std::size_t bits;
    std::size_t rounds;
  };
  // 4/7/9/10 hit the paper's optimal catalog networks; 6 exercises the
  // Batcher odd-even fallback. Round counts straddle the 256-lane group.
  const std::vector<Case> cases = {
      {4, 4, 300}, {7, 3, 57}, {9, 2, 64}, {10, 4, 10}, {6, 5, 130}};
  Xoshiro256 rng(77);
  for (const Case& c : cases) {
    const McSorter sorter(c.channels, c.bits);
    const std::size_t round_trits = sorter.shape().trits();

    std::vector<std::vector<Word>> rounds;
    std::vector<Trit> flat;
    flat.reserve(c.rounds * round_trits);
    for (std::size_t r = 0; r < c.rounds; ++r) {
      rounds.push_back(random_valid_round(rng, c.channels, c.bits));
      for (const Word& w : rounds.back()) {
        flat.insert(flat.end(), w.begin(), w.end());
      }
    }

    const std::vector<std::vector<Word>> expect = sorter.sort_batch(rounds);
    std::uint64_t expect_sum = 0xcbf29ce484222325ULL;
    for (const std::vector<Word>& round : expect) {
      for (const Word& w : round) {
        expect_sum = fnv1a(expect_sum, std::vector<Trit>(w.begin(), w.end()));
      }
    }

    std::vector<Trit> out(flat.size());
    ASSERT_TRUE(sorter.sort_batch_flat(flat, out).ok())
        << c.channels << "x" << c.bits;
    EXPECT_EQ(fnv1a(0xcbf29ce484222325ULL, out), expect_sum)
        << c.channels << "x" << c.bits;

    // Single-round request path agrees too.
    const SortResponse rsp = sorter.sort_request(std::move(
        SortRequest::view(sorter.shape(),
                          std::span<const Trit>(flat).first(round_trits))
            .value()));
    ASSERT_TRUE(rsp.status.ok());
    EXPECT_EQ(rsp.words(), expect[0]) << c.channels << "x" << c.bits;
  }
}

TEST(McSorterFlat, FlatBatchRejectsMisshapenBuffers) {
  const McSorter sorter(4, 4);
  std::vector<Trit> in(17);  // not a multiple of 16
  std::vector<Trit> out(17);
  EXPECT_EQ(sorter.sort_batch_flat(in, out).code(),
            StatusCode::kInvalidArgument);
  in.resize(32);
  out.resize(16);  // output size mismatch
  EXPECT_EQ(sorter.sort_batch_flat(in, out).code(),
            StatusCode::kInvalidArgument);
  out.resize(32);
  EXPECT_TRUE(sorter.sort_batch_flat(in, out).ok());
}

TEST(McSorterFlat, SortRequestReportsShapeMismatch) {
  const McSorter sorter(4, 4);
  const SortResponse rsp = sorter.sort_request(std::move(
      SortRequest::from_values(SortShape{4, 5},
                               std::vector<std::uint64_t>{1, 2, 3, 4})
          .value()));
  EXPECT_EQ(rsp.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rsp.payload.empty());
}

// A batch request through sort_request answers with the request's round
// count, so the response encodes as a batch frame that decodes back to the
// sorted payload. A refused batch reports its round count too.
TEST(McSorterFlat, SortRequestEchoesBatchRounds) {
  const McSorter sorter(4, 4);
  Xoshiro256 rng(91);
  std::vector<Trit> flat;
  for (int r = 0; r < 3; ++r) {
    for (const Word& w : random_valid_round(rng, 4, 4)) {
      flat.insert(flat.end(), w.begin(), w.end());
    }
  }
  std::vector<Trit> expect(flat.size());
  ASSERT_TRUE(sorter.sort_batch_flat(flat, expect).ok());

  const SortResponse rsp = sorter.sort_request(
      SortRequest::view_batch(sorter.shape(), 3, flat).value());
  ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
  EXPECT_EQ(rsp.rounds, 3u);
  EXPECT_EQ(rsp.payload, expect);

  const std::vector<std::uint8_t> frame = wire::encode_response(rsp);
  const StatusOr<wire::FrameView> view = wire::parse_frame(frame);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  const StatusOr<SortResponse> decoded =
      wire::decode_batch_response(view->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->rounds, 3u);
  EXPECT_EQ(decoded->payload, expect);

  // Same 16 trits per round, other shape: refused, still three rounds.
  const SortResponse refused = sorter.sort_request(
      SortRequest::view_batch(SortShape{2, 8}, 3, flat).value());
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.rounds, 3u);
}

}  // namespace
}  // namespace mcsn
