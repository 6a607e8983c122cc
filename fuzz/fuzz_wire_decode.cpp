// Fuzz target over the wire codec's frame-level decoders.
//
// Two entry modes per input, both always exercised:
//
//   1. Frame mode — the raw input is handed to try_parse_frame /
//      parse_frame as a would-be frame; when a frame parses, its body is
//      dispatched to the matching decoder (request, response, batch
//      request/response, stats request/response).
//   2. Body mode — input[0] selects a decoder and input[1..] is fed to it
//      directly as a body, so the fuzzer reaches deep decoder paths
//      without having to mutate a valid 8-byte header first.
//
// Whenever a decode succeeds, the harness checks the codec's round-trip
// properties instead of just "didn't crash":
//
//   * a decoded request satisfies SortRequest::validate(), which the
//     decoders do not call (admission runs it once per request);
//   * re-encoding the decoded value yields a parseable, decodable frame;
//   * the second decode agrees with the first on every semantic field
//     (shape, rounds, payload trits, status, deadline budget, format);
//   * encode ∘ decode is a fixpoint: encoding the second decode yields
//     byte-identical output to encoding the first (the codec canonicalizes
//     in at most one hop).
//
// All decodes use one fixed clock instant so deadline budgets round-trip
// exactly. Violations abort (fuzz::require), which libFuzzer/ASan report
// as a crash with the offending input.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fuzz_common.hpp"
#include "mcsn/serve/wire.hpp"

namespace {

using namespace mcsn;
using fuzz::require;

void check_request_roundtrip(const SortRequest& r1, bool batch) {
  require(r1.validate().ok(), "a decoded request must pass validate()");
  const auto now = fuzz::fixed_now();
  const std::vector<std::uint8_t> f1 =
      batch ? wire::encode_batch_request(r1, now) : wire::encode_request(r1, now);
  StatusOr<wire::FrameView> v1 = wire::parse_frame(f1);
  require(v1.ok(), "re-encoded request frame must parse");
  require(v1->frame_size == f1.size(), "request frame must self-delimit");
  StatusOr<SortRequest> r2 = batch
                                 ? wire::decode_batch_request(v1->body, now)
                                 : wire::decode_request(v1->body, now);
  require(r2.ok(), "re-encoded request must decode");
  require(r2->shape == r1.shape, "request shape must round-trip");
  require(r2->rounds == r1.rounds, "request rounds must round-trip");
  require(r2->values_requested == r1.values_requested,
          "request values flag must round-trip");
  require(r2->deadline == r1.deadline, "request deadline must round-trip");
  require(std::ranges::equal(r2->payload, r1.payload),
          "request payload must round-trip");
  const std::vector<std::uint8_t> f2 =
      batch ? wire::encode_batch_request(*r2, now) : wire::encode_request(*r2, now);
  require(f1 == f2, "request encode must be a fixpoint after one decode");
}

void check_response_roundtrip(const SortResponse& r1, bool batch) {
  const std::vector<std::uint8_t> f1 =
      batch ? wire::encode_batch_response(r1) : wire::encode_response(r1);
  StatusOr<wire::FrameView> v1 = wire::parse_frame(f1);
  require(v1.ok(), "re-encoded response frame must parse");
  StatusOr<SortResponse> r2 = batch ? wire::decode_batch_response(v1->body)
                                    : wire::decode_response(v1->body);
  require(r2.ok(), "re-encoded response must decode");
  require(r2->shape == r1.shape, "response shape must round-trip");
  require(r2->status == r1.status, "response status must round-trip");
  require(r2->latency == r1.latency, "response latency must round-trip");
  require(!batch || r2->rounds == r1.rounds,
          "batch response rounds must round-trip");
  require(std::ranges::equal(r2->payload, r1.payload),
          "response payload must round-trip");
  const std::vector<std::uint8_t> f2 =
      batch ? wire::encode_batch_response(*r2) : wire::encode_response(*r2);
  require(f1 == f2, "response encode must be a fixpoint after one decode");
}

void check_stats_reply_roundtrip(const wire::StatsReply& r1) {
  const std::vector<std::uint8_t> f1 = wire::encode_stats_response(r1);
  StatusOr<wire::FrameView> v1 = wire::parse_frame(f1);
  require(v1.ok(), "re-encoded stats response must parse");
  StatusOr<wire::StatsReply> r2 = wire::decode_stats_response(v1->body);
  require(r2.ok(), "re-encoded stats response must decode");
  require(r2->status == r1.status, "stats status must round-trip");
  require(r2->format == r1.format, "stats format must round-trip");
  require(r2->text == r1.text, "stats text must round-trip");
  require(f1 == wire::encode_stats_response(*r2),
          "stats encode must be a fixpoint after one decode");
}

void decode_body(wire::FrameType type, std::span<const std::uint8_t> body) {
  const auto now = fuzz::fixed_now();
  switch (type) {
    case wire::FrameType::request:
      if (StatusOr<SortRequest> r = wire::decode_request(body, now); r.ok()) {
        check_request_roundtrip(*r, /*batch=*/false);
      }
      break;
    case wire::FrameType::response:
      if (StatusOr<SortResponse> r = wire::decode_response(body); r.ok()) {
        check_response_roundtrip(*r, /*batch=*/false);
      }
      break;
    case wire::FrameType::batch_request:
      if (StatusOr<SortRequest> r = wire::decode_batch_request(body, now);
          r.ok()) {
        check_request_roundtrip(*r, /*batch=*/true);
      }
      break;
    case wire::FrameType::batch_response:
      if (StatusOr<SortResponse> r = wire::decode_batch_response(body);
          r.ok()) {
        check_response_roundtrip(*r, /*batch=*/true);
      }
      break;
    case wire::FrameType::stats_request:
      if (StatusOr<wire::StatsFormat> f = wire::decode_stats_request(body);
          f.ok()) {
        const std::vector<std::uint8_t> frame = wire::encode_stats_request(*f);
        StatusOr<wire::FrameView> v = wire::parse_frame(frame);
        require(v.ok() && wire::decode_stats_request(v->body).ok(),
                "stats request must round-trip");
      }
      break;
    case wire::FrameType::stats_response:
      if (StatusOr<wire::StatsReply> r = wire::decode_stats_response(body);
          r.ok()) {
        check_stats_reply_roundtrip(*r);
      }
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);

  // Frame mode: the two frame-level entry points must agree whenever the
  // incremental one sees a complete frame.
  StatusOr<std::optional<wire::FrameView>> incremental =
      wire::try_parse_frame(input);
  if (incremental.ok() && incremental->has_value()) {
    StatusOr<wire::FrameView> oneshot = wire::parse_frame(input);
    require(oneshot.ok(),
            "parse_frame must accept what try_parse_frame accepted");
    require(oneshot->type == (*incremental)->type &&
                oneshot->frame_size == (*incremental)->frame_size,
            "parse_frame and try_parse_frame must agree on the frame");
    decode_body(oneshot->type, oneshot->body);
  }

  // Body mode: first byte selects the decoder, the rest is the body.
  if (!input.empty()) {
    const auto type = static_cast<wire::FrameType>(1 + input[0] % 6);
    decode_body(type, input.subspan(1));
  }
  return 0;
}
