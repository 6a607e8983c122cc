#include "mcsn/serve/wire.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <string>

#include "mcsn/core/gray.hpp"

namespace mcsn::wire {

namespace {

using Clock = std::chrono::steady_clock;

// Explicit little-endian byte shuffling, portable across host endianness.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::size_t packed_trit_bytes(std::size_t trits) { return (trits + 3) / 4; }

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

// Packed trits move eight per step: a trit word (core/trit.hpp, trit j in
// byte j) holds the same eight codes as two payload bytes (trit j in bits
// [2j, 2j + 2) of lo | hi << 8). Two shift-or-mask steps gather the codes
// of each four bytes into the low byte of their 32-bit half, and the same
// two steps in reverse spread them back.

/// The two payload bytes of trit word `w`, low byte first. Only each
/// byte's low two bits count, so a byte that is no Trit cannot reach its
/// neighbours' codes.
std::array<std::uint8_t, 2> pack_trit_word(std::uint64_t w) {
  w &= kTritWordMask;
  w = (w | (w >> 6)) & 0x000f000f000f000fu;
  w = (w | (w >> 12)) & 0x000000ff000000ffu;
  return {static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(w >> 32)};
}

/// The trit word of payload bytes `lo` and `hi`, code j in byte j: a
/// code 3 stays 3 for invalid_trit_bytes to find.
std::uint64_t unpack_trit_word(std::uint8_t lo, std::uint8_t hi) {
  std::uint64_t w = lo | (std::uint64_t{hi} << 32);
  w = (w | (w << 12)) & 0x000f000f000f000fu;
  return (w | (w << 6)) & kTritWordMask;
}

/// Appends `trits` as packed 2-bit codes. The trits must be Trit values;
/// SortRequest::validate() refuses any other byte.
void pack_trits(std::vector<std::uint8_t>& out, std::span<const Trit> trits) {
  const std::size_t base = out.size();
  out.resize(base + packed_trit_bytes(trits.size()));
  std::uint8_t* const bytes = out.data() + base;
  const std::size_t words = trits.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const auto [lo, hi] = pack_trit_word(load_trit_word(trits.data() + 8 * i));
    bytes[2 * i] = lo;
    bytes[2 * i + 1] = hi;
  }
  if (const std::size_t n = trits.size() % 8; n != 0) {
    const auto [lo, hi] =
        pack_trit_word(load_trit_word(trits.data() + 8 * words, n));
    bytes[2 * words] = lo;
    if (n > 4) bytes[2 * words + 1] = hi;
  }
}

/// Decodes `count` packed trits from `bytes` (exactly
/// packed_trit_bytes(count) of them) into `out`. kDataLoss on a code 3,
/// naming the first bad index, and on nonzero padding bits.
Status unpack_trits(std::span<const std::uint8_t> bytes, std::size_t count,
                    std::vector<Trit>& out) {
  out.resize(count);
  const std::size_t words = count / 8;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = unpack_trit_word(bytes[2 * i], bytes[2 * i + 1]);
    bad |= invalid_trit_bytes(w);
    store_trit_word(out.data() + 8 * i, w);
  }
  if (const std::size_t n = count % 8; n != 0) {
    const std::uint64_t w =
        unpack_trit_word(bytes[2 * words], n > 4 ? bytes[2 * words + 1] : 0);
    // Codes past the last trit are padding, checked below.
    bad |= invalid_trit_bytes(w) & ((std::uint64_t{1} << (8 * n)) - 1);
    store_trit_word(out.data() + 8 * words, w, n);
  }
  if (bad != 0) {
    // A code 3 decodes to the byte 3, the only byte that is no Trit.
    return Status::data_loss("invalid packed trit at index " +
                             std::to_string(first_invalid_trit(out)));
  }
  // Canonical form: padding bits of the final byte must be zero, so every
  // payload has exactly one byte representation (and flipped garbage in
  // the tail is caught, not ignored).
  const std::size_t used = count % 4;
  if (used != 0 && (bytes[count / 4] >> (2 * used)) != 0) {
    return Status::data_loss("nonzero padding in packed trit payload");
  }
  return Status();
}

/// The payload as integers, when the intent flag is set and the trits can
/// actually be decoded (size matches the shape, bits <= 64, every trit
/// stable) — the size check doubles as the guard that keeps encoding a
/// hand-built request with a short payload from reading past its span.
std::optional<std::vector<std::uint64_t>> values_if_decodable(
    SortShape shape, std::span<const Trit> payload, bool values_requested) {
  if (!values_requested) return std::nullopt;
  StatusOr<std::vector<std::uint64_t>> values =
      decode_flat_values(shape, payload);
  if (!values.ok()) return std::nullopt;
  return std::move(*values);
}

/// The lowest version whose decoders understand `type` — what encoders
/// stamp into the header, so single-round frames stay byte-identical to
/// version 1 and only batch frames require an upgraded peer.
std::uint8_t version_for(FrameType type) {
  switch (type) {
    case FrameType::batch_request:
    case FrameType::batch_response:
      return kVersionBatch;
    case FrameType::stats_request:
    case FrameType::stats_response:
      return kVersionStats;
    case FrameType::request:
    case FrameType::response:
      break;
  }
  return kVersionMin;
}

/// A frame's one buffer: room for the header and a `body_size`-byte body,
/// holding the header with a zero body size. The encoder appends the body
/// and finish_frame writes its size.
std::vector<std::uint8_t> start_frame(FrameType type, std::size_t body_size) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + body_size);
  frame.push_back(kMagic0);
  frame.push_back(kMagic1);
  frame.push_back(version_for(type));
  frame.push_back(static_cast<std::uint8_t>(type));
  put_u32(frame, 0);
  return frame;
}

/// Writes the size of the body appended since start_frame into the header.
void finish_frame(std::vector<std::uint8_t>& frame) {
  const auto body_size = static_cast<std::uint32_t>(frame.size() - kHeaderSize);
  for (std::size_t i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<std::uint8_t>(body_size >> (8 * i));
  }
}

struct Header {
  FrameType type = FrameType::request;
  std::size_t body_size = 0;
};

StatusOr<Header> parse_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::data_loss("truncated frame header (" +
                             std::to_string(bytes.size()) + " of " +
                             std::to_string(kHeaderSize) + " bytes)");
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    return Status::data_loss("bad frame magic");
  }
  const std::uint8_t version = bytes[2];
  if (version < kVersionMin || version > kVersion) {
    return Status::unimplemented("unsupported wire version " +
                                 std::to_string(version));
  }
  const std::uint8_t type = bytes[3];
  if (type < static_cast<std::uint8_t>(FrameType::request) ||
      type > static_cast<std::uint8_t>(FrameType::stats_response)) {
    return Status::unimplemented("unknown frame type " + std::to_string(type));
  }
  if (version < version_for(static_cast<FrameType>(type))) {
    // A batch or stats type under a version-1 header: no v1 encoder
    // produces it, so it is corrupt or a confused peer — either way
    // unsupported.
    return Status::unimplemented(
        "frame type " + std::to_string(type) + " requires wire version " +
        std::to_string(version_for(static_cast<FrameType>(type))));
  }
  const std::uint32_t body_size = get_u32(bytes.data() + 4);
  if (body_size > kMaxBody) {
    return Status::resource_exhausted(
        "frame body of " + std::to_string(body_size) +
        " bytes exceeds the " + std::to_string(kMaxBody) + " byte bound");
  }
  return Header{static_cast<FrameType>(type), body_size};
}

/// Shared shape decoding + bounds checks for both body kinds.
StatusOr<SortShape> decode_shape(std::uint32_t channels, std::uint32_t bits) {
  if (channels < 1 || channels > static_cast<std::uint32_t>(kMaxChannels) ||
      bits < 1 || bits > static_cast<std::uint32_t>(kMaxBits)) {
    return Status::invalid_argument("wire shape " + std::to_string(channels) +
                                    "x" + std::to_string(bits) +
                                    " out of bounds");
  }
  return SortShape{static_cast<int>(channels), static_cast<std::size_t>(bits)};
}

/// Decoded deadline budgets are clamped here (~36 years). The wire field
/// is a full u64, but a budget is re-anchored as `now + nanoseconds(b)`
/// whose rep is a signed 64-bit count: an unclamped attacker-controlled
/// budget near 2^63 overflows that addition (undefined behavior), and one
/// above 2^63 wraps negative — turning "practically no deadline" into
/// "already expired". Found by the fuzz harness (fuzz/) under UBSan;
/// regression frames live in wire_test.
constexpr std::uint64_t kMaxDeadlineNs = std::uint64_t{1} << 60;

/// Same guard for decoded latency reports: nanoseconds' rep is signed, so
/// a u64 above 2^63 would convert to a negative latency.
constexpr std::uint64_t kMaxLatencyNs =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

constexpr std::size_t kRequestFixed = 20;   // channels..deadline
constexpr std::size_t kResponseFixed = 28;  // status..message length
constexpr std::size_t kRoundCount = 4;      // the batch types' u32 rounds
constexpr std::size_t kStatsRequestSize = 4;     // format — the whole body
constexpr std::size_t kStatsResponseFixed = 12;  // status..message length

/// Shared bound check for decoded batch round counts: nonzero and inside
/// the API batch limits (which also keep every encodable batch frame
/// under kMaxBody).
Status check_batch_rounds(std::uint32_t rounds, SortShape shape) {
  if (rounds == 0) {
    return Status::invalid_argument("zero-round batch frame");
  }
  if (rounds > kMaxBatchRounds ||
      static_cast<std::size_t>(rounds) * shape.trits() > kMaxBatchTrits) {
    return Status::resource_exhausted(
        "batch of " + std::to_string(rounds) + " rounds exceeds the " +
        std::to_string(kMaxBatchTrits) + " trit bound");
  }
  return Status();
}

/// Gray-encodes `words` u64 values (8 bytes each, caller-checked length)
/// into flat trits. Fails with kDataLoss on a value out of range for
/// shape.bits.
Status values_to_trits(SortShape shape, std::size_t words,
                       std::span<const std::uint8_t> payload,
                       std::vector<Trit>& out) {
  const std::uint64_t limit = shape.bits == 64
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << shape.bits) - 1;
  out.clear();
  out.reserve(words * shape.bits);
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t v = get_u64(payload.data() + i * 8);
    if (v > limit) {
      return Status::data_loss("payload value " + std::to_string(v) +
                               " out of range for " +
                               std::to_string(shape.bits) + " bits");
    }
    const Word w = gray_encode(v, shape.bits);
    out.insert(out.end(), w.begin(), w.end());
  }
  return Status();
}

// --- the sort-frame codec ---------------------------------------------------
//
// Types 1-4 share one body layout per direction. The batch types (3/4)
// add a u32 round count — after the deadline in a request, after the
// latency in a response — and take the kMaxBatchTrits bound even at one
// round; the v1 types (1/2) carry exactly one round and no batch bound.

bool is_batch(FrameType type) {
  return type == FrameType::batch_request ||
         type == FrameType::batch_response;
}

/// Bytes put_payload writes for the same arguments.
std::size_t payload_size(
    const std::optional<std::vector<std::uint64_t>>& values,
    std::span<const Trit> trits) {
  return values ? values->size() * 8 : packed_trit_bytes(trits.size());
}

/// The payload writer: u64 values when `values` holds them, else packed
/// trits.
void put_payload(std::vector<std::uint8_t>& body,
                 const std::optional<std::vector<std::uint64_t>>& values,
                 std::span<const Trit> trits) {
  if (values) {
    for (const std::uint64_t v : *values) put_u64(body, v);
  } else {
    pack_trits(body, trits);
  }
}

/// The payload reader: `rounds` rounds of `shape` as u64 values (`values`)
/// or packed trits. The byte length must match exactly (kDataLoss).
Status read_payload(SortShape shape, std::uint32_t rounds, bool values,
                    std::span<const std::uint8_t> payload,
                    std::vector<Trit>& out) {
  if (values && shape.bits > 64) {
    return Status::invalid_argument("value payload at bits > 64");
  }
  const std::size_t words = rounds * static_cast<std::size_t>(shape.channels);
  const std::size_t trits = words * shape.bits;
  const std::size_t expect = values ? words * 8 : packed_trit_bytes(trits);
  if (payload.size() != expect) {
    return Status::data_loss(
        std::string(values ? "value" : "trit") + " payload of " +
        std::to_string(payload.size()) + " bytes, expected " +
        std::to_string(expect) + " for " + std::to_string(rounds) +
        " round(s)");
  }
  return values ? values_to_trits(shape, words, payload, out)
                : unpack_trits(payload, trits, out);
}

std::vector<std::uint8_t> encode_sort_request(FrameType type,
                                              const SortRequest& request,
                                              Clock::time_point now) {
  const std::optional<std::vector<std::uint64_t>> values = values_if_decodable(
      request.shape, request.payload, request.values_requested);
  std::vector<std::uint8_t> frame = start_frame(
      type, kRequestFixed + (is_batch(type) ? kRoundCount : 0) +
                payload_size(values, request.payload));
  put_u32(frame, static_cast<std::uint32_t>(request.shape.channels));
  put_u32(frame, static_cast<std::uint32_t>(request.shape.bits));
  put_u32(frame, values ? kFlagValues : 0u);
  std::uint64_t deadline_ns = 0;
  if (request.deadline) {
    const auto budget = std::chrono::duration_cast<std::chrono::nanoseconds>(
        *request.deadline - now);
    // Floor at 1 ns: zero means "no deadline", and an already-expired
    // deadline must still arrive as a deadline.
    deadline_ns = budget.count() > 0
                      ? static_cast<std::uint64_t>(budget.count())
                      : 1;
  }
  put_u64(frame, deadline_ns);
  if (is_batch(type)) {
    put_u32(frame, static_cast<std::uint32_t>(request.rounds));
  }
  put_payload(frame, values, request.payload);
  finish_frame(frame);
  return frame;
}

std::vector<std::uint8_t> encode_sort_response(FrameType type,
                                               const SortResponse& response) {
  const bool has_payload = response.status.ok();
  const std::optional<std::vector<std::uint64_t>> values =
      has_payload ? values_if_decodable(response.shape, response.payload,
                                        response.values_requested)
                  : std::nullopt;
  const std::string& message = response.status.message();
  std::vector<std::uint8_t> frame = start_frame(
      type, kResponseFixed + (is_batch(type) ? kRoundCount : 0) +
                message.size() +
                (has_payload ? payload_size(values, response.payload) : 0));
  put_u32(frame, static_cast<std::uint32_t>(response.status.code()));
  put_u32(frame, values ? kFlagValues : 0u);
  put_u32(frame, static_cast<std::uint32_t>(response.shape.channels));
  put_u32(frame, static_cast<std::uint32_t>(response.shape.bits));
  put_u64(frame, static_cast<std::uint64_t>(response.latency.count()));
  if (is_batch(type)) {
    put_u32(frame, static_cast<std::uint32_t>(response.rounds));
  }
  put_u32(frame, static_cast<std::uint32_t>(message.size()));
  frame.insert(frame.end(), message.begin(), message.end());
  if (has_payload) put_payload(frame, values, response.payload);
  finish_frame(frame);
  return frame;
}

StatusOr<SortRequest> decode_sort_request(FrameType type,
                                          std::span<const std::uint8_t> body,
                                          Clock::time_point now) {
  const bool batch = is_batch(type);
  const std::size_t fixed = kRequestFixed + (batch ? kRoundCount : 0);
  if (body.size() < fixed) {
    return Status::data_loss("request body truncated (" +
                             std::to_string(body.size()) + " bytes)");
  }
  StatusOr<SortShape> shape =
      decode_shape(get_u32(body.data()), get_u32(body.data() + 4));
  if (!shape.ok()) return shape.status();
  const std::uint32_t flags = get_u32(body.data() + 8);
  if ((flags & ~kFlagValues) != 0) {
    return Status::unimplemented("unknown request flags " + hex32(flags));
  }
  const std::uint64_t deadline_ns = get_u64(body.data() + 12);
  const std::uint32_t rounds = batch ? get_u32(body.data() + kRequestFixed) : 1;
  if (batch) {
    if (Status s = check_batch_rounds(rounds, *shape); !s.ok()) return s;
  }
  const bool values = (flags & kFlagValues) != 0;
  std::vector<Trit> trits;
  if (Status s = read_payload(*shape, rounds, values, body.subspan(fixed),
                              trits);
      !s.ok()) {
    return s;
  }
  // All validate() checks passed above; try_admit runs the one full scan.
  SortRequest request;
  request.shape = *shape;
  request.rounds = rounds;
  request.values_requested = values;
  request.storage = std::make_shared<std::vector<Trit>>(std::move(trits));
  request.payload = *request.storage;
  if (deadline_ns != 0) {
    request.deadline =
        now + std::chrono::nanoseconds(std::min(deadline_ns, kMaxDeadlineNs));
  }
  return request;
}

StatusOr<SortResponse> decode_sort_response(
    FrameType type, std::span<const std::uint8_t> body) {
  const bool batch = is_batch(type);
  const std::size_t rounds_bytes = batch ? kRoundCount : 0;
  const std::size_t fixed = kResponseFixed + rounds_bytes;
  if (body.size() < fixed) {
    return Status::data_loss("response body truncated (" +
                             std::to_string(body.size()) + " bytes)");
  }
  const std::uint32_t code = get_u32(body.data());
  if (code > static_cast<std::uint32_t>(StatusCode::kInternal)) {
    return Status::unimplemented("unknown status code " + std::to_string(code));
  }
  const std::uint32_t flags = get_u32(body.data() + 4);
  if ((flags & ~kFlagValues) != 0) {
    return Status::unimplemented("unknown response flags " + hex32(flags));
  }
  StatusOr<SortShape> shape =
      decode_shape(get_u32(body.data() + 8), get_u32(body.data() + 12));
  if (!shape.ok()) return shape.status();
  const std::uint64_t latency_ns = get_u64(body.data() + 16);
  const std::uint32_t rounds = batch ? get_u32(body.data() + 24) : 1;
  if (batch) {
    if (Status s = check_batch_rounds(rounds, *shape); !s.ok()) return s;
  }
  const std::uint32_t message_len = get_u32(body.data() + 24 + rounds_bytes);
  if (body.size() < fixed + message_len) {
    return Status::data_loss("response message truncated");
  }
  std::string message(reinterpret_cast<const char*>(body.data() + fixed),
                      message_len);
  const std::span<const std::uint8_t> payload =
      body.subspan(fixed + message_len);

  SortResponse response;
  response.shape = *shape;
  response.rounds = rounds;
  response.status = Status(static_cast<StatusCode>(code), std::move(message));
  response.latency =
      std::chrono::nanoseconds(std::min(latency_ns, kMaxLatencyNs));
  response.values_requested = (flags & kFlagValues) != 0;
  if (!response.status.ok()) {
    if (!payload.empty()) {
      return Status::data_loss("error response carries a payload");
    }
    return response;
  }
  if (Status s = read_payload(*shape, rounds, response.values_requested,
                              payload, response.payload);
      !s.ok()) {
    return s;
  }
  return response;
}

}  // namespace

// A v1 frame has no round count: anything but exactly one round goes out
// under the batch type.
std::vector<std::uint8_t> encode_request(const SortRequest& request,
                                         Clock::time_point now) {
  return encode_sort_request(request.rounds == 1 ? FrameType::request
                                                 : FrameType::batch_request,
                             request, now);
}

std::vector<std::uint8_t> encode_response(const SortResponse& response) {
  return encode_sort_response(response.rounds == 1 ? FrameType::response
                                                   : FrameType::batch_response,
                              response);
}

std::vector<std::uint8_t> encode_batch_request(const SortRequest& request,
                                               Clock::time_point now) {
  return encode_sort_request(FrameType::batch_request, request, now);
}

std::vector<std::uint8_t> encode_batch_response(const SortResponse& response) {
  return encode_sort_response(FrameType::batch_response, response);
}

std::vector<std::uint8_t> encode_stats_request(StatsFormat format) {
  std::vector<std::uint8_t> frame =
      start_frame(FrameType::stats_request, kStatsRequestSize);
  put_u32(frame, static_cast<std::uint32_t>(format));
  finish_frame(frame);
  return frame;
}

std::vector<std::uint8_t> encode_stats_response(const StatsReply& reply) {
  const std::string& message = reply.status.message();
  std::vector<std::uint8_t> frame = start_frame(
      FrameType::stats_response,
      kStatsResponseFixed + message.size() +
          (reply.status.ok() ? reply.text.size() : 0));
  put_u32(frame, static_cast<std::uint32_t>(reply.status.code()));
  put_u32(frame, static_cast<std::uint32_t>(reply.format));
  put_u32(frame, static_cast<std::uint32_t>(message.size()));
  frame.insert(frame.end(), message.begin(), message.end());
  if (reply.status.ok()) {
    frame.insert(frame.end(), reply.text.begin(), reply.text.end());
  }
  finish_frame(frame);
  return frame;
}

StatusOr<StatsFormat> decode_stats_request(std::span<const std::uint8_t> body) {
  if (body.size() != kStatsRequestSize) {
    return Status::data_loss("stats request body of " +
                             std::to_string(body.size()) +
                             " bytes, expected " +
                             std::to_string(kStatsRequestSize));
  }
  const std::uint32_t format = get_u32(body.data());
  if (format > static_cast<std::uint32_t>(StatsFormat::prometheus)) {
    return Status::unimplemented("unknown stats format " +
                                 std::to_string(format));
  }
  return static_cast<StatsFormat>(format);
}

StatusOr<StatsReply> decode_stats_response(
    std::span<const std::uint8_t> body) {
  if (body.size() < kStatsResponseFixed) {
    return Status::data_loss("stats response body truncated (" +
                             std::to_string(body.size()) + " bytes)");
  }
  const std::uint32_t code = get_u32(body.data());
  if (code > static_cast<std::uint32_t>(StatusCode::kInternal)) {
    return Status::unimplemented("unknown status code " + std::to_string(code));
  }
  const std::uint32_t format = get_u32(body.data() + 4);
  if (format > static_cast<std::uint32_t>(StatsFormat::prometheus)) {
    return Status::unimplemented("unknown stats format " +
                                 std::to_string(format));
  }
  const std::uint32_t message_len = get_u32(body.data() + 8);
  if (body.size() < kStatsResponseFixed + message_len) {
    return Status::data_loss("stats response message truncated");
  }
  StatsReply reply;
  reply.format = static_cast<StatsFormat>(format);
  reply.status = Status(
      static_cast<StatusCode>(code),
      std::string(
          reinterpret_cast<const char*>(body.data() + kStatsResponseFixed),
          message_len));
  const std::span<const std::uint8_t> text =
      body.subspan(kStatsResponseFixed + message_len);
  if (!reply.status.ok()) {
    if (!text.empty()) {
      return Status::data_loss("error stats response carries a document");
    }
    return reply;
  }
  reply.text.assign(reinterpret_cast<const char*>(text.data()), text.size());
  return reply;
}

StatusOr<FrameView> parse_frame(std::span<const std::uint8_t> bytes) {
  StatusOr<Header> header = parse_header(bytes);
  if (!header.ok()) return header.status();
  if (bytes.size() < kHeaderSize + header->body_size) {
    return Status::data_loss(
        "truncated frame body (" +
        std::to_string(bytes.size() - kHeaderSize) + " of " +
        std::to_string(header->body_size) + " bytes)");
  }
  FrameView view;
  view.type = header->type;
  view.body = bytes.subspan(kHeaderSize, header->body_size);
  view.frame_size = kHeaderSize + header->body_size;
  return view;
}

StatusOr<std::optional<FrameView>> try_parse_frame(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return std::optional<FrameView>(std::nullopt);
  StatusOr<Header> header = parse_header(bytes);
  if (!header.ok()) return header.status();
  if (bytes.size() < kHeaderSize + header->body_size) {
    return std::optional<FrameView>(std::nullopt);
  }
  FrameView view;
  view.type = header->type;
  view.body = bytes.subspan(kHeaderSize, header->body_size);
  view.frame_size = kHeaderSize + header->body_size;
  return std::optional<FrameView>(view);
}

StatusOr<SortRequest> decode_request(std::span<const std::uint8_t> body,
                                     Clock::time_point now) {
  return decode_sort_request(FrameType::request, body, now);
}

StatusOr<SortResponse> decode_response(std::span<const std::uint8_t> body) {
  return decode_sort_response(FrameType::response, body);
}

StatusOr<SortRequest> decode_batch_request(std::span<const std::uint8_t> body,
                                           Clock::time_point now) {
  return decode_sort_request(FrameType::batch_request, body, now);
}

StatusOr<SortResponse> decode_batch_response(
    std::span<const std::uint8_t> body) {
  return decode_sort_response(FrameType::batch_response, body);
}

StatusOr<std::optional<Frame>> read_frame(std::istream& in) {
  std::uint8_t header[kHeaderSize];
  in.read(reinterpret_cast<char*>(header), kHeaderSize);
  const std::streamsize got = in.gcount();
  if (got == 0) return std::optional<Frame>(std::nullopt);  // clean EOF
  if (got < static_cast<std::streamsize>(kHeaderSize)) {
    return Status::data_loss("stream ended inside a frame header");
  }
  StatusOr<Header> parsed = parse_header(std::span(header, kHeaderSize));
  if (!parsed.ok()) return parsed.status();
  Frame frame;
  frame.type = parsed->type;
  frame.body.resize(parsed->body_size);
  if (parsed->body_size > 0) {
    in.read(reinterpret_cast<char*>(frame.body.data()),
            static_cast<std::streamsize>(parsed->body_size));
    if (in.gcount() < static_cast<std::streamsize>(parsed->body_size)) {
      return Status::data_loss("stream ended inside a frame body");
    }
  }
  return std::optional<Frame>(std::move(frame));
}

void write_frame(std::ostream& out, std::span<const std::uint8_t> frame) {
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
}

}  // namespace mcsn::wire
