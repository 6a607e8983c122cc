#pragma once
// Versioned, length-prefixed binary wire codec for SortRequest/SortResponse
// frames — the serialization layer every byte-stream front-end (the
// tool_sortd --framed pipe and the TCP/UNIX-domain SocketServer) shares.
//
// Frame layout (all multi-byte integers little-endian):
//
//   offset size  field
//   0      2     magic "MC" (0x4D 0x43)
//   2      1     version (1 or 2; see the versioning note below)
//   3      1     frame type (1 = request, 2 = response,
//                3 = batch request, 4 = batch response)
//   4      4     body length N
//   8      N     body
//
// Request body (type 1):
//   0      4     channels
//   4      4     bits
//   8      4     flags (bit 0: payload is u64 values, not trits)
//   12     8     deadline budget in ns (0 = no deadline), relative to
//                receipt — steady-clock instants don't cross processes.
//                Decoders clamp the budget at 2^60 ns (~36 years): beyond
//                that it is effectively "none", and re-anchoring an
//                arbitrary u64 at receipt would overflow the signed clock
//   20     ...   payload: either ceil(channels*bits/4) bytes of trits
//                packed 2 bits each (00=0, 01=1, 10=M, 11=invalid, trit i
//                in byte i/4 at bit 2*(i%4)), or channels x u64 values
//
// Response body (type 2):
//   0      4     status code (StatusCode numeric value)
//   4      4     flags (bit 0: payload is u64 values)
//   8      4     channels
//   12     4     bits
//   16     8     latency in ns
//   24     4     status message length M
//   28     M     status message (UTF-8)
//   28+M   ...   payload (same encodings; empty unless status == ok)
//
// Batch request body (type 3, version >= 2) — R same-shape rounds behind
// one header, amortizing header + syscall cost and feeding the server's
// lane engine whole groups at a time:
//   0      4     channels
//   4      4     bits
//   8      4     flags (bit 0: payload is u64 values)
//   12     8     deadline budget in ns for the whole batch (0 = none)
//   20     4     round count R (>= 1)
//   24     ...   payload: all R rounds contiguous, round-major — either
//                ceil(R*channels*bits/4) bytes of packed trits (one
//                canonical-padding tail byte for the whole batch), or
//                R x channels u64 values
//
// Batch response body (type 4, version >= 2):
//   0      4     status code
//   4      4     flags (bit 0: payload is u64 values)
//   8      4     channels
//   12     4     bits
//   16     8     latency in ns
//   24     4     round count R
//   28     4     status message length M
//   32     M     status message (UTF-8)
//   32+M   ...   payload for all R rounds (same encodings as the batch
//                request; empty unless status == ok)
//
// Stats request body (type 5, version >= 2) — admin frame asking the
// server for its live observability document; answered from the event
// loop without a trip through the batcher:
//   0      4     format (0 = JSON, 1 = Prometheus text)
//   (exactly 4 bytes; anything else is kDataLoss)
//
// Stats response body (type 6, version >= 2):
//   0      4     status code
//   4      4     format (echo of the request's)
//   8      4     status message length M
//   12     M     status message (UTF-8)
//   12+M   ...   stats document (UTF-8 text in the requested format;
//                empty unless status == ok)
//
// Versioning: encoders emit the lowest version that can represent the
// frame — single-round frames (types 1/2) stay version 1, byte-identical
// to what a v1 peer produces and accepts; batch frames (types 3/4) carry
// version 2, and so does every frame of rounds != 1 (a v1 body has no
// round count). Decoders accept versions 1..kVersion, with batch types
// rejected under a version-1 header.
//
// Decoding is defensive end to end: bad magic, unsupported versions,
// unknown frame types/flags, corrupt length prefixes, truncated bodies,
// invalid packed trits and out-of-bounds shapes all come back as Status
// values (kDataLoss / kUnimplemented / kResourceExhausted /
// kInvalidArgument) — never exceptions, never a read past the buffer.

#include <chrono>
#include <cstdint>
#include <istream>
#include <optional>
#include <span>
#include <vector>

#include "mcsn/api/sort_api.hpp"

namespace mcsn::wire {

// The full byte-level contract (normative field tables, canonical-form
// rules, versioning policy, a worked hex example) lives in
// docs/WIRE_PROTOCOL.md; this header is the implementation's summary.

inline constexpr std::uint8_t kMagic0 = 0x4D;  // 'M'
inline constexpr std::uint8_t kMagic1 = 0x43;  // 'C'
/// Highest wire version this build speaks. Encoders emit the lowest
/// version that can represent a frame (single-round frames stay at
/// kVersionMin for v1 interop; batch frames need version 2); decoders
/// accept kVersionMin..kVersion and reject everything else.
inline constexpr std::uint8_t kVersion = 2;
/// Oldest wire version decoders still accept.
inline constexpr std::uint8_t kVersionMin = 1;
/// First version with batch frame types (3/4).
inline constexpr std::uint8_t kVersionBatch = 2;
/// First version with stats admin frame types (5/6).
inline constexpr std::uint8_t kVersionStats = 2;
/// Fixed frame header: magic(2) + version(1) + type(1) + body length(4).
inline constexpr std::size_t kHeaderSize = 8;
/// Upper bound on a body a decoder will accept; a corrupt length prefix
/// must not turn into a multi-gigabyte allocation.
inline constexpr std::size_t kMaxBody = std::size_t{1} << 24;

/// Header byte 3. Values are wire-stable: append, never renumber. The
/// batch types require a version >= kVersionBatch header; the stats
/// admin types a version >= kVersionStats header.
enum class FrameType : std::uint8_t {
  request = 1,
  response = 2,
  batch_request = 3,
  batch_response = 4,
  stats_request = 5,
  stats_response = 6,
};

/// Exposition format carried by stats frames (body field, wire-stable).
enum class StatsFormat : std::uint32_t {
  json = 0,
  prometheus = 1,
};

/// Body flag bit 0: the payload carries u64 integer values (bits <= 64)
/// instead of packed trits. All other bits must be zero in versions 1-2.
inline constexpr std::uint32_t kFlagValues = 1u << 0;

// --- encoding ---------------------------------------------------------------
//
// Encoders need valid trits: every payload byte 0, 1 or 2, which
// SortRequest::validate() checks and the engine always produces. Each
// payload byte keeps only its low two bits, so another byte cannot reach
// its neighbours' codes, but it does not encode what it meant.

/// One self-delimiting request frame. A deadline is carried as the budget
/// remaining relative to `now` (floored at 1 ns so an already-expired
/// deadline survives the trip). Requests built by from_values travel as
/// value payloads; everything else as packed trits. A single-round request
/// (rounds == 1) is a version-1 request frame; a v1 frame has no round
/// count, so any other rounds value is encoded exactly as
/// encode_batch_request would.
[[nodiscard]] std::vector<std::uint8_t> encode_request(
    const SortRequest& request,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now());

/// One self-delimiting response frame. The payload is value-encoded only
/// when the response requested values AND every output trit is stable
/// (metastable results fall back to packed trits with the flag clear, so
/// nothing is silently mis-decoded). Same rounds rule as encode_request:
/// rounds == 1 is a version-1 response frame, anything else is encoded
/// exactly as encode_batch_response would.
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const SortResponse& response);

/// One version-2 batch request frame carrying request.rounds same-shape
/// rounds (>= 1; the request must satisfy SortRequest::validate()). The
/// deadline budget applies to the batch as a whole.
[[nodiscard]] std::vector<std::uint8_t> encode_batch_request(
    const SortRequest& request,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now());

/// One version-2 batch response frame (response.rounds rounds). Same
/// value-encoding fallback rules as encode_response.
[[nodiscard]] std::vector<std::uint8_t> encode_batch_response(
    const SortResponse& response);

/// A decoded stats response: the status of the scrape, the echoed format,
/// and (on ok) the stats document text.
struct StatsReply {
  Status status;
  StatsFormat format = StatsFormat::json;
  std::string text;
};

/// One version-2 stats request frame asking for `format`.
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request(
    StatsFormat format);

/// One version-2 stats response frame. On a non-ok status the document
/// text is omitted (an error response never carries a payload).
[[nodiscard]] std::vector<std::uint8_t> encode_stats_response(
    const StatsReply& reply);

// --- decoding ---------------------------------------------------------------

/// A validated frame header plus its body, viewing the input buffer.
struct FrameView {
  FrameType type = FrameType::request;
  std::span<const std::uint8_t> body;
  /// Total frame length (header + body) — the offset of the next frame.
  std::size_t frame_size = 0;
};

/// Validates the frame at the start of `bytes` (magic, version, type,
/// length prefix within bounds and within the buffer).
[[nodiscard]] StatusOr<FrameView> parse_frame(
    std::span<const std::uint8_t> bytes);

/// Incremental variant for non-blocking byte streams, where "not enough
/// bytes yet" is normal progress, not corruption:
///   * a complete frame at the start of `bytes` -> FrameView (consume
///     view.frame_size bytes and call again);
///   * a valid-so-far prefix (short header, or short body under an intact
///     header) -> nullopt (keep the bytes, read more);
///   * anything provably corrupt (bad magic, unsupported version, unknown
///     type, length prefix beyond kMaxBody) -> the same Status values
///     parse_frame reports. The stream is unrecoverable past this point.
/// The returned view aliases `bytes`; it is invalidated by any mutation of
/// the underlying buffer.
[[nodiscard]] StatusOr<std::optional<FrameView>> try_parse_frame(
    std::span<const std::uint8_t> bytes);

/// Decodes a request body (one round; no batch bound applies). Deadline
/// budgets are re-anchored at `now`. Like decode_batch_request, it returns
/// only requests that satisfy SortRequest::validate(), without running it.
[[nodiscard]] StatusOr<SortRequest> decode_request(
    std::span<const std::uint8_t> body,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now());

/// Decodes a response body.
[[nodiscard]] StatusOr<SortResponse> decode_response(
    std::span<const std::uint8_t> body);

/// Decodes a batch request body (frame type batch_request). Rejects a
/// zero round count (kInvalidArgument), a round count inconsistent with
/// the body length (kDataLoss), and batches over the API bounds
/// (kResourceExhausted) — one round included. Deadline budgets are
/// re-anchored at `now`.
[[nodiscard]] StatusOr<SortRequest> decode_batch_request(
    std::span<const std::uint8_t> body,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now());

/// Decodes a batch response body (frame type batch_response).
[[nodiscard]] StatusOr<SortResponse> decode_batch_response(
    std::span<const std::uint8_t> body);

/// Decodes a stats request body (frame type stats_request). Rejects any
/// body that is not exactly the 4-byte format field (kDataLoss) and
/// formats this build doesn't know (kUnimplemented).
[[nodiscard]] StatusOr<StatsFormat> decode_stats_request(
    std::span<const std::uint8_t> body);

/// Decodes a stats response body (frame type stats_response). A non-ok
/// reply carrying document text is kDataLoss, mirroring the sort
/// responses' error-payload rule.
[[nodiscard]] StatusOr<StatsReply> decode_stats_response(
    std::span<const std::uint8_t> body);

// --- stream framing ---------------------------------------------------------

/// One frame read off a byte stream.
struct Frame {
  FrameType type = FrameType::request;
  std::vector<std::uint8_t> body;
};

/// Reads exactly one frame. Returns nullopt on clean EOF (stream ended
/// before the first header byte); kDataLoss when the stream ends mid-frame
/// or the header is corrupt.
[[nodiscard]] StatusOr<std::optional<Frame>> read_frame(std::istream& in);

/// Writes one encoded frame (as produced by encode_*).
void write_frame(std::ostream& out, std::span<const std::uint8_t> frame);

}  // namespace mcsn::wire
