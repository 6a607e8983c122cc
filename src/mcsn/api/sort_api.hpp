#pragma once
// The unified request/response object model for every sorting path.
//
// A SortRequest is one or more measurement rounds in the shape
// {channels, bits}: a *flat, contiguous* trit payload of
// rounds x channels x bits trits (round-major, round r channel c's word
// occupying [(r*channels + c)*bits, (r*channels + c + 1)*bits)), viewed
// through a std::span. The span either aliases caller memory (zero-copy:
// the caller guarantees the buffer outlives completion) or points into
// storage the request owns. Intent flags ride along: whether the caller
// thinks in raw Gray-coded trits or plain integers, and an optional
// deadline after which the service fails the request with
// kDeadlineExceeded instead of sorting it late. `rounds` defaults to 1 —
// the single-round request every existing caller builds; batch callers
// (wire BATCH frames, SortClient::sort_batch) set it higher and the whole
// batch completes as one response.
//
// A SortResponse carries the sorted payload back with a Status and the
// measured submit-to-completion latency. All validation errors surface as
// Status values; nothing on this path throws.
//
// Requests and responses are plain values with no internal locking:
// confine each instance to one thread at a time. Ownership contract: a
// request built with `view` aliases caller memory and the caller must keep
// that buffer alive until the request completes; every other factory makes
// the request self-contained. Copies of a request share its buffer, and
// only a sole owner may take it (take_trits): a service adopts a submitted
// request's buffer as the engine's input and output, and answers a lone
// request with that same buffer.
//
//   auto req = SortRequest::from_values({.channels = 4, .bits = 8},
//                                       std::array{5u, 2u, 7u, 1u});
//   SortResponse rsp = service.submit(std::move(*req)).get();
//   if (rsp.status.ok()) { auto sorted = rsp.values(); ... }

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mcsn/api/status.hpp"
#include "mcsn/core/word.hpp"

namespace mcsn {

/// The shape of a measurement round: how many channels (words) of how many
/// bits each. Keys sorter pools, micro-batcher shards and wire frames.
struct SortShape {
  int channels = 0;
  std::size_t bits = 0;

  /// Flat payload length: channels x bits trits.
  [[nodiscard]] std::size_t trits() const noexcept {
    return static_cast<std::size_t>(channels) * bits;
  }

  /// Non-degenerate and small enough that trits() cannot overflow or
  /// describe an absurd netlist (also the bound wire decoding enforces).
  [[nodiscard]] Status validate() const;

  bool operator==(const SortShape&) const = default;
  auto operator<=>(const SortShape&) const = default;
};

/// Upper bounds validate() enforces; generous for real TDC workloads while
/// keeping shape arithmetic and wire-frame sizes trivially safe.
inline constexpr int kMaxChannels = 1 << 16;
inline constexpr std::size_t kMaxBits = 1 << 16;

/// Upper bound on rounds carried by one batched request. Together with the
/// per-batch trit bound below it keeps batch arithmetic overflow-free and
/// every encodable batch frame under the wire codec's body cap.
inline constexpr std::size_t kMaxBatchRounds = std::size_t{1} << 20;
/// Upper bound on rounds * shape.trits() for a batched (rounds > 1)
/// request — 2^20 trits packs to 256 KiB on the wire, and even the worst
/// value-encoded layout (bits == 1) stays under wire::kMaxBody.
inline constexpr std::size_t kMaxBatchTrits = std::size_t{1} << 20;

struct SortRequest {
  SortShape shape;

  /// Same-shape measurement rounds in `payload`; 1 for the ordinary
  /// single-round request. The whole batch sorts together and completes as
  /// one SortResponse carrying rounds x shape.trits() output trits.
  std::size_t rounds = 1;

  /// Flat payload, rounds x shape.trits() long. May alias caller memory
  /// (factory `view`) or point into `storage` (all other factories).
  std::span<const Trit> payload;

  /// Optional backing buffer; shared so requests stay cheap to copy.
  std::shared_ptr<std::vector<Trit>> storage;

  /// Caller-intent flag: true when the round was given as integers and the
  /// response should read back as integers (SortResponse::values(), wire
  /// value frames). The engine always works on the Gray-coded trits.
  bool values_requested = false;

  /// If set, the request is failed with kDeadlineExceeded when its batch
  /// flushes after this instant (checked at flush time, not admission).
  std::optional<std::chrono::steady_clock::time_point> deadline;

  // --- factories (each validates; non-OK means no request was built) ------

  /// Zero-copy: `flat` must stay alive until the request completes.
  [[nodiscard]] static StatusOr<SortRequest> view(SortShape shape,
                                                  std::span<const Trit> flat);

  /// Takes ownership of the flat payload.
  [[nodiscard]] static StatusOr<SortRequest> own(SortShape shape,
                                                 std::vector<Trit> flat);

  /// Gray-encodes `values` (one per channel) at shape.bits wide. Rejects
  /// bits > 64 (values are uint64_t) and out-of-range values.
  [[nodiscard]] static StatusOr<SortRequest> from_values(
      SortShape shape, std::span<const std::uint64_t> values);

  /// Bridges the legacy vector-of-Words round (flattens once).
  [[nodiscard]] static StatusOr<SortRequest> from_words(
      const std::vector<Word>& round);

  /// Zero-copy batch: `flat` holds `rounds` consecutive rounds
  /// (rounds x shape.trits() trits) and must stay alive until the request
  /// completes. Rejects rounds < 1 and batches over the kMaxBatchRounds /
  /// kMaxBatchTrits bounds.
  [[nodiscard]] static StatusOr<SortRequest> view_batch(
      SortShape shape, std::size_t rounds, std::span<const Trit> flat);

  /// Batch variant of `own`: takes ownership of the flat payload.
  [[nodiscard]] static StatusOr<SortRequest> own_batch(SortShape shape,
                                                       std::size_t rounds,
                                                       std::vector<Trit> flat);

  /// Re-checks the invariants the factories establish (payload length,
  /// shape bounds, every payload byte a Trit value: 0, 1 or 2) — for
  /// requests decoded from the wire or hand-built. kInvalidArgument names
  /// the first bad trit's index.
  [[nodiscard]] Status validate() const;

  /// The payload as a vector, leaving the request without one: the owned
  /// buffer itself when this request is its only owner and `payload` spans
  /// all of it, otherwise a copy of `payload` (a `view`, or storage that a
  /// copy of this request still shares).
  [[nodiscard]] std::vector<Trit> take_trits() &&;

  /// Convenience: deadline = now + budget.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    deadline = std::chrono::steady_clock::now() + budget;
  }
};

struct SortResponse {
  /// kOk iff `payload` holds the sorted round(s).
  Status status;
  SortShape shape;

  /// Rounds in `payload` — echoed from the request (1 for single-round).
  std::size_t rounds = 1;

  /// Flat sorted payload (rounds x shape.trits() trits); empty unless
  /// status.ok(). Round r occupies [r*trits, (r+1)*trits).
  std::vector<Trit> payload;

  /// Echoed from the request (drives wire encoding and values()).
  bool values_requested = false;

  /// Submit-to-completion time as measured by the service; zero for
  /// synchronous paths that don't time themselves.
  std::chrono::nanoseconds latency{0};

  /// The sorted rounds as per-channel Words (rounds x channels of them,
  /// round-major). Precondition: status.ok().
  [[nodiscard]] std::vector<Word> words() const;

  /// Gray-decodes the sorted round(s) to integers (rounds x channels of
  /// them, round-major). Fails with kFailedPrecondition if any output trit
  /// is metastable (M cannot be decoded) and kInvalidArgument if
  /// bits > 64.
  [[nodiscard]] StatusOr<std::vector<std::uint64_t>> values() const;

  /// A payload-less response reporting `status` (which must not be OK) —
  /// the uniform way every layer answers a request it could not sort.
  [[nodiscard]] static SortResponse failure(Status status, SortShape shape,
                                            bool values_requested = false,
                                            std::size_t rounds = 1) {
    SortResponse r;
    r.status = std::move(status);
    r.shape = shape;
    r.values_requested = values_requested;
    r.rounds = rounds;
    return r;
  }
};

/// Gray-decodes a flat payload (a whole number of rounds: any multiple of
/// shape.trits() trits, round- then channel-major) to one integer per
/// channel per round — the one decode loop SortResponse::values() and the
/// wire codec share. Fails with kInvalidArgument when the payload is not a
/// positive multiple of shape.trits() or bits > 64, kFailedPrecondition if
/// any trit is metastable (M has no integer form).
[[nodiscard]] StatusOr<std::vector<std::uint64_t>> decode_flat_values(
    SortShape shape, std::span<const Trit> payload);

}  // namespace mcsn
