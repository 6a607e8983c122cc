#pragma once
// High-level facade: an n-channel, B-bit metastability-containing sorter.
//
// Wraps network selection, the serial 2-sort(B) scan every comparator
// runs, evaluation and containment accounting behind a value-semantic
// class, so downstream users can sort vectors of (possibly marginal) Gray
// code measurements in two lines:
//
//   McSorter sorter(10, 8);                       // 10 channels, 8 bits
//   std::vector<Word> sorted = sorter.sort(measurements);

#include <span>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/stats.hpp"

namespace mcsn {

/// The 2-sort(B) cell every served comparator runs, as sort2_serial_scan.
/// The engine pays per gate, not per level, so serving uses the serial
/// prefix (B - 2 ⋄M blocks, the fewest) instead of Sort2Options' default
/// Ladner–Fischer: the same ternary function (bdd_test proves it for
/// B <= 16) with 25% fewer gates at B = 16.
inline constexpr Sort2Options kServedSort2{PpcTopology::serial,
                                           OpStyle::simple_gates};

struct McSorterOptions {
  /// Channel bound forwarded to NetworkBuilder: construction beyond this
  /// is refused (kUnimplemented through the pool, std::invalid_argument
  /// from the constructor) instead of compiling unboundedly large
  /// programs on demand.
  int max_channels = 4096;
};

/// The NetworkBuilder configuration McSorter derives from its options —
/// exposed so SorterPool can pre-run construction and report failures as
/// Status values instead of catching constructor exceptions.
[[nodiscard]] NetworkBuilderOptions builder_options(
    const McSorterOptions& opt) noexcept;

class McSorter {
 public:
  /// Builds the network; it compiles and elaborates nothing. Throws
  /// std::invalid_argument for a degenerate or unbuildable shape, and
  /// std::length_error when netlist() would have more nodes than NodeId
  /// can index (see elaborated_node_count).
  McSorter(int channels, std::size_t bits, const McSorterOptions& opt = {});

  /// Constructs from an already-built network (see NetworkBuilder) —
  /// skips re-running construction when the caller has validated the
  /// shape, e.g. the serving pool's Status-based path. `opt` only bounds
  /// construction, which is already done, so it is unused here.
  McSorter(BuiltNetwork built, std::size_t bits,
           const McSorterOptions& opt = {});

  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }

  /// The gate-level netlist of the network: one 2-sort(B) cell per
  /// comparator. It computes what the sorter serves, bit for bit, but is
  /// elaborated afresh on every call: a sorter keeps only its network.
  /// Bind the result to a local before iterating over it.
  [[nodiscard]] Netlist netlist() const;

  /// The comparator network, as the served engine holds it.
  [[nodiscard]] const ComparatorNetwork& network() const noexcept {
    return engine_.network();
  }

  /// The served engine: the serial scan over the network.
  [[nodiscard]] const CellNetworkEvaluator& engine() const noexcept {
    return engine_;
  }

  /// Gate-level report under the default (paper-calibrated) library.
  /// Elaborates the netlist to count it.
  [[nodiscard]] CircuitStats stats() const;

  [[nodiscard]] SortShape shape() const noexcept {
    return SortShape{channels_, bits_};
  }

  // --- primary (flat, Status-based) API -------------------------------------

  /// Sorts N rounds given as one flat contiguous buffer: `in` holds
  /// N x channels() x bits() trits (round-major, channel-major within a
  /// round) and the sorted rounds are written to `out` in the same layout.
  /// This is the zero-copy path the compiled engine consumes directly — no
  /// per-round repacking. `out` may be exactly `in` (same data and size)
  /// to sort in place (CellNetworkEvaluator::run_flat). Returns
  /// kInvalidArgument (and writes nothing) if in.size() is not a multiple
  /// of the round size, out.size() differs, or `out` partly overlaps `in`.
  ///
  /// Const and safe to call concurrently from multiple threads.
  [[nodiscard]] Status sort_batch_flat(std::span<const Trit> in,
                                       std::span<Trit> out) const;

  /// Sorts one SortRequest (one round or a batch) through the flat path.
  /// The response echoes the request's shape and round count, and carries
  /// kInvalidArgument (never throws) when the request is malformed or its
  /// shape differs from this sorter's.
  [[nodiscard]] SortResponse sort_request(const SortRequest& request) const;

  // --- legacy wrappers (thin shims over the flat path) ----------------------
  //
  // Each validates its rounds with the SortRequest factories (from_words /
  // from_values) and throws std::invalid_argument on a malformed round: a
  // wrong word count, a word of the wrong width, or a value that does not
  // fit in bits(). All are const and safe to call concurrently.

  /// Sorts one round of channels() B-bit words (valid strings, possibly
  /// metastable) with worst-case metastability semantics — a one-round
  /// sort_batch_flat.
  [[nodiscard]] std::vector<Word> sort(const std::vector<Word>& values) const;

  /// Convenience: encodes integers as Gray codewords and sorts. Also
  /// throws std::invalid_argument when bits() > 64 (values are uint64_t;
  /// use the trit-based API for wider words).
  [[nodiscard]] std::vector<std::uint64_t> sort_values(
      const std::vector<std::uint64_t>& values) const;

  /// Sorts many measurement rounds in one pass through the served engine
  /// (256-lane packing; several groups shard, see CellNetworkEvaluator).
  /// Each round is a vector of channels() B-bit words; results come back
  /// round-aligned. Flattens once into a contiguous buffer for
  /// sort_batch_flat, then splits the flat results back into Words.
  [[nodiscard]] std::vector<std::vector<Word>> sort_batch(
      const std::vector<std::vector<Word>>& rounds) const;

  /// Batch variant of sort_values: each round is a vector of channels()
  /// integers, Gray-encoded/decoded transparently.
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> sort_values_batch(
      const std::vector<std::vector<std::uint64_t>>& rounds) const;

 private:
  int channels_;
  std::size_t bits_;
  CellNetworkEvaluator engine_;
};

}  // namespace mcsn
