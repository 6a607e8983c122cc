#pragma once
// Comparator (sorting) networks: layered representation, the zero-one
// principle verifier, and software application of a network to values.
//
// Convention: a comparator (lo, hi) with lo < hi routes the minimum to
// channel lo and the maximum to channel hi, i.e. networks sort ascending
// from channel 0 upward.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcsn {

struct Comparator {
  int lo = 0;
  int hi = 0;
  friend bool operator==(const Comparator&, const Comparator&) = default;
};

class ComparatorNetwork {
 public:
  ComparatorNetwork() = default;
  ComparatorNetwork(std::string name, int channels,
                    std::vector<std::vector<Comparator>> layers)
      : name_(std::move(name)),
        channels_(channels),
        layers_(std::move(layers)) {}

  /// Builds a layered network from a flat comparator sequence with greedy
  /// ASAP layering (a comparator joins the earliest layer after the last
  /// layer touching either of its channels). Within a layer, comparators
  /// keep their sequence order.
  [[nodiscard]] static ComparatorNetwork from_flat(
      std::string name, int channels, const std::vector<Comparator>& seq);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] const std::vector<std::vector<Comparator>>& layers()
      const noexcept {
    return layers_;
  }

  /// Total number of comparators.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Number of layers (the network's depth).
  [[nodiscard]] std::size_t depth() const noexcept { return layers_.size(); }

  /// All comparators in layer order.
  [[nodiscard]] std::vector<Comparator> flattened() const;

  /// Channels in range, lo < hi, and no channel used twice within a layer.
  [[nodiscard]] bool well_formed() const;

  /// Applies the network to a vector of values under `less` (stable sort
  /// semantics per comparator: swap iff v[hi] < v[lo]).
  template <typename T, typename Less = std::less<T>>
  void apply(std::vector<T>& v, Less less = {}) const {
    for (const auto& layer : layers_) {
      for (const Comparator& c : layer) {
        if (less(v[c.hi], v[c.lo])) std::swap(v[c.lo], v[c.hi]);
      }
    }
  }

  /// Applies the network to a binary vector packed in the low `channels()`
  /// bits of `mask` (bit c = channel c); min = AND, max = OR.
  [[nodiscard]] std::uint32_t apply_mask(std::uint32_t mask) const noexcept;

  /// Zero-one principle: the network sorts everything iff it sorts all 2^n
  /// binary vectors. Guarded to channels <= 24.
  [[nodiscard]] bool sorts_all_binary() const;

  /// Merge variant of the 0-1 principle: true iff every binary input whose
  /// first `split` channels and remaining channels are each sorted comes out
  /// fully sorted (checks a merging network).
  [[nodiscard]] bool merges_sorted_halves(int split) const;

  /// Number of binary inputs (out of 2^n) the network fails to sort —
  /// the fitness used by the synthesizer. 0 iff sorting network.
  [[nodiscard]] std::size_t count_unsorted_binary() const;

 private:
  std::string name_;
  int channels_ = 0;
  std::vector<std::vector<Comparator>> layers_;
};

/// True iff mask (low n bits) is sorted ascending, i.e. of the form
/// 0^(n-k) 1^k reading from channel 0 up == all set bits at the top.
[[nodiscard]] constexpr bool mask_sorted(std::uint32_t mask,
                                         int channels) noexcept {
  const int k = __builtin_popcount(mask);
  const std::uint32_t expect =
      k == 0 ? 0u : (((std::uint32_t{1} << k) - 1) << (channels - k));
  return mask == expect;
}

std::ostream& operator<<(std::ostream& os, const ComparatorNetwork& net);

}  // namespace mcsn
