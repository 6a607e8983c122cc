#include "mcsn/nets/network.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <stdexcept>

namespace mcsn {

ComparatorNetwork ComparatorNetwork::from_flat(
    std::string name, int channels, const std::vector<Comparator>& seq) {
  // Pass 1 counts each layer's comparators; pass 2 repeats the assignment
  // and fills layers reserved at exactly those sizes, in sequence order.
  std::vector<std::uint32_t> busy_until(channels, 0);  // first free layer
  const auto assign = [&busy_until](const Comparator& c) {
    const std::uint32_t layer = std::max(busy_until[c.lo], busy_until[c.hi]);
    busy_until[c.lo] = layer + 1;
    busy_until[c.hi] = layer + 1;
    return layer;
  };
  std::vector<std::size_t> layer_size;
  for (const Comparator& c : seq) {
    const std::uint32_t layer = assign(c);
    if (layer == layer_size.size()) layer_size.push_back(0);
    ++layer_size[layer];
  }
  std::vector<std::vector<Comparator>> layers(layer_size.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    layers[l].reserve(layer_size[l]);
  }
  std::fill(busy_until.begin(), busy_until.end(), 0);
  for (const Comparator& c : seq) layers[assign(c)].push_back(c);
  return ComparatorNetwork(std::move(name), channels, std::move(layers));
}

std::size_t ComparatorNetwork::size() const noexcept {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.size();
  return n;
}

std::vector<Comparator> ComparatorNetwork::flattened() const {
  std::vector<Comparator> seq;
  seq.reserve(size());
  for (const auto& layer : layers_) {
    seq.insert(seq.end(), layer.begin(), layer.end());
  }
  return seq;
}

bool ComparatorNetwork::well_formed() const {
  // used[c] holds 1 + the index of the last layer that touched channel c.
  std::vector<std::size_t> used(
      static_cast<std::size_t>(std::max(channels_, 0)));
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (const Comparator& c : layers_[l]) {
      if (c.lo < 0 || c.hi >= channels_ || c.lo >= c.hi) return false;
      std::size_t& lo = used[static_cast<std::size_t>(c.lo)];
      std::size_t& hi = used[static_cast<std::size_t>(c.hi)];
      if (lo == l + 1 || hi == l + 1) return false;
      lo = l + 1;
      hi = l + 1;
    }
  }
  return true;
}

std::uint32_t ComparatorNetwork::apply_mask(std::uint32_t mask) const noexcept {
  for (const auto& layer : layers_) {
    for (const Comparator& c : layer) {
      const std::uint32_t lo_bit = (mask >> c.lo) & 1u;
      const std::uint32_t hi_bit = (mask >> c.hi) & 1u;
      // min(lo,hi) -> lo channel, max -> hi channel.
      const std::uint32_t mn = lo_bit & hi_bit;
      const std::uint32_t mx = lo_bit | hi_bit;
      mask &= ~((std::uint32_t{1} << c.lo) | (std::uint32_t{1} << c.hi));
      mask |= (mn << c.lo) | (mx << c.hi);
    }
  }
  return mask;
}

bool ComparatorNetwork::sorts_all_binary() const {
  return count_unsorted_binary() == 0;
}

bool ComparatorNetwork::merges_sorted_halves(int split) const {
  if (channels_ > 24) {
    throw std::length_error("merges_sorted_halves: too many channels");
  }
  const std::uint32_t total = std::uint32_t{1} << channels_;
  for (std::uint32_t m = 0; m < total; ++m) {
    const std::uint32_t lo = m & ((std::uint32_t{1} << split) - 1);
    const std::uint32_t hi = m >> split;
    if (!mask_sorted(lo, split) || !mask_sorted(hi, channels_ - split)) {
      continue;
    }
    if (!mask_sorted(apply_mask(m), channels_)) return false;
  }
  return true;
}

std::size_t ComparatorNetwork::count_unsorted_binary() const {
  if (channels_ > 24) {
    throw std::length_error("count_unsorted_binary: too many channels");
  }
  std::size_t bad = 0;
  const std::uint32_t total = std::uint32_t{1} << channels_;
  for (std::uint32_t m = 0; m < total; ++m) {
    if (!mask_sorted(apply_mask(m), channels_)) ++bad;
  }
  return bad;
}

std::ostream& operator<<(std::ostream& os, const ComparatorNetwork& net) {
  os << net.name() << " (n=" << net.channels() << ", size=" << net.size()
     << ", depth=" << net.depth() << ")\n";
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    os << "  L" << l + 1 << ":";
    for (const Comparator& c : net.layers()[l]) {
      os << " (" << c.lo << "," << c.hi << ")";
    }
    os << "\n";
  }
  return os;
}

}  // namespace mcsn
