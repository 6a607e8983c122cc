#include "mcsn/sorter.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcsn {

namespace {

int checked_shape(int channels, std::size_t bits) {
  if (channels < 1 || bits < 1) {
    throw std::invalid_argument("McSorter: channels and bits must be >= 1");
  }
  return channels;
}

BuiltNetwork build_or_throw(int channels, std::size_t bits,
                            const McSorterOptions& opt) {
  checked_shape(channels, bits);
  StatusOr<BuiltNetwork> built = NetworkBuilder(builder_options(opt))
                                     .build(channels);
  if (!built.ok()) {
    throw std::invalid_argument("McSorter: " + built.status().to_string());
  }
  return std::move(*built);
}

// The served engine over `net`. Refuses first, with std::length_error, a
// shape whose netlist() NodeId could not index (elaborated_node_count).
CellNetworkEvaluator served_engine(ComparatorNetwork net, std::size_t bits) {
  elaborated_node_count(net, bits,
                        sort2_gate_count(bits, kServedSort2.topology));
  return CellNetworkEvaluator(bits, std::move(net));
}

std::string shape_str(SortShape s) {
  return std::to_string(s.channels) + "x" + std::to_string(s.bits);
}

Status shape_mismatch(SortShape got, SortShape sorter) {
  return Status::invalid_argument("request shape " + shape_str(got) +
                                  " does not match sorter " +
                                  shape_str(sorter));
}

// The legacy wrappers' documented failure: a non-OK Status becomes
// std::invalid_argument naming the entry point.
void throw_if_error(const Status& s, const char* where) {
  if (!s.ok()) {
    throw std::invalid_argument(std::string("McSorter::") + where + ": " +
                                s.to_string());
  }
}

// Validates each legacy round with `factory` (a SortRequest factory, so
// the wrappers share the checks SortService's make), flattens them and
// sorts them in one sort_batch_flat. Returns the flat sorted payload.
template <class Round, class Factory>
std::vector<Trit> sort_rounds(const McSorter& sorter,
                              std::span<const Round> rounds, Factory factory,
                              const char* where) {
  const SortShape shape = sorter.shape();
  std::vector<Trit> flat;
  flat.reserve(rounds.size() * shape.trits());
  for (const Round& round : rounds) {
    const StatusOr<SortRequest> request = factory(round);
    throw_if_error(request.status(), where);
    if (request->shape != shape) {
      throw_if_error(shape_mismatch(request->shape, shape), where);
    }
    flat.insert(flat.end(), request->payload.begin(), request->payload.end());
  }
  throw_if_error(sorter.sort_batch_flat(flat, flat), where);
  return flat;
}

std::vector<std::uint64_t> to_values(SortShape shape,
                                     std::span<const Trit> flat,
                                     const char* where) {
  if (flat.empty()) return {};
  StatusOr<std::vector<std::uint64_t>> values = decode_flat_values(shape, flat);
  throw_if_error(values.status(), where);
  return std::move(values).value();
}

// Splits `items` into consecutive rounds of `per_round` elements.
template <class T>
std::vector<std::vector<T>> to_rounds(const std::vector<T>& items,
                                      std::size_t per_round) {
  std::vector<std::vector<T>> rounds(items.size() / per_round);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto first =
        items.begin() + static_cast<std::ptrdiff_t>(r * per_round);
    rounds[r].assign(first, first + static_cast<std::ptrdiff_t>(per_round));
  }
  return rounds;
}

const auto words_request = [](const std::vector<Word>& round) {
  return SortRequest::from_words(round);
};

auto values_request(SortShape shape) {
  return [shape](const std::vector<std::uint64_t>& round) {
    return SortRequest::from_values(shape, round);
  };
}

}  // namespace

NetworkBuilderOptions builder_options(const McSorterOptions& opt) noexcept {
  return NetworkBuilderOptions{opt.max_channels};
}

McSorter::McSorter(int channels, std::size_t bits, const McSorterOptions& opt)
    : McSorter(build_or_throw(channels, bits, opt), bits, opt) {}

McSorter::McSorter(BuiltNetwork built, std::size_t bits,
                   const McSorterOptions& /*opt*/)
    : channels_(checked_shape(built.network.channels(), bits)),
      bits_(bits),
      engine_(served_engine(std::move(built.network), bits)) {}

Netlist McSorter::netlist() const {
  return elaborate_network(network(), bits_, sort2_builder(kServedSort2));
}

CircuitStats McSorter::stats() const { return compute_stats(netlist()); }

Status McSorter::sort_batch_flat(std::span<const Trit> in,
                                 std::span<Trit> out) const {
  const std::size_t round_trits = static_cast<std::size_t>(channels_) * bits_;
  if (round_trits == 0 || in.size() % round_trits != 0) {
    return Status::invalid_argument(
        "flat payload of " + std::to_string(in.size()) +
        " trits is not a whole number of " + shape_str(shape()) + " rounds");
  }
  if (out.size() != in.size()) {
    return Status::invalid_argument(
        "output buffer of " + std::to_string(out.size()) +
        " trits does not match input of " + std::to_string(in.size()));
  }
  if (partial_overlap(in, out)) {
    return Status::invalid_argument(
        "output buffer partly overlaps the input; pass the input itself to "
        "sort in place");
  }
  engine_.run_flat(in, out);
  return Status();
}

SortResponse McSorter::sort_request(const SortRequest& request) const {
  SortResponse response;
  response.shape = request.shape;
  response.rounds = std::max<std::size_t>(request.rounds, 1);
  response.values_requested = request.values_requested;
  if (Status s = request.validate(); !s.ok()) {
    response.status = std::move(s);
    return response;
  }
  if (request.shape != shape()) {
    response.status = shape_mismatch(request.shape, shape());
    return response;
  }
  response.payload.assign(request.payload.begin(), request.payload.end());
  response.status = sort_batch_flat(response.payload, response.payload);
  if (!response.status.ok()) response.payload.clear();
  return response;
}

std::vector<Word> McSorter::sort(const std::vector<Word>& values) const {
  const std::vector<Trit> sorted =
      sort_rounds(*this, std::span(&values, 1), words_request, "sort");
  return split_words(sorted, bits_);
}

std::vector<std::uint64_t> McSorter::sort_values(
    const std::vector<std::uint64_t>& values) const {
  const std::vector<Trit> sorted = sort_rounds(
      *this, std::span(&values, 1), values_request(shape()), "sort_values");
  return to_values(shape(), sorted, "sort_values");
}

std::vector<std::vector<Word>> McSorter::sort_batch(
    const std::vector<std::vector<Word>>& rounds) const {
  const std::vector<Trit> sorted =
      sort_rounds(*this, std::span(rounds), words_request, "sort_batch");
  return to_rounds(split_words(sorted, bits_),
                   static_cast<std::size_t>(channels_));
}

std::vector<std::vector<std::uint64_t>> McSorter::sort_values_batch(
    const std::vector<std::vector<std::uint64_t>>& rounds) const {
  const std::vector<Trit> sorted =
      sort_rounds(*this, std::span(rounds), values_request(shape()),
                  "sort_values_batch");
  return to_rounds(to_values(shape(), sorted, "sort_values_batch"),
                   static_cast<std::size_t>(channels_));
}

}  // namespace mcsn
