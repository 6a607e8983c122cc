#pragma once
// NetworkBuilder — the one entry point for "give me an MC sorting network
// for n channels". Every shape takes one route: the optimal catalog for
// n <= 10 and the recursive odd-even composition over catalog leaves
// beyond (compose.hpp). The served engine pays per comparator, not per
// layer, so the builder picks the 29-comparator size-optimal 10-channel
// leaf. Unsupported or invalid shapes come back as StatusOr instead of
// exceptions, so the serve path can turn them into wire-visible error
// frames.

#include "mcsn/api/status.hpp"
#include "mcsn/nets/network.hpp"

namespace mcsn {

struct BuiltNetwork {
  ComparatorNetwork network;
};

struct NetworkBuilderOptions {
  /// Shapes above this come back kUnimplemented instead of compiling a
  /// program with millions of gates on the serve path. Raise deliberately.
  int max_channels = 4096;
};

class NetworkBuilder {
 public:
  explicit NetworkBuilder(NetworkBuilderOptions opt = {}) : opt_(opt) {}

  /// A verified-construction network for `channels`, or:
  ///   kInvalidArgument — channels < 1
  ///   kUnimplemented   — channels > max_channels
  [[nodiscard]] StatusOr<BuiltNetwork> build(int channels) const;

 private:
  NetworkBuilderOptions opt_;
};

}  // namespace mcsn
