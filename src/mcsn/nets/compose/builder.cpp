#include "mcsn/nets/compose/builder.hpp"

#include <string>

#include "mcsn/nets/compose/compose.hpp"

namespace mcsn {

StatusOr<BuiltNetwork> NetworkBuilder::build(int channels) const {
  if (channels < 1) {
    return Status::invalid_argument(
        "NetworkBuilder: channels must be >= 1 (got " +
        std::to_string(channels) + ")");
  }
  if (channels > opt_.max_channels) {
    return Status::unimplemented(
        "NetworkBuilder: " + std::to_string(channels) +
        " channels exceeds the configured construction bound of " +
        std::to_string(opt_.max_channels) +
        " (raise max_channels to serve this shape)");
  }
  // The composition is never larger or deeper than ppc_sort_network under
  // ladner_fischer or sklansky (compose_test pins this up to 4096), so no
  // other route is built for comparison.
  return BuiltNetwork{composed_sort_network(channels, /*prefer_depth=*/false)};
}

}  // namespace mcsn
