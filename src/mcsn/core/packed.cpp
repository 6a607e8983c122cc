#include "mcsn/core/packed.hpp"

#include <cstddef>

namespace mcsn {

// packed.hpp is header-only; these checks anchor the translation unit and
// pin the planar layout the compiled engine's rail array relies on.
static_assert(sizeof(Rail256) == 32);
static_assert(sizeof(PackedTrit256) == 2 * sizeof(Rail256));
static_assert(offsetof(PackedTrit256, can1) == sizeof(Rail256));
static_assert(PackedTrit256::splat(Trit::meta).lane(255) == Trit::meta);

}  // namespace mcsn
