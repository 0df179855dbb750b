// Internals shared by the trace codecs (binary_io.cpp, spill_codec.cpp).
#pragma once

#include <cstdint>
#include <string_view>

#include "labmon/trace/block.hpp"
#include "labmon/util/expected.hpp"

namespace labmon::trace::detail {

/// Idle seconds -> centiseconds, the transform every trace codec applies
/// (LMTR1 ranges, LMSG2 columns, snapshot chunks). The probe emits two
/// decimals, so the value is exact and the decode-side `/100.0` is
/// bit-identical across codecs. The cast is guarded: non-finite or
/// out-of-range doubles (possible only from hostile inputs, never from the
/// probe) map to 0 instead of undefined behaviour.
[[nodiscard]] inline std::int64_t IdleCentiseconds(double idle_s) noexcept {
  const double cs = idle_s * 100.0 + 0.5;
  constexpr double kBound = 9.0e18;
  if (!(cs > -kBound && cs < kBound)) return 0;
  return static_cast<std::int64_t>(cs);
}

/// Parses a complete LMTR1 trace into `out` (columns, user table and
/// iteration rows; cleared first) and returns the header's machine count.
/// DeserializeTrace adopts the result into a TraceStore; the LMSG1 spill
/// codec moves it straight into a TraceBlock.
[[nodiscard]] util::Result<std::size_t> DecodeLmtr1(std::string_view bytes,
                                                    TraceBlock& out);

}  // namespace labmon::trace::detail
