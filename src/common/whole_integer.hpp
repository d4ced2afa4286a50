#pragma once

// The one rule for reading an integer out of user text — a CLI flag or an
// environment variable. strtol/atoi would skip a leading blank, take a
// '+', read "1e9" as 1 and clamp an overflow; this reads the whole text
// as a decimal integer in range, or nothing.

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace occm {

/// The whole text in decimal within [minValue, maxValue], or nullopt: no
/// blank or '+' in front, no exponent, no trailing junk, and a value too
/// large for Int is rejected rather than clamped.
template <typename Int>
[[nodiscard]] std::optional<Int> wholeInteger(std::string_view text,
                                              Int minValue, Int maxValue) {
  Int value = 0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || value < minValue ||
      value > maxValue) {
    return std::nullopt;
  }
  return value;
}

}  // namespace occm
