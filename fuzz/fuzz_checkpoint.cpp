// Fuzzes SweepCheckpoint::parseChecked — the loader that re-ingests whatever a
// previous (possibly crashed) invocation left on disk. Arbitrary bytes
// must parse or be rejected, never crash; anything that parses must be a
// serialize/reparse fixed point.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "analysis/sweep_state.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using occm::analysis::SweepCheckpoint;
  const std::string text(reinterpret_cast<const char*>(data), size);

  const auto parsed = SweepCheckpoint::parseChecked(text);
  if (parsed.hasValue()) {
    const std::string json = parsed->toJson();
    const auto again = SweepCheckpoint::parseChecked(json);
    if (!again.hasValue() || again->toJson() != json) {
      std::abort();
    }
  }
  return 0;
}
