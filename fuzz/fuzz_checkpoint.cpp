// Fuzzes SweepCheckpoint::parseChecked — the loader that re-ingests whatever a
// previous (possibly crashed) invocation left on disk. Arbitrary bytes
// must parse or be rejected, never crash; anything that parses must
// re-encode to exactly the bytes it was parsed from.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "analysis/sweep_state.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using occm::analysis::SweepCheckpoint;
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  const auto parsed = SweepCheckpoint::parseChecked(bytes);
  if (parsed.hasValue() && parsed->encode() != bytes) {
    std::abort();
  }
  return 0;
}
