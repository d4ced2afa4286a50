#pragma once

// Test support: offline analysis of reference streams, used to characterise
// and test the workload generators: reference counts, working-set size
// (distinct cache lines), stride distribution and shared-data fraction.

#include <cstdint>
#include <map>

#include "common/types.hpp"
#include "trace/ref_stream.hpp"

namespace occm::trace {

struct StreamStats {
  std::uint64_t refs = 0;
  std::uint64_t writes = 0;
  std::uint64_t instructions = 0;
  Cycles workCycles = 0;
  /// Number of distinct cache lines touched (the working set in lines).
  std::uint64_t distinctLines = 0;
  /// Working set in bytes (distinctLines * lineSize).
  Bytes workingSetBytes = 0;
  /// References into the shared area (AddressSpace::isShared).
  std::uint64_t sharedRefs = 0;
  /// Histogram of successive-address deltas in bytes, capped to the most
  /// frequent 32 strides.
  std::map<std::int64_t, std::uint64_t> strides;

  [[nodiscard]] double writeFraction() const noexcept {
    return refs == 0 ? 0.0 : static_cast<double>(writes) /
                                 static_cast<double>(refs);
  }
  [[nodiscard]] double sharedFraction() const noexcept {
    return refs == 0 ? 0.0 : static_cast<double>(sharedRefs) /
                                 static_cast<double>(refs);
  }
  /// Mean work cycles between consecutive memory references.
  [[nodiscard]] double workPerRef() const noexcept {
    return refs == 0 ? 0.0 : static_cast<double>(workCycles) /
                                 static_cast<double>(refs);
  }
};

/// Drains up to `maxRefs` operations from the stream and summarises them.
/// The stream is left wherever draining stopped (call reset() to reuse).
[[nodiscard]] StreamStats analyzeStream(RefStream& stream,
                                        std::uint64_t maxRefs,
                                        Bytes lineSize = 64);

}  // namespace occm::trace
