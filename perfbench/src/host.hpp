#pragma once

// The host header every benchmark result carries: where and how the
// numbers were made, so a result from a 1-thread host or an unoptimized
// build cannot pass for anything else.

#include <string>

namespace perfbench {

struct HostInfo {
  int nproc = 0;           ///< CPUs this process may run on
  std::string cpuModel;    ///< CPU brand string
  std::string compiler;
  std::string buildType;   ///< CMAKE_BUILD_TYPE of the benchmark build
  bool optimized = false;  ///< compiled with optimization and NDEBUG
  bool obsEnabled = false;       ///< OCCM_ENABLE_OBS
  bool assertsDisabled = false;  ///< OCCM_DISABLE_ASSERTS
};

[[nodiscard]] HostInfo describeHost();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMib();

}  // namespace perfbench
