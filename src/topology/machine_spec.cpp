#include "topology/machine_spec.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace occm::topology {

const CacheLevelSpec& MachineSpec::lastLevelCache() const {
  OCCM_REQUIRE_MSG(!caches.empty(), "machine has no caches");
  return *std::max_element(
      caches.begin(), caches.end(),
      [](const CacheLevelSpec& a, const CacheLevelSpec& b) {
        return a.level < b.level;
      });
}

void MachineSpec::validate() const {
  OCCM_REQUIRE_MSG(!name.empty(), "machine needs a name");
  OCCM_REQUIRE_MSG(clockGhz > 0.0, "clock must be positive");
  OCCM_REQUIRE_MSG(sockets >= 1 && diesPerSocket >= 1 && coresPerDie >= 1 &&
                       smtPerCore >= 1,
                   "hierarchy counts must be >= 1");
  OCCM_REQUIRE_MSG(!caches.empty(), "machine needs at least one cache level");
  OCCM_REQUIRE_MSG(channelsPerController >= 1, "need at least one channel");
  OCCM_REQUIRE_MSG(rowHitServiceCycles > 0, "row-hit service must be > 0");
  OCCM_REQUIRE_MSG(rowMissServiceCycles >= rowHitServiceCycles,
                   "row miss cannot be cheaper than a row hit");
  OCCM_REQUIRE_MSG(rowBytes > 0 && (rowBytes & (rowBytes - 1)) == 0,
                   "row size must be a power of two");
  OCCM_REQUIRE_MSG(banksPerChannel >= 1, "need at least one bank");
  OCCM_REQUIRE_MSG(corePerMlp >= 1, "MLP must be >= 1");
  OCCM_REQUIRE_MSG(prefetchMlp >= 1, "prefetch MLP must be >= 1");
  OCCM_REQUIRE_MSG(pageSize > 0 && (pageSize & (pageSize - 1)) == 0,
                   "page size must be a power of two");

  int lastLevel = 0;
  for (const CacheLevelSpec& c : caches) {
    OCCM_REQUIRE_MSG(c.level == lastLevel + 1,
                     "cache levels must be consecutive starting at 1");
    lastLevel = c.level;
    OCCM_REQUIRE_MSG(c.lineSize > 0 && (c.lineSize & (c.lineSize - 1)) == 0,
                     "line size must be a power of two");
    OCCM_REQUIRE_MSG(c.size % c.lineSize == 0, "size must be a line multiple");
    OCCM_REQUIRE_MSG(c.associativity >= 1 && c.associativity <= 16,
                     "associativity must be 1..16 (a 4-bit recency rank "
                     "per way)");
    OCCM_REQUIRE_MSG((c.size / c.lineSize) % c.associativity == 0,
                     "lines must divide into whole sets");
    OCCM_REQUIRE_MSG(c.lineSize == caches.front().lineSize,
                     "all levels must share one line size");
  }

  if (memoryArchitecture == MemoryArchitecture::kUma) {
    OCCM_REQUIRE_MSG(controllerScope == ControllerScope::kMachine,
                     "UMA uses a single machine-scope controller pool");
    OCCM_REQUIRE_MSG(hopMatrix.empty(), "UMA has no hop matrix");
  } else {
    OCCM_REQUIRE_MSG(controllerScope != ControllerScope::kMachine,
                     "NUMA controllers must be per-socket or per-die");
    const auto n = static_cast<std::size_t>(controllers());
    OCCM_REQUIRE_MSG(hopMatrix.size() == n,
                     "hop matrix must be controllers x controllers");
    for (std::size_t i = 0; i < n; ++i) {
      OCCM_REQUIRE_MSG(hopMatrix[i].size() == n, "hop matrix must be square");
      OCCM_REQUIRE_MSG(hopMatrix[i][i] == 0, "hop matrix diagonal must be 0");
      for (std::size_t j = 0; j < n; ++j) {
        OCCM_REQUIRE_MSG(hopMatrix[i][j] == hopMatrix[j][i],
                         "hop matrix must be symmetric");
        OCCM_REQUIRE_MSG(hopMatrix[i][j] >= 0, "hops must be non-negative");
        OCCM_REQUIRE_MSG(i == j || hopMatrix[i][j] >= 1,
                         "distinct nodes must be at least one hop apart");
      }
    }
  }
}

}  // namespace occm::topology
