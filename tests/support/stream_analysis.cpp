#include "support/stream_analysis.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "trace/address_space.hpp"

namespace occm::trace {

StreamStats analyzeStream(RefStream& stream, std::uint64_t maxRefs,
                          Bytes lineSize) {
  OCCM_REQUIRE(lineSize > 0 && (lineSize & (lineSize - 1)) == 0);
  StreamStats stats;
  std::unordered_set<Addr> lines;
  std::map<std::int64_t, std::uint64_t> strides;
  Op op;
  bool havePrev = false;
  Addr prev = 0;
  while (stats.refs < maxRefs && stream.next(op)) {
    ++stats.refs;
    stats.writes += op.write ? 1u : 0u;
    stats.instructions += op.instructions;
    stats.workCycles += op.work;
    stats.sharedRefs += AddressSpace::isShared(op.addr) ? 1u : 0u;
    lines.insert(op.addr / lineSize);
    if (havePrev) {
      ++strides[static_cast<std::int64_t>(op.addr) -
                static_cast<std::int64_t>(prev)];
    }
    prev = op.addr;
    havePrev = true;
  }
  stats.distinctLines = lines.size();
  stats.workingSetBytes = stats.distinctLines * lineSize;

  // Keep only the 32 most frequent strides so the result stays small.
  std::vector<std::pair<std::int64_t, std::uint64_t>> sorted(strides.begin(),
                                                             strides.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (sorted.size() > 32) {
    sorted.resize(32);
  }
  for (const auto& [stride, count] : sorted) {
    stats.strides.emplace(stride, count);
  }
  return stats;
}

}  // namespace occm::trace
