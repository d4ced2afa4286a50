#include "cache/hierarchy.hpp"

#include "common/error.hpp"

namespace occm::cache {

CacheHierarchy::CacheHierarchy(const topology::TopologyMap& topo)
    : topo_(topo),
      directory_(topo.spec().logicalCores(),
                 topo.spec().caches.front().lineSize),
      lineSize_(topo.spec().caches.front().lineSize) {
  const auto& spec = topo.spec();
  levels_.reserve(spec.caches.size());
  for (const auto& levelSpec : spec.caches) {
    Level level;
    level.spec = levelSpec;
    const int instances = topo.cacheInstanceCount(levelSpec);
    level.instances.reserve(static_cast<std::size_t>(instances));
    for (int i = 0; i < instances; ++i) {
      level.instances.emplace_back(levelSpec.size, levelSpec.lineSize,
                                   levelSpec.associativity);
    }
    levels_.push_back(std::move(level));
    hitLatency_.push_back(levelSpec.hitLatency);
  }
  probes_.resize(levels_.size());
  // Resolve every (core, level) pair to its instance once; access() then
  // pays a single pointer load per level.
  const int cores = spec.logicalCores();
  corePath_.resize(static_cast<std::size_t>(cores) * levels_.size());
  for (CoreId core = 0; core < cores; ++core) {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const int inst = topo.cacheInstance(core, levels_[l].spec);
      corePath_[static_cast<std::size_t>(core) * levels_.size() + l] =
          &levels_[l].instances[static_cast<std::size_t>(inst)];
    }
  }
}

const CacheStats& CacheHierarchy::stats(int level, int instance) const {
  OCCM_REQUIRE(level >= 1 && level <= static_cast<int>(levels_.size()));
  const Level& l = levels_[static_cast<std::size_t>(level - 1)];
  OCCM_REQUIRE(instance >= 0 &&
               instance < static_cast<int>(l.instances.size()));
  return l.instances[static_cast<std::size_t>(instance)].stats();
}

std::uint64_t CacheHierarchy::llcMisses() const {
  const Level& llc = levels_.back();
  std::uint64_t total = 0;
  for (const SetAssocCache& inst : llc.instances) {
    total += inst.stats().misses;
  }
  return total;
}

void CacheHierarchy::flush() {
  for (Level& level : levels_) {
    for (SetAssocCache& inst : level.instances) {
      inst.flush();
    }
  }
  directory_.dropLines();
}

}  // namespace occm::cache
