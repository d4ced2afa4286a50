// The advisor server's warm model cache: LRU order and eviction,
// hit/miss/coalesced/eviction accounting, and the single-flight
// claim/publish protocol that collapses a thundering herd on a cold key
// into one fit.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/contention_model.hpp"
#include "serve/model_cache.hpp"
#include "topology/presets.hpp"

namespace occm::serve {
namespace {

model::ContentionModel someModel() {
  model::MachineShape shape;
  shape.coresPerProcessor = 12;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const model::MeasuredPoint measured[] = {
      {1, 4.10e11},
      {2, 4.35e11},
      {12, 9.80e11},
      {13, 9.15e11},
  };
  return model::ContentionModel::tryFit(shape, measured).value();
}

ModelKey key(const std::string& program) {
  return ModelKey{program, "S", "test-numa4"};
}

TEST(ModelCache, MissThenPublishThenHit) {
  ModelCache cache(2);
  EXPECT_FALSE(cache.lookup(key("EP")).has_value());
  EXPECT_TRUE(cache.beginFit(key("EP")));
  cache.completeFit(key("EP"), /*success=*/true, someModel());
  const auto hit = cache.lookup(key("EP"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->measuredC1(), 0.0);

  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelCache, LookupWhileFitInFlightIsNeitherHitNorMiss) {
  // The herd parking on an in-flight fit is not a miss storm: only the
  // first cold lookup counts a miss, later arrivals count coalesced.
  ModelCache cache(2);
  (void)cache.lookup(key("EP"));        // miss 1
  ASSERT_TRUE(cache.beginFit(key("EP")));
  (void)cache.lookup(key("EP"));        // in flight: no stat
  (void)cache.lookup(key("EP"));        // in flight: no stat
  EXPECT_FALSE(cache.beginFit(key("EP")));  // coalesced 1
  EXPECT_FALSE(cache.beginFit(key("EP")));  // coalesced 2

  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.coalesced, 2u);
}

TEST(ModelCache, LruEvictsLeastRecentlyUsed) {
  ModelCache cache(2);
  const auto insert = [&](const std::string& program) {
    ASSERT_TRUE(cache.beginFit(key(program)));
    cache.completeFit(key(program), true, someModel());
  };
  insert("EP");
  insert("CG");
  // Touch EP so CG becomes the LRU tail, then insert a third key.
  ASSERT_TRUE(cache.lookup(key("EP")).has_value());
  insert("FT");

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(key("EP")).has_value());
  EXPECT_TRUE(cache.lookup(key("FT")).has_value());
  EXPECT_FALSE(cache.lookup(key("CG")).has_value());  // evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ModelCache, FailedFitReleasesClaimForRetry) {
  // A transient measurement failure must not poison the key forever: the
  // claim clears, nothing is cached, and the next request re-fits.
  ModelCache cache(2);
  ASSERT_TRUE(cache.beginFit(key("EP")));
  cache.completeFit(key("EP"), /*success=*/false, someModel());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key("EP")).has_value());  // miss again
  EXPECT_TRUE(cache.beginFit(key("EP")));             // retry owns the fit
  cache.completeFit(key("EP"), true, someModel());
  EXPECT_TRUE(cache.lookup(key("EP")).has_value());
}

TEST(ModelCache, DistinctKeysDoNotCollide) {
  ModelCache cache(4);
  // Same program, different class/machine: distinct identities.
  const ModelKey a{"EP", "S", "test-numa4"};
  const ModelKey b{"EP", "A", "test-numa4"};
  const ModelKey c{"EP", "S", "test-uma4"};
  ASSERT_TRUE(cache.beginFit(a));
  cache.completeFit(a, true, someModel());
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_FALSE(cache.lookup(c).has_value());
}

TEST(ModelCache, ConcurrentHerdFitsOnce) {
  // N threads race lookup -> beginFit on one cold key: exactly one wins
  // the claim, everyone else coalesces. Run under TSan this also proves
  // the lock discipline.
  ModelCache cache(2);
  constexpr int kThreads = 8;
  std::atomic<int> owners{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &owners] {
      if (!cache.lookup(key("EP")).has_value() && cache.beginFit(key("EP"))) {
        owners.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(owners.load(), 1);
  const ModelCacheStats stats = cache.stats();
  // Several threads may look up before the winner claims the fit, so the
  // miss count is racy within [1, kThreads]; the single claim is not.
  EXPECT_GE(stats.misses, 1u);
  EXPECT_LE(stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kThreads - 1));
  cache.completeFit(key("EP"), true, someModel());
  EXPECT_TRUE(cache.lookup(key("EP")).has_value());
}

}  // namespace
}  // namespace occm::serve
