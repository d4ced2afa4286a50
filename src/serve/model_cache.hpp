#pragma once

// Warm LRU cache of fitted contention models keyed by
// (workload, topology), with single-flight fitting: a thundering herd on
// a cold key fits once — the first requester claims the fit, everyone
// else parks until completeFit publishes the result.
//
// The claim/publish split (beginFit / completeFit) instead of a blocking
// getOrFit exists because the owner is a single-threaded poll loop: the
// loop must never block on a fit, it parks the request and resumes it
// from the fit job's completion event. Fit jobs run on pool threads but
// never touch the cache: they post a completion, and the loop publishes
// it (completeFit) from its own thread. The mutex keeps the class safe
// for an owner that does share it across threads.

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/contention_model.hpp"

namespace occm::serve {

/// Cache key: the workload/topology identity a fitted model answers for.
struct ModelKey {
  std::string program;
  std::string problemClass;
  std::string machine;

  [[nodiscard]] std::string str() const {
    return program + "." + problemClass + "@" + machine;
  }
  [[nodiscard]] bool operator==(const ModelKey&) const = default;
};

struct ModelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Requests that found a fit already in flight and parked on it
  /// (thundering-herd arrivals coalesced into one fit).
  std::uint64_t coalesced = 0;
};

/// Thread-safe LRU + single-flight registry of fitted models. Only
/// successful fits are cached; a failed fit clears the in-flight claim so
/// the next request retries (a transient measurement failure must not
/// poison the key forever).
class ModelCache {
 public:
  explicit ModelCache(std::size_t capacity) : capacity_(capacity) {}

  /// Cached model for the key, refreshing its LRU position. Counts a hit
  /// or (when absent and no fit is in flight) a miss.
  [[nodiscard]] std::optional<model::ContentionModel> lookup(
      const ModelKey& key);

  /// Claims the fit for a cold key. Returns true when the caller must run
  /// the fit (and later completeFit); false when a fit is already in
  /// flight — the caller parks and waits for the owner's completion.
  [[nodiscard]] bool beginFit(const ModelKey& key);

  /// Publishes a finished fit and releases the in-flight claim. With
  /// success == true the model is inserted (evicting the LRU tail beyond
  /// capacity); with false the claim is simply dropped.
  void completeFit(const ModelKey& key, bool success,
                   const model::ContentionModel& model);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] ModelCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    model::ContentionModel model;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// MRU at the front; iterators stay valid across splice.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::unordered_set<std::string> inFlight_;
  ModelCacheStats stats_;
};

}  // namespace occm::serve
