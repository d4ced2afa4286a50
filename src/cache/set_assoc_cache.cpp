#include "cache/set_assoc_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace occm::cache {

namespace {

/// log2 of a power of two.
unsigned log2Exact(Bytes v) noexcept {
  unsigned s = 0;
  while ((v & 1) == 0) {
    v >>= 1;
    ++s;
  }
  return s;
}

}  // namespace

SetAssocCache::SetAssocCache(Bytes size, Bytes lineSize, std::uint32_t ways)
    : lineSize_(lineSize), ways_(ways) {
  OCCM_REQUIRE_MSG(lineSize > 0 && (lineSize & (lineSize - 1)) == 0,
                   "line size must be a power of two");
  OCCM_REQUIRE_MSG(size % lineSize == 0, "size must be a line multiple");
  OCCM_REQUIRE_MSG(ways >= 1, "need at least one way");
  OCCM_REQUIRE_MSG(ways <= kRowBytes,
                   "the recency word and fingerprint row hold up to 16 ways");
  const Bytes lines = size / lineSize;
  OCCM_REQUIRE_MSG(lines % ways == 0, "lines must divide into whole sets");
  lineShift_ = log2Exact(lineSize);
  sets_ = static_cast<std::size_t>(lines / ways);
  setDiv_ = FastDiv(sets_);
  lruShift_ = 4 * (ways_ - 1);
  full_ = ways_ == 16 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (4 * ways_)) - 1;
  tags_.assign(sets_ * ways_, 0);
  fingerprints_.resize(sets_ * kRowBytes);
  dirty_.resize(sets_);
  order_.resize(sets_);
  flush();
}

void SetAssocCache::flush() {
  // A zero fingerprint marks a way invalid; its stale tag is never read.
  std::fill(fingerprints_.begin(), fingerprints_.end(), std::uint8_t{0});
  std::fill(dirty_.begin(), dirty_.end(), 0u);
  // Identity permutation: way w starts at rank w (all ways invalid, so
  // fills consume ways from the highest way downwards, the way an MRU
  // list fills its back slots first). Nibbles above the real ways are 0.
  std::fill(order_.begin(), order_.end(), 0xFEDCBA9876543210ULL & full_);
}

}  // namespace occm::cache
