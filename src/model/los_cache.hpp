// Per-device line-of-sight memoization for PDCS extraction.
//
// Line of sight depends only on the charger *position* and the device, and
// the same (position, device) pairs recur across the pair tasks of
// Algorithm 4: o_i's ring circles meet the same obstacle edges in every
// pair (i, j). LosCache memoizes the LOS verdict keyed on the charger
// position's exact bit pattern plus the device index, so every repeat is a
// hash lookup instead of a segment trace. Exact placement evaluation does
// not use the memo: Scenario::exact_powers traces each of its few covered
// pairs once, and the placement_utility wrappers here forward to it.
//
// Keys use the exact double bits (not a quantized grid): two positions that
// differ in any bit are cached separately (+0.0 and -0.0 included), so
// cached results are bit-identical to calling Scenario directly. Candidate
// positions are already deduplicated at ~1e-6 resolution upstream
// (PositionSink), which keeps the cache small. The memo is a flat
// open-addressing table (util::FlatMap): no per-entry allocation.
//
// Not thread-safe; create one per extraction task.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "src/model/scenario.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/util/flat_hash.hpp"

namespace hipo::model {

class LosCache {
 public:
  /// The scenario must outlive the cache.
  explicit LosCache(const Scenario& scenario) : scenario_(&scenario) {}

  LosCache(const LosCache&) = delete;
  LosCache& operator=(const LosCache&) = delete;

  /// Flushes this instance's hit/miss/entry tallies into the global obs
  /// counters (`los_cache.hits` / `.misses` / `.entries`) when metrics are
  /// enabled. Caches are short-lived (one per extraction task), so
  /// destructor flushing costs nothing on the query path.
  ~LosCache();

  const Scenario& scenario() const { return *scenario_; }

  /// Memoized Scenario::line_of_sight(charger_pos, device j's position).
  bool line_of_sight(geom::Vec2 charger_pos, std::size_t j);

  /// Drop-in equivalents of the Scenario physics queries (identical
  /// results, cached LOS).
  bool covers(const Strategy& s, std::size_t j);
  double exact_power(const Strategy& s, std::size_t j);
  double approx_power(const Strategy& s, std::size_t j);
  /// Scenario::placement_utility (the memo is not consulted).
  double placement_utility(std::span<const Strategy> placement);
  /// The same value; the pool is ignored — one charger-major pass over
  /// the device grid tests only ~8 pairs per charger, too little work to
  /// split.
  double placement_utility(std::span<const Strategy> placement,
                           parallel::ThreadPool* workers);

  std::size_t size() const { return cache_.size(); }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  struct Key {
    std::uint64_t x_bits;
    std::uint64_t y_bits;
    std::uint64_t device;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::uint64_t operator()(const Key& k) const {
      std::uint64_t h = k.x_bits * 0x9e3779b97f4a7c15ULL;
      h ^= k.y_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= k.device + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h;
    }
  };

  const Scenario* scenario_;
  util::FlatMap<Key, bool, KeyHash> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace hipo::model
