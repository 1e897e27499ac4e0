// Bounded LRU cache of warm scenario state — the artifact store that lets a
// repeat solve skip PDCS extraction entirely.
//
// Each entry wraps an opt::DeltaSolver, which is exactly "everything the
// pipeline builds before selection, kept warm": the Scenario (with its
// SegmentIndex and ring ladders), the per-device candidate outputs, the
// dominance-filtered pools, and the flat CSR CoverageMatrix. A cache-hit
// solve runs the warm select_strategies overload over the entry's matrix; a
// delta request routes through DeltaSolver::apply and the entry is re-keyed
// under the mutated scenario's content hash.
//
// Concurrency: the map itself is mutex-guarded; entries are shared_ptr so an
// eviction never invalidates a request already holding the entry. Each
// entry carries a shared_mutex — solves/evals take it shared (the warm
// matrix is read-only for them, and the greedy drivers build private
// state), deltas take it exclusive (they re-extract, re-pack the matrix
// and re-solve the entry).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "src/opt/delta.hpp"

namespace hipo::serve {

struct CacheEntry {
  explicit CacheEntry(opt::DeltaSolver s) : solver(std::move(s)) {}

  /// Solves/evals hold this shared; deltas hold it exclusive.
  std::shared_mutex mutex;
  opt::DeltaSolver solver;
  /// Cumulative deltas applied to this entry (stats surface).
  std::uint64_t deltas_applied = 0;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

/// LRU keyed by the canonical scenario hash key (16 hex chars). All methods
/// are thread-safe.
class ScenarioCache {
 public:
  /// `capacity` == 0 disables caching entirely (every lookup misses, every
  /// insert is dropped) — the degenerate configuration still serves
  /// correctly, just always cold.
  explicit ScenarioCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up and touch (move to MRU). Counts a hit or miss.
  std::shared_ptr<CacheEntry> find(const std::string& key);

  /// Insert (or replace) the entry for `key`, evicting LRU entries beyond
  /// capacity. Returns the entry actually stored (the argument, unless
  /// capacity is 0 — then it is returned unstored).
  std::shared_ptr<CacheEntry> insert(const std::string& key,
                                     std::shared_ptr<CacheEntry> entry);

  /// Move the entry stored under `old_key` to `new_key` (the delta re-key).
  /// No-op when `old_key` is absent (e.g. evicted mid-request).
  void rekey(const std::string& old_key, const std::string& new_key);

  CacheStats stats() const;

 private:
  void evict_overflow_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// MRU at the front.
  std::list<std::pair<std::string, std::shared_ptr<CacheEntry>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hipo::serve
