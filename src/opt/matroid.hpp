// Partition matroid (Definition 4.7): the ground set (candidate strategies)
// is partitioned by charger type; a set is independent iff it takes at most
// N^q_s elements from part q.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hipo::opt {

class PartitionMatroid {
 public:
  /// part_of[i] = part index of ground element i; capacities[p] = bound of
  /// part p.
  PartitionMatroid(std::vector<std::size_t> part_of,
                   std::vector<std::size_t> capacities);

  std::size_t ground_size() const { return part_of_.size(); }
  std::size_t num_parts() const { return capacities_.size(); }
  std::size_t part_of(std::size_t i) const;
  std::size_t capacity(std::size_t p) const;

  /// Independence test for an explicit index set.
  bool independent(std::span<const std::size_t> set) const;

  /// Matroid rank: Σ_p min(capacity_p, |part_p|).
  std::size_t rank() const;

  /// Incremental feasibility tracker used by the greedy algorithms.
  class Tracker {
   public:
    explicit Tracker(const PartitionMatroid& matroid);
    bool can_add(std::size_t i) const;
    void add(std::size_t i);
    std::size_t size() const { return size_; }

   private:
    const PartitionMatroid* matroid_;
    std::vector<std::size_t> used_;
    std::size_t size_ = 0;
  };

 private:
  std::vector<std::size_t> part_of_;
  std::vector<std::size_t> capacities_;
  std::vector<std::size_t> part_sizes_;
};

}  // namespace hipo::opt
