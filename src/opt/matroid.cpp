#include "src/opt/matroid.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace hipo::opt {

PartitionMatroid::PartitionMatroid(std::vector<std::size_t> part_of,
                                   std::vector<std::size_t> capacities)
    : part_of_(std::move(part_of)), capacities_(std::move(capacities)) {
  part_sizes_.assign(capacities_.size(), 0);
  for (std::size_t p : part_of_) {
    HIPO_REQUIRE(p < capacities_.size(), "part index out of range");
    ++part_sizes_[p];
  }
}

std::size_t PartitionMatroid::part_of(std::size_t i) const {
  HIPO_ASSERT(i < part_of_.size());
  return part_of_[i];
}

std::size_t PartitionMatroid::capacity(std::size_t p) const {
  HIPO_ASSERT(p < capacities_.size());
  return capacities_[p];
}

bool PartitionMatroid::independent(std::span<const std::size_t> set) const {
  std::vector<std::size_t> used(capacities_.size(), 0);
  for (std::size_t i : set) {
    HIPO_ASSERT(i < part_of_.size());
    if (++used[part_of_[i]] > capacities_[part_of_[i]]) return false;
  }
  return true;
}

std::size_t PartitionMatroid::rank() const {
  std::size_t r = 0;
  for (std::size_t p = 0; p < capacities_.size(); ++p) {
    r += std::min(capacities_[p], part_sizes_[p]);
  }
  return r;
}

PartitionMatroid::Tracker::Tracker(const PartitionMatroid& matroid)
    : matroid_(&matroid), used_(matroid.num_parts(), 0) {}

bool PartitionMatroid::Tracker::can_add(std::size_t i) const {
  const std::size_t p = matroid_->part_of(i);
  return used_[p] < matroid_->capacity(p);
}

void PartitionMatroid::Tracker::add(std::size_t i) {
  HIPO_ASSERT_MSG(can_add(i), "matroid capacity exceeded");
  ++used_[matroid_->part_of(i)];
  ++size_;
}

}  // namespace hipo::opt
