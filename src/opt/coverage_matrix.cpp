#include "src/opt/coverage_matrix.hpp"

#include <cstring>
#include <limits>

#include "src/util/error.hpp"

namespace hipo::opt {

CoverageMatrix::CoverageMatrix(std::span<const pdcs::Candidate> candidates,
                               std::size_t num_devices) {
  std::vector<const pdcs::Candidate*> ptrs;
  ptrs.reserve(candidates.size());
  for (const auto& c : candidates) ptrs.push_back(&c);
  build(ptrs, num_devices);
}

CoverageMatrix::CoverageMatrix(
    std::span<const pdcs::Candidate* const> candidates,
    std::size_t num_devices) {
  build(candidates, num_devices);
}

void CoverageMatrix::build(std::span<const pdcs::Candidate* const> candidates,
                           std::size_t num_devices) {
  std::size_t nnz = 0;
  for (const auto* c : candidates) {
    HIPO_ASSERT(c != nullptr);
    nnz += c->covered.size();
  }
  HIPO_REQUIRE(nnz <= std::numeric_limits<std::uint32_t>::max(),
               "coverage matrix exceeds u32 entry capacity");
  // Device ids are stored as u32 and kept below 2^31, so every id is also
  // a valid signed 32-bit index. Far above any realistic scenario, but
  // enforced rather than assumed.
  HIPO_REQUIRE(num_devices < (std::size_t{1} << 31),
               "coverage matrix device count exceeds 2^31");

  row_start_.assign(1, 0);
  row_start_.reserve(candidates.size() + 1);
  device_arena_.clear();
  device_arena_.reserve(nnz);
  power_arena_.clear();
  power_arena_.reserve(nnz);
  row_strategy_.clear();
  row_strategy_.reserve(candidates.size());
  for (const auto* c : candidates) {
    HIPO_ASSERT(c->covered.size() == c->powers.size());
    for (std::size_t k = 0; k < c->covered.size(); ++k) {
      const std::size_t j = c->covered[k];
      HIPO_ASSERT(j < num_devices);
      device_arena_.push_back(static_cast<std::uint32_t>(j));
      power_arena_.push_back(c->powers[k]);
    }
    row_start_.push_back(static_cast<std::uint32_t>(device_arena_.size()));
    row_strategy_.push_back(c->strategy);
  }
  build_inverted_index(num_devices);
}

void CoverageMatrix::build_inverted_index(std::size_t num_devices) {
  const std::size_t nnz = device_arena_.size();
  std::vector<std::uint32_t> dev_count(num_devices, 0);
  for (std::uint32_t j : device_arena_) {
    HIPO_ASSERT(j < num_devices);
    ++dev_count[j];
  }
  dev_start_.assign(num_devices + 1, 0);
  for (std::size_t j = 0; j < num_devices; ++j) {
    dev_start_[j + 1] = dev_start_[j] + dev_count[j];
  }
  dev_rows_.resize(nnz);
  // Rows are visited ascending, so each device's row list comes out
  // ascending — the order the dirty sweep and the dominance filter rely on.
  std::vector<std::uint32_t> fill(dev_start_.begin(), dev_start_.end() - 1);
  for (std::size_t i = 0; i + 1 < row_start_.size(); ++i) {
    for (std::uint32_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
      dev_rows_[fill[device_arena_[e]]++] = static_cast<std::uint32_t>(i);
    }
  }
}

bool CoverageMatrix::same_as(const CoverageMatrix& other) const {
  if (row_start_ != other.row_start_ || dev_start_ != other.dev_start_ ||
      dev_rows_ != other.dev_rows_) {
    return false;
  }
  if (device_arena_.size() != other.device_arena_.size()) return false;
  // An empty arena may have a null data(), which memcmp must not see.
  if (!device_arena_.empty() &&
      std::memcmp(device_arena_.data(), other.device_arena_.data(),
                  device_arena_.size() * sizeof(std::uint32_t)) != 0) {
    return false;
  }
  // Powers compared bitwise (memcmp), not numerically: the delta contract
  // is bit-identity, and -0.0 == 0.0 must not mask a divergence.
  if (!power_arena_.empty() &&
      std::memcmp(power_arena_.data(), other.power_arena_.data(),
                  power_arena_.size() * sizeof(double)) != 0) {
    return false;
  }
  if (row_strategy_.size() != other.row_strategy_.size()) return false;
  for (std::size_t i = 0; i < row_strategy_.size(); ++i) {
    const model::Strategy& a = row_strategy_[i];
    const model::Strategy& b = other.row_strategy_[i];
    if (std::memcmp(&a.pos, &b.pos, sizeof(a.pos)) != 0 ||
        std::memcmp(&a.orientation, &b.orientation,
                    sizeof(a.orientation)) != 0 ||
        a.type != b.type) {
      return false;
    }
  }
  return true;
}

}  // namespace hipo::opt
