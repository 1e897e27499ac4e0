// Flat CSR view of the candidate→device coverage structure.
//
// The selection pipeline is, at its core, weighted set coverage: every
// `pdcs::Candidate` is a row of a sparse incidence matrix whose columns are
// devices, with the ring-constant approximated power as the entry value.
// CoverageMatrix materializes that matrix once, after dominance filtering:
//
//   row_start_  : R+1 offsets            ┌ device_arena_ (u32 device ids)
//   row i  ─────────────────────────────▶│ d0 d1 d2 … |  d0 d1 … | …
//                                        └ power_arena_ (double, parallel)
//   dev_start_  : D+1 offsets            ┌ dev_rows_ (u32 row ids, ascending)
//   device j ───────────────────────────▶│ r0 r1 … | r0 r1 … | …
//
// Row order is exactly the candidate-span order, so indices are
// interchangeable between the two representations. The forward rows make
// the gain inner loop a branch-light scan of adjacent memory (no pointer
// chase through per-candidate heap vectors); the inverted index answers
// "which rows does touching device j invalidate?" — the reachability set of
// the dirty-gain greedy (see ChargingObjective::State::enable_incremental).
//
// Entry counts are stored as u32: pools are bounded by the arrangement
// size (tens of thousands of rows, a handful of devices each), far below
// 2^32 nonzeros; construction enforces the bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/model/types.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::opt {

class CoverageMatrix {
 public:
  /// Empty matrix: no rows, no devices.
  CoverageMatrix() = default;

  /// Pack `candidates` (rows) over `num_devices` columns. Every covered
  /// device index must be < num_devices.
  CoverageMatrix(std::span<const pdcs::Candidate> candidates,
                 std::size_t num_devices);

  /// Same packing from a pointer pool (the delta layer's zero-copy view of
  /// its filter survivors). Null entries are not allowed.
  CoverageMatrix(std::span<const pdcs::Candidate* const> candidates,
                 std::size_t num_devices);

  std::size_t num_rows() const { return row_strategy_.size(); }
  std::size_t num_devices() const {
    return dev_start_.empty() ? 0 : dev_start_.size() - 1;
  }
  /// Stored (row, device) pairs — the matrix's nonzero count.
  std::size_t nnz() const { return device_arena_.size(); }

  /// Covered-device ids of row i (ascending, same order as the source
  /// candidate's `covered`).
  std::span<const std::uint32_t> covered(std::size_t i) const {
    return {device_arena_.data() + row_start_[i],
            row_start_[i + 1] - row_start_[i]};
  }
  /// Ring powers of row i, parallel to covered(i).
  std::span<const double> powers(std::size_t i) const {
    return {power_arena_.data() + row_start_[i],
            row_start_[i + 1] - row_start_[i]};
  }
  /// Per-row strategy metadata (placement + charger type), arena-resident
  /// so finish/matroid plumbing never touches the source candidates.
  const model::Strategy& strategy(std::size_t i) const {
    return row_strategy_[i];
  }
  std::size_t row_type(std::size_t i) const { return row_strategy_[i].type; }

  /// Rows covering device j, ascending. The dirty-propagation frontier of
  /// an `add`: only these rows' cached gains can change when device j's
  /// accumulated power moves.
  std::span<const std::uint32_t> rows_covering(std::size_t j) const {
    return {dev_rows_.data() + dev_start_[j],
            dev_start_[j + 1] - dev_start_[j]};
  }

  /// Bitwise equality of every arena, offset table, and strategy slot —
  /// the delta oracle's "warm ≡ cold-built" check.
  bool same_as(const CoverageMatrix& other) const;

 private:
  void build(std::span<const pdcs::Candidate* const> candidates,
             std::size_t num_devices);
  void build_inverted_index(std::size_t num_devices);
  std::vector<std::uint32_t> row_start_{0};
  std::vector<std::uint32_t> device_arena_;
  std::vector<double> power_arena_;
  std::vector<model::Strategy> row_strategy_;
  std::vector<std::uint32_t> dev_start_{0};
  std::vector<std::uint32_t> dev_rows_;
};

}  // namespace hipo::opt
