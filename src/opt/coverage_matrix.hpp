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
  /// One row to splice in during apply_patch: the source candidate plus the
  /// row index it occupies in the *post-patch* row numbering.
  struct RowInsert {
    std::uint32_t new_row = 0;
    const pdcs::Candidate* candidate = nullptr;
  };

  /// What one apply_patch actually did — surfaced so the delta layer can
  /// feed the obs counters and the tests can pin the compaction behavior.
  struct PatchStats {
    std::size_t rows_erased = 0;
    std::size_t rows_inserted = 0;
    std::size_t rows_kept = 0;
    /// True when the kept rows were compacted by left-moving memmoves
    /// inside the existing arenas; false when the splice had to stage into
    /// fresh buffers (some kept row would have moved right).
    bool in_place = false;
  };

  /// Sentinel for apply_patch's `removed_device`: no column removal.
  static constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

  /// Empty matrix: no rows, no devices.
  CoverageMatrix() = default;

  /// Pack `candidates` (rows) over `num_devices` columns. Every covered
  /// device index must be < num_devices.
  CoverageMatrix(std::span<const pdcs::Candidate> candidates,
                 std::size_t num_devices);

  /// Same packing from a pointer pool (the delta layer's zero-copy merge
  /// view). Null entries are not allowed.
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

  // --- in-place delta patching (opt::DeltaSolver) -----------------------

  /// Tombstone row i: the row stays resident in the arenas (covered/powers
  /// still readable) until the next apply_patch compacts it away. Idempotent.
  void mark_dead(std::size_t i);
  bool is_dead(std::size_t i) const {
    return !dead_.empty() && dead_[i] != 0;
  }
  std::size_t num_dead() const { return num_dead_; }

  /// Compact every tombstoned row out of the arenas and splice `inserts` in
  /// at their post-patch positions (inserts must be sorted by new_row,
  /// strictly increasing; kept rows fill the remaining positions in their
  /// old relative order). Column remap: with `removed_device` = r, kept-row
  /// device ids > r are decremented and no kept row may still cover r —
  /// the id shift a device removal induces (insert rows must already carry
  /// post-removal ids). `new_num_devices` is the post-patch column count.
  /// The inverted index is rebuilt exactly as the constructor builds it.
  ///
  /// When every kept row moves left (erased nnz ahead of it ≥ inserted nnz
  /// ahead of it) the splice runs as forward memmoves inside the existing
  /// arenas; otherwise it stages into fresh buffers. Same result either
  /// way; PatchStats::in_place reports which path ran.
  PatchStats apply_patch(std::span<const RowInsert> inserts,
                         std::size_t new_num_devices,
                         std::size_t removed_device = kNoDevice);

  /// Bitwise equality of every arena, offset table, and strategy slot —
  /// the delta oracle's "patched ≡ cold-built" check. Tombstones count:
  /// a matrix with pending dead rows never equals a freshly built one.
  bool same_as(const CoverageMatrix& other) const;

 private:
  void build(std::span<const pdcs::Candidate* const> candidates,
             std::size_t num_devices);
  void rebuild_inverted_index(std::size_t num_devices);
  std::vector<std::uint32_t> row_start_{0};
  std::vector<std::uint32_t> device_arena_;
  std::vector<double> power_arena_;
  std::vector<model::Strategy> row_strategy_;
  std::vector<std::uint32_t> dev_start_{0};
  std::vector<std::uint32_t> dev_rows_;
  /// Tombstone lane (empty until the first mark_dead): dead_[i] != 0 marks
  /// row i for removal by the next apply_patch.
  std::vector<std::uint8_t> dead_;
  std::size_t num_dead_ = 0;
};

}  // namespace hipo::opt
