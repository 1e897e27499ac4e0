// Incremental re-solve for dynamic scenarios (the paper's Sec. 8.1
// redeployment).
//
// DeltaSolver holds a solved scenario warm: the per-device extraction
// outputs, which of their rows survived the global dominance filter, and the
// flat CSR CoverageMatrix the greedy runs on. A delta — device
// added/removed/moved, obstacle added/removed — is applied to a copy of the
// config, and the next Scenario is built from that copy; the Scenario
// constructor is the one validator, and the solver commits only once the
// build succeeds. The delta then invalidates only the
// extraction tasks whose geometry the delta can reach (a pdcs::task_reach
// ≈ 2·d_max disk, see the radius argument in docs/ALGORITHMS.md). Those
// tasks are re-extracted with extract_all's task loop (pdcs::run_tasks).
//
// The global dominance filter then re-runs only over the rows whose
// survival the delta can change. A row is only ever dominated by a row of
// its type that covers a superset of its devices, so its verdict depends on
// those rows alone, and it can change only if an old or new row of a
// re-extracted task covers every one of its devices. The dirty set D is the
// rows of re-extracted tasks plus every row that covers a device some old or
// new row of theirs covers. D is closed upward under ⊇, so the global
// filter's own filter step (pdcs::filter_rows) run over D alone, in table
// order, gives the whole-table run's verdicts for D; every other row keeps
// its survivor flag. D's survivors merge into each type's survivor list in
// the filter's admission order (the CoverageMatrix row order, kept between
// deltas), and the list is packed with the CoverageMatrix constructor a
// cold solve uses. The greedy then re-runs over the warm matrix. The
// constructor is the "every task affected" case of the same path.
//
// The contract is *bit-identity*: after any sequence of deltas, the
// placement, utilities, and the matrix itself are byte-for-byte what a cold
// solve of the mutated scenario would produce (enforced by the `delta` fuzz
// oracle and tests/test_delta_solver.cpp). Warmth buys the extraction work
// back, not an approximation.
//
// Delta scripts (parse_delta_script) are JSONL: each op line is one strict
// RFC 8259 object read by the repo's one JSON parser, obs::parse_json.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/model/scenario.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"

namespace hipo::opt {

/// One mutation of the scenario. Indices always refer to the *current*
/// (post-previous-delta) device/obstacle lists. Added devices append at the
/// end of the device list; removing shifts later indices down by one (the
/// matrix columns are remapped to match). Obstacles behave the same way.
struct DeltaOp {
  enum class Kind : std::uint8_t {
    kAddDevice,
    kRemoveDevice,
    kMoveDevice,
    kAddObstacle,
    kRemoveObstacle,
  };

  Kind kind = Kind::kAddDevice;
  /// kAddDevice: the full device record to append.
  model::Device device;
  /// kRemoveDevice / kMoveDevice: device index; kRemoveObstacle: obstacle
  /// index.
  std::size_t index = 0;
  /// kMoveDevice: the new position (and, when has_orientation, the new
  /// facing angle — otherwise the orientation is kept).
  geom::Vec2 pos;
  bool has_orientation = false;
  double orientation = 0.0;
  /// kAddObstacle: the polygon to append (must be simple).
  std::vector<geom::Vec2> obstacle;
};

/// What one apply() did, for the bench harness and the obs counters.
struct DeltaStats {
  /// Extraction tasks re-run / total tasks after the delta.
  std::size_t tasks_regenerated = 0;
  std::size_t tasks_total = 0;
  /// Raw candidates produced by the re-run tasks (pre-filter).
  std::size_t candidates_regenerated = 0;
  /// Matrix rows erased / inserted / carried over. A row is kept when its
  /// task was not re-extracted and it survived the filter before and
  /// survives it now; every other old row is erased, every other new row
  /// inserted.
  std::size_t rows_erased = 0;
  std::size_t rows_inserted = 0;
  std::size_t rows_kept = 0;
  /// True when the delta reached every task (tasks_regenerated ==
  /// tasks_total), so nothing was carried over.
  bool full_rebuild = false;
  /// Rows the global filter re-ran over: the dirty set, every row whose
  /// survival the delta could change. The whole task table on a full
  /// rebuild.
  std::size_t rows_refiltered = 0;
};

struct DeltaOptions {
  /// Greedy configuration of each re-solve; must match the cold solve being
  /// compared against for the bit-identity contract to mean anything. The
  /// defaults mirror core::SolveOptions (local search has no incremental
  /// path and is deliberately absent).
  GreedyMode mode = GreedyMode::kLazyGlobal;
  ObjectiveKind kind = ObjectiveKind::kUtility;
  pdcs::ExtractOptions extract;
  parallel::ThreadPool* workers = nullptr;
};

/// Warm incremental solver. Construction runs the cold pipeline once;
/// apply() updates it per delta. Not thread-safe (one mutation at a time);
/// internal extraction/filter/greedy work parallelizes on options.workers.
class DeltaSolver {
 public:
  explicit DeltaSolver(model::Scenario::Config config,
                       DeltaOptions options = {});

  /// Apply one mutation: build the next Scenario from a mutated copy of the
  /// config, then re-extract the invalidated neighborhood, re-pack the
  /// matrix and re-run greedy. Throws ConfigError on an invalid op — an
  /// index out of range, or anything the Scenario constructor rejects
  /// (non-simple or non-finite obstacle, bad device parameters, a device
  /// outside the region or inside an obstacle) — and then changes nothing.
  DeltaStats apply(const DeltaOp& op);

  const model::Scenario& scenario() const { return *scenario_; }
  /// The current scenario's config (the mutated copy of the input).
  const model::Scenario::Config& config() const { return config_; }
  /// The warm matrix the last greedy ran on.
  const CoverageMatrix& matrix() const { return matrix_; }
  /// The last solve result (selection indices are matrix row indices).
  const GreedyResult& result() const { return result_; }
  std::size_t num_candidates() const { return matrix_.num_rows(); }

 private:
  /// A matrix row: a survivor of the global filter with its admission keys
  /// (zero when the global filter is off, which leaves table order). The
  /// keys are stored because the merge would otherwise re-read every clean
  /// survivor's row.
  struct Admitted {
    pdcs::RowRef ref;
    double total_power = 0.0;
    std::size_t size = 0;
  };

  /// Re-extract `affected` tasks, re-filter the rows whose survival that
  /// can change and re-pack the survivors into the matrix. `touched` flags
  /// the devices (new numbering) that the affected tasks' old rows cover.
  void refresh(const std::vector<std::uint8_t>& affected,
               std::vector<std::uint8_t> touched, DeltaStats& stats);
  std::vector<std::uint8_t> affected_tasks(
      const std::vector<geom::Vec2>& points,
      const std::vector<geom::BBox>& boxes) const;

  model::Scenario::Config config_;
  DeltaOptions options_;
  /// Built from config_ on every mutation (cheap relative to extraction);
  /// optional only because Scenario has no default state.
  std::optional<model::Scenario> scenario_;
  /// Cached per-device extraction outputs, index-aligned with
  /// config_.devices. Inner vectors move wholesale on device insert/erase,
  /// so Candidate addresses stay valid while a refresh borrows them.
  std::vector<std::vector<pdcs::Candidate>> per_task_;
  /// Index-aligned with per_task_: survived_[i][e] != 0 when task i's e-th
  /// candidate survived the last filter (it is a matrix row). Moves with
  /// per_task_ on device insert/erase; feeds DeltaStats::rows_kept.
  std::vector<std::vector<std::uint8_t>> survived_;
  /// Per charger type, the survivors in the filter's admission order: the
  /// matrix row order. Rows outside a delta's dirty set carry over.
  std::vector<std::vector<Admitted>> admitted_;
  CoverageMatrix matrix_;
  GreedyResult result_;
};

/// Parse a JSONL delta script (one op object per line, schema in
/// docs/FORMATS.md). Blank lines and lines starting with '#' are skipped;
/// every other line is read by the strict wire parser (obs::parse_json)
/// and its fields mapped onto a DeltaOp. Throws ConfigError naming the
/// offending line.
std::vector<DeltaOp> parse_delta_script(const std::string& text);

/// Read and parse a delta script file; ConfigError on unreadable paths.
std::vector<DeltaOp> read_delta_script_file(const std::string& path);

}  // namespace hipo::opt
