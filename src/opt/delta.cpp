#include "src/opt/delta.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/wire.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

namespace {

/// Euclidean distance from a point to an axis-aligned box (0 inside).
double box_distance(geom::Vec2 p, const geom::BBox& box) {
  const double dx = std::max({box.lo.x - p.x, 0.0, p.x - box.hi.x});
  const double dy = std::max({box.lo.y - p.y, 0.0, p.y - box.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

DeltaSolver::DeltaSolver(model::Scenario::Config config, DeltaOptions options)
    : config_(std::move(config)), options_(options) {
  scenario_.emplace(model::Scenario::Config(config_));
  const std::size_t n = scenario_->num_devices();
  per_task_.assign(n, {});
  survived_.assign(n, {});
  admitted_.assign(scenario_->num_charger_types(), {});
  // Cold build = "everything invalidated": the same refresh every delta
  // runs, so the cold and warm code paths are one path. Every row is then
  // dirty, and there are no old rows to touch devices.
  DeltaStats stats;
  refresh(std::vector<std::uint8_t>(n, 1), std::vector<std::uint8_t>(n, 0),
          stats);
}

std::vector<std::uint8_t> DeltaSolver::affected_tasks(
    const std::vector<geom::Vec2>& points,
    const std::vector<geom::BBox>& boxes) const {
  // Invalidation radius: a task's output depends only on geometry within
  // pdcs::task_reach of its device — candidate positions sit within d_max
  // of it (pair positions within range of both anchors), and each
  // position's covered pool / LOS segments reach another d_max. Anything
  // farther can touch neither the constructions nor the predicates, so its
  // task re-extracts to the identical output.
  const double r = pdcs::task_reach(*scenario_);
  const std::size_t n = scenario_->num_devices();
  std::vector<std::uint8_t> affected(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 pos = scenario_->device(i).pos;
    for (const geom::Vec2 p : points) {
      if (geom::distance(pos, p) <= r) {
        affected[i] = 1;
        break;
      }
    }
    if (affected[i]) continue;
    for (const geom::BBox& box : boxes) {
      // Conservative: box distance underestimates polygon distance, so
      // this only ever re-extracts *more* tasks — never misses one.
      if (box_distance(pos, box) <= r) {
        affected[i] = 1;
        break;
      }
    }
  }
  return affected;
}

DeltaStats DeltaSolver::apply(const DeltaOp& op) {
  obs::Span span("delta.apply", static_cast<std::uint64_t>(op.kind));
  DeltaStats stats;

  // 1. Apply the op to a copy of the config and build the next Scenario
  // from it. The Scenario constructor is the one validator (device fields,
  // region, obstacle containment, simple finite obstacles); only index
  // ranges, which a Config cannot express, are checked here. Nothing is
  // committed until the build succeeds, so a rejected op leaves the solver
  // untouched.
  model::Scenario::Config next = config_;
  std::vector<geom::Vec2> points;
  std::vector<geom::BBox> boxes;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t removed_task = kNone;
  const auto erase_at = [](auto& v, std::size_t i) {
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
  };
  switch (op.kind) {
    case DeltaOp::Kind::kAddDevice:
      points.push_back(op.device.pos);
      next.devices.push_back(op.device);
      break;
    case DeltaOp::Kind::kRemoveDevice:
      HIPO_REQUIRE(op.index < next.devices.size(),
                   "delta: remove_device index out of range");
      points.push_back(next.devices[op.index].pos);
      erase_at(next.devices, op.index);
      removed_task = op.index;
      break;
    case DeltaOp::Kind::kMoveDevice: {
      HIPO_REQUIRE(op.index < next.devices.size(),
                   "delta: move_device index out of range");
      model::Device& d = next.devices[op.index];
      points.push_back(d.pos);
      points.push_back(op.pos);
      d.pos = op.pos;
      if (op.has_orientation) d.orientation = op.orientation;
      break;
    }
    case DeltaOp::Kind::kAddObstacle:
      next.obstacles.emplace_back(op.obstacle);
      boxes.push_back(next.obstacles.back().bbox());
      break;
    case DeltaOp::Kind::kRemoveObstacle:
      HIPO_REQUIRE(op.index < next.obstacles.size(),
                   "delta: remove_obstacle index out of range");
      boxes.push_back(next.obstacles[op.index].bbox());
      erase_at(next.obstacles, op.index);
      break;
  }
  // Scenario's constructor consumes its config, so it gets a copy; config_
  // stays the mutable source of truth across deltas.
  model::Scenario built{model::Scenario::Config(next)};
  config_ = std::move(next);
  scenario_.emplace(std::move(built));
  // Devices (new numbering) covered by a row about to be replaced: removing
  // column r shifts every id above it down, and r itself is gone.
  const std::size_t n = config_.devices.size();
  std::vector<std::uint8_t> touched(n, 0);
  const auto renumber = [&](std::size_t j) {
    return removed_task != kNone && j > removed_task ? j - 1 : j;
  };
  const auto touch_rows = [&](const std::vector<pdcs::Candidate>& rows) {
    for (const pdcs::Candidate& c : rows) {
      for (const std::size_t j : c.covered) {
        if (j != removed_task) touched[renumber(j)] = 1;
      }
    }
  };
  // The cache slots follow the device list: a removed device's slots and
  // survivors go, later slots shift down, and an added device gets empty
  // slots at the end.
  if (removed_task != kNone) {
    touch_rows(per_task_[removed_task]);
    erase_at(per_task_, removed_task);
    erase_at(survived_, removed_task);
    for (auto& survivors : admitted_) {
      std::erase_if(survivors, [&](const Admitted& a) {
        return a.ref.slot == removed_task;
      });
      for (Admitted& a : survivors) a.ref.slot = renumber(a.ref.slot);
    }
  }
  per_task_.resize(n);
  survived_.resize(n);

  // 2. Invalidation set over the *new* device list. A moved/added device is
  // at distance 0 from its own delta point, so its task is always in.
  const std::vector<std::uint8_t> affected = affected_tasks(points, boxes);

  // 3. The affected tasks' old rows touch their devices before they are
  // replaced. The unaffected tasks' rows stay and are renumbered past a
  // removed column; none of them covers it — a candidate covering r sits
  // within d_max of it, its task's device within 2·d_max, which is inside
  // the invalidation radius.
  for (std::size_t i = 0; i < n; ++i) {
    if (affected[i]) {
      touch_rows(per_task_[i]);
    } else if (removed_task != kNone) {
      for (pdcs::Candidate& c : per_task_[i]) {
        for (std::size_t& j : c.covered) {
          HIPO_ASSERT_MSG(j != removed_task,
                          "unaffected task covers the removed device");
          j = renumber(j);
        }
      }
    }
  }

  refresh(affected, std::move(touched), stats);

  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("delta.rows_patched")
        .add(stats.rows_erased + stats.rows_inserted);
    obs::counter("delta.candidates_regenerated")
        .add(stats.candidates_regenerated);
    // Registered on every apply, so the counters exist even at zero.
    obs::counter("delta.full_rebuilds").add(stats.full_rebuild ? 1 : 0);
    obs::counter("delta.rows_refiltered").add(stats.rows_refiltered);
  }
  return stats;
}

void DeltaSolver::refresh(const std::vector<std::uint8_t>& affected,
                          std::vector<std::uint8_t> touched,
                          DeltaStats& stats) {
  const std::size_t n = scenario_->num_devices();
  HIPO_ASSERT(per_task_.size() == n && survived_.size() == n &&
              touched.size() == n);
  stats.tasks_total = n;

  // Re-extract the invalidated tasks with extract_all's task loop —
  // determinism makes each regenerated output bit-identical to what the
  // cold pipeline computes. Their new rows touch their devices too.
  {
    obs::Span span("delta.extract");
    std::vector<std::size_t> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      if (affected[i]) tasks.push_back(i);
    }
    pdcs::run_tasks(*scenario_, tasks, options_.extract, options_.workers,
                    per_task_);
    stats.tasks_regenerated = tasks.size();
    for (const std::size_t i : tasks) {
      stats.candidates_regenerated += per_task_[i].size();
      survived_[i].assign(per_task_[i].size(), 0);
      for (const pdcs::Candidate& c : per_task_[i]) {
        for (const std::size_t j : c.covered) touched[j] = 1;
      }
    }
  }
  stats.full_rebuild = stats.tasks_regenerated == stats.tasks_total;

  // Survivor flag bits while the dirty set is open: kSurvived is the last
  // filter's verdict, kDirty marks a row of the dirty set, kAdmitted a
  // dirty row that survives this filter.
  constexpr std::uint8_t kSurvived = 1;
  constexpr std::uint8_t kDirty = 2;
  constexpr std::uint8_t kAdmitted = 4;

  // The dirty set D, per type in table order: the affected tasks' rows and
  // every row covering a touched device. Only these can change verdict;
  // pdcs::filter_rows over them alone is the whole-table run restricted to
  // them, because D holds every row covering a superset of a D row.
  obs::Span filter_span("delta.filter");
  // A row of task i covers only devices within task_reach of device i (its
  // position lies within d_max of i, its devices within d_max of the
  // position), so only tasks within task_reach of a touched device can
  // hold a dirty row; the rest of the table is not read.
  std::vector<std::uint8_t> near = affected;
  if (!stats.full_rebuild) {
    const double reach = pdcs::task_reach(*scenario_);
    std::vector<std::size_t> found;
    for (std::size_t t = 0; t < n; ++t) {
      if (!touched[t]) continue;
      scenario_->device_index().query_radius(scenario_->device(t).pos, reach,
                                             found);
      for (const std::size_t i : found) near[i] = 1;
    }
  }
  const auto covers_touched = [&](const pdcs::Candidate& c) {
    for (const std::size_t j : c.covered) {
      if (touched[j]) return true;
    }
    return false;
  };
  std::vector<std::vector<pdcs::RowRef>> dirty(admitted_.size());
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!near[slot]) continue;
    const std::vector<pdcs::Candidate>& rows = per_task_[slot];
    for (std::size_t row = 0; row < rows.size(); ++row) {
      if (!affected[slot] && !covers_touched(rows[row])) continue;
      dirty[rows[row].strategy.type].push_back({slot, row});
      survived_[slot][row] |= kDirty;
      ++stats.rows_refiltered;
    }
  }
  std::vector<std::vector<pdcs::RowRef>> fresh = dirty;
  if (options_.extract.global_filter) {
    pdcs::filter_rows(per_task_, fresh, n, options_.workers);
  }
  filter_span.finish();

  // Merge D's survivors into each type's survivor list, which keeps the
  // clean survivors in survivor order, by the filter's admission order
  // (table order when the global filter is off), and re-pack the list with
  // the constructor a cold solve uses. A row carries over (is kept) when it
  // survived the previous filter, its task was not re-extracted (their
  // flags were cleared above) and it survives this one: every clean
  // survivor, and the D survivors whose old flag is set.
  obs::Span patch_span("delta.patch");
  const auto admitted_before = [](const Admitted& a, const Admitted& b) {
    return pdcs::admitted_before(a.size, a.total_power, a.ref, b.size,
                                 b.total_power, b.ref);
  };
  const std::size_t old_rows = matrix_.num_rows();
  std::size_t kept = 0;
  std::vector<const pdcs::Candidate*> rows;
  rows.reserve(old_rows + stats.rows_refiltered);
  for (std::size_t q = 0; q < admitted_.size(); ++q) {
    // An affected task's old refs may point past its new rows: drop them by
    // task before reading any flag.
    std::vector<Admitted>& survivors = admitted_[q];
    std::erase_if(survivors, [&](const Admitted& a) {
      return affected[a.ref.slot] != 0 ||
             (survived_[a.ref.slot][a.ref.row] & kDirty) != 0;
    });
    kept += survivors.size();
    std::vector<Admitted> admitted;
    admitted.reserve(fresh[q].size());
    for (const pdcs::RowRef ref : fresh[q]) {
      std::uint8_t& flag = survived_[ref.slot][ref.row];
      kept += flag & kSurvived;
      flag = kAdmitted;
      Admitted& a = admitted.emplace_back(Admitted{ref});
      if (options_.extract.global_filter) {
        const pdcs::RowView row = pdcs::row_view(per_task_[ref.slot][ref.row]);
        a.total_power = pdcs::total_power(row);
        a.size = row.covered.size();
      }
    }
    for (const pdcs::RowRef ref : dirty[q]) {
      std::uint8_t& flag = survived_[ref.slot][ref.row];
      flag = flag == kAdmitted ? kSurvived : 0;
    }
    std::vector<Admitted> merged;
    merged.reserve(survivors.size() + admitted.size());
    std::merge(survivors.begin(), survivors.end(), admitted.begin(),
               admitted.end(), std::back_inserter(merged), admitted_before);
    survivors = std::move(merged);
    for (const Admitted& a : survivors) {
      rows.push_back(&per_task_[a.ref.slot][a.ref.row]);
    }
  }
  matrix_ = CoverageMatrix(rows, n);
  stats.rows_kept = kept;
  stats.rows_erased = old_rows - kept;
  stats.rows_inserted = rows.size() - kept;
  patch_span.finish();

  // Warm re-solve: the shared greedy drivers over the re-packed matrix.
  obs::Span greedy_span("delta.greedy");
  result_ = select_strategies(*scenario_, matrix_, options_.mode,
                              options_.kind, options_.workers);
}

// --- JSONL delta scripts --------------------------------------------------

namespace {

/// Map one parsed script line onto a DeltaOp; ConfigError on a schema
/// violation (parse_delta_script prefixes the line number).
DeltaOp op_from_json(const obs::Json& doc) {
  HIPO_REQUIRE(doc.is_object(), "a delta op must be a JSON object");
  const obs::Json* op_field = doc.find("op");
  HIPO_REQUIRE(op_field != nullptr, "missing \"op\"");
  const std::string& op_name = op_field->as_string();
  const obs::Json* vertices = doc.find("vertices");

  // A typo'd or unknown field silently ignored is a delta that does not do
  // what the script says — reject it, naming the field.
  const auto require_known = [&](std::initializer_list<std::string_view>
                                     allowed) {
    for (const auto& [key, value] : doc.as_object()) {
      if (key == "op" || key == "vertices") continue;
      HIPO_REQUIRE(std::find(allowed.begin(), allowed.end(), key) !=
                       allowed.end(),
                   "unknown field \"" + key + "\" for op " + op_name);
      HIPO_REQUIRE(value.is_number(), "\"" + key + "\" must be a number");
    }
  };
  const auto num = [&](const char* key) {
    const obs::Json* v = doc.find(key);
    HIPO_REQUIRE(v != nullptr,
                 std::string("missing \"") + key + "\" for op " + op_name);
    return v->as_number();
  };
  const auto num_or = [&](const char* key, double fallback) {
    const obs::Json* v = doc.find(key);
    return v == nullptr ? fallback : v->as_number();
  };
  const auto to_index = [](double v) {
    HIPO_REQUIRE(v >= 0.0 && v == std::floor(v) && v <= 1e15,
                 "expected a non-negative integer");
    return static_cast<std::size_t>(v);
  };

  DeltaOp op;
  if (op_name == "add_device") {
    require_known({"x", "y", "orientation", "type", "p_th", "weight"});
    op.kind = DeltaOp::Kind::kAddDevice;
    op.device.pos = {num("x"), num("y")};
    op.device.orientation = num_or("orientation", 0.0);
    op.device.type = to_index(num_or("type", 0.0));
    op.device.p_th = num_or("p_th", 0.05);
    op.device.weight = num_or("weight", 1.0);
  } else if (op_name == "remove_device") {
    require_known({"index"});
    op.kind = DeltaOp::Kind::kRemoveDevice;
    op.index = to_index(num("index"));
  } else if (op_name == "move_device") {
    require_known({"index", "x", "y", "orientation"});
    op.kind = DeltaOp::Kind::kMoveDevice;
    op.index = to_index(num("index"));
    op.pos = {num("x"), num("y")};
    op.has_orientation = doc.find("orientation") != nullptr;
    op.orientation = num_or("orientation", 0.0);
  } else if (op_name == "add_obstacle") {
    require_known({});
    op.kind = DeltaOp::Kind::kAddObstacle;
    HIPO_REQUIRE(vertices != nullptr, "add_obstacle needs \"vertices\"");
    for (const obs::Json& v : vertices->as_array()) {
      const auto& xy = v.as_array();
      HIPO_REQUIRE(xy.size() == 2, "each vertex must be an [x, y] pair");
      op.obstacle.push_back({xy[0].as_number(), xy[1].as_number()});
    }
  } else if (op_name == "remove_obstacle") {
    require_known({"index"});
    op.kind = DeltaOp::Kind::kRemoveObstacle;
    op.index = to_index(num("index"));
  } else {
    throw ConfigError("unknown op \"" + op_name + "\"");
  }
  HIPO_REQUIRE(vertices == nullptr || op.kind == DeltaOp::Kind::kAddObstacle,
               "\"vertices\" is only valid for add_obstacle");
  return op;
}

}  // namespace

std::vector<DeltaOp> parse_delta_script(const std::string& text) {
  std::vector<DeltaOp> ops;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      ops.push_back(op_from_json(obs::parse_json(line)));
    } catch (const ConfigError& e) {
      throw ConfigError("delta script line " + std::to_string(line_no) +
                        ": " + e.what());
    }
  }
  return ops;
}

std::vector<DeltaOp> read_delta_script_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open delta script: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_delta_script(buffer.str());
}

}  // namespace hipo::opt
