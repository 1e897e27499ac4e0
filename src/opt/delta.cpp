#include "src/opt/delta.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/error.hpp"
#include "src/util/json_number.hpp"

namespace hipo::opt {

namespace {

/// Euclidean distance from a point to an axis-aligned box (0 inside).
double box_distance(geom::Vec2 p, const geom::BBox& box) {
  const double dx = std::max({box.lo.x - p.x, 0.0, p.x - box.hi.x});
  const double dy = std::max({box.lo.y - p.y, 0.0, p.y - box.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

void validate_device(const model::Device& d, std::size_t num_device_types) {
  HIPO_REQUIRE(std::isfinite(d.pos.x) && std::isfinite(d.pos.y) &&
                   std::isfinite(d.orientation),
               "delta: device position/orientation must be finite");
  HIPO_REQUIRE(d.type < num_device_types,
               "delta: device type index out of range");
  HIPO_REQUIRE(std::isfinite(d.p_th) && d.p_th > 0.0,
               "delta: device p_th must be positive");
  HIPO_REQUIRE(std::isfinite(d.weight) && d.weight > 0.0,
               "delta: device weight must be positive");
}

/// Scenario's constructor enforces these too, but checking *before* the
/// config mutation keeps a rejected op from leaving the solver half-mutated.
void validate_device_position(const model::Scenario::Config& cfg,
                              geom::Vec2 pos) {
  HIPO_REQUIRE(cfg.region.contains(pos, geom::kEps),
               "delta: device outside the region");
  for (const geom::Polygon& h : cfg.obstacles) {
    HIPO_REQUIRE(!h.contains_interior(pos),
                 "delta: device placed inside an obstacle");
  }
}

}  // namespace

DeltaSolver::DeltaSolver(model::Scenario::Config config, DeltaOptions options)
    : config_(std::move(config)), options_(options) {
  rebuild_scenario();
  per_task_.assign(scenario_->num_devices(), {});
  survived_.assign(scenario_->num_devices(), {});
  // Cold build = "everything invalidated": the same refresh every delta
  // runs, so the cold and warm code paths are one path.
  std::vector<std::uint8_t> affected(scenario_->num_devices(), 1);
  DeltaStats stats;
  refresh(affected, stats);
}

void DeltaSolver::rebuild_scenario() {
  // Scenario's constructor consumes its config, so it gets a copy;
  // config_ stays the mutable source of truth across deltas.
  scenario_.emplace(model::Scenario::Config(config_));
}

std::vector<std::uint8_t> DeltaSolver::affected_tasks(
    const std::vector<geom::Vec2>& points,
    const std::vector<geom::BBox>& boxes) const {
  // Invalidation radius: a task's output depends on geometry at most
  // 4·d_max from its device — candidate positions sit within 3·d_max of it
  // (pair anchors are ≤ 2·d_max away, positions within charging range of an
  // anchor), and each position's covered pool / LOS segments reach another
  // d_max. Anything farther can touch neither the constructions nor the
  // predicates, so its task re-extracts to the identical output. The slack
  // absorbs the coverage epsilon on the pool query.
  const double r = 4.0 * scenario_->max_charge_range() + 1e-3;
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

  // 1. Validate + mutate the config, recording the delta's geometry.
  std::vector<geom::Vec2> points;
  std::vector<geom::BBox> boxes;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t removed_task = kNone;
  switch (op.kind) {
    case DeltaOp::Kind::kAddDevice: {
      validate_device(op.device, config_.device_types.size());
      validate_device_position(config_, op.device.pos);
      points.push_back(op.device.pos);
      config_.devices.push_back(op.device);
      per_task_.emplace_back();
      survived_.emplace_back();
      break;
    }
    case DeltaOp::Kind::kRemoveDevice: {
      HIPO_REQUIRE(op.index < config_.devices.size(),
                   "delta: remove_device index out of range");
      points.push_back(config_.devices[op.index].pos);
      config_.devices.erase(config_.devices.begin() +
                            static_cast<std::ptrdiff_t>(op.index));
      per_task_.erase(per_task_.begin() +
                      static_cast<std::ptrdiff_t>(op.index));
      survived_.erase(survived_.begin() +
                      static_cast<std::ptrdiff_t>(op.index));
      removed_task = op.index;
      break;
    }
    case DeltaOp::Kind::kMoveDevice: {
      HIPO_REQUIRE(op.index < config_.devices.size(),
                   "delta: move_device index out of range");
      HIPO_REQUIRE(std::isfinite(op.pos.x) && std::isfinite(op.pos.y),
                   "delta: move_device position must be finite");
      validate_device_position(config_, op.pos);
      if (op.has_orientation) {
        HIPO_REQUIRE(std::isfinite(op.orientation),
                     "delta: move_device orientation must be finite");
      }
      model::Device& d = config_.devices[op.index];
      points.push_back(d.pos);
      points.push_back(op.pos);
      d.pos = op.pos;
      if (op.has_orientation) d.orientation = op.orientation;
      break;
    }
    case DeltaOp::Kind::kAddObstacle: {
      HIPO_REQUIRE(op.obstacle.size() >= 3,
                   "delta: add_obstacle needs at least 3 vertices");
      for (const geom::Vec2 v : op.obstacle) {
        HIPO_REQUIRE(std::isfinite(v.x) && std::isfinite(v.y),
                     "delta: obstacle vertices must be finite");
      }
      geom::Polygon poly(op.obstacle);
      HIPO_REQUIRE(poly.is_simple(),
                   "delta: obstacle polygon must be simple");
      for (const model::Device& d : config_.devices) {
        HIPO_REQUIRE(!poly.contains_interior(d.pos),
                     "delta: obstacle would swallow a device");
      }
      boxes.push_back(poly.bbox());
      config_.obstacles.push_back(std::move(poly));
      break;
    }
    case DeltaOp::Kind::kRemoveObstacle: {
      HIPO_REQUIRE(op.index < config_.obstacles.size(),
                   "delta: remove_obstacle index out of range");
      boxes.push_back(config_.obstacles[op.index].bbox());
      config_.obstacles.erase(config_.obstacles.begin() +
                              static_cast<std::ptrdiff_t>(op.index));
      break;
    }
  }
  rebuild_scenario();

  // 2. Invalidation set over the *new* device list. A moved/added device is
  // at distance 0 from its own delta point, so its task is always in.
  const std::vector<std::uint8_t> affected = affected_tasks(points, boxes);

  // 3. Device-id renumber in the surviving cached outputs: removing column
  // r shifts every id above it down. Only unaffected tasks matter (the
  // rest are re-extracted), and none of them can cover r — a candidate
  // covering r sits within d_max of it, its task within 4·d_max, which is
  // inside the invalidation radius.
  if (removed_task != kNone) {
    for (std::size_t i = 0; i < per_task_.size(); ++i) {
      if (affected[i]) continue;
      for (pdcs::Candidate& c : per_task_[i]) {
        for (std::size_t& j : c.covered) {
          HIPO_ASSERT_MSG(j != removed_task,
                          "unaffected task covers the removed device");
          if (j > removed_task) --j;
        }
      }
    }
  }

  refresh(affected, stats);

  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("delta.rows_patched")
        .add(stats.rows_erased + stats.rows_inserted);
    obs::counter("delta.candidates_regenerated")
        .add(stats.candidates_regenerated);
    // Registered on every apply, so the counter exists even at zero.
    obs::counter("delta.full_rebuilds").add(stats.full_rebuild ? 1 : 0);
  }
  return stats;
}

void DeltaSolver::refresh(const std::vector<std::uint8_t>& affected,
                          DeltaStats& stats) {
  const std::size_t n = scenario_->num_devices();
  HIPO_ASSERT(per_task_.size() == n && survived_.size() == n);
  stats.tasks_total = n;

  // Re-extract the invalidated tasks with extract_all's task loop —
  // determinism makes each regenerated output bit-identical to what the
  // cold pipeline computes.
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
    }
  }
  stats.full_rebuild = stats.tasks_regenerated == stats.tasks_total;

  // extract_all's global filter over the task table.
  obs::Span filter_span("delta.filter");
  const auto kept_by_type =
      pdcs::filter_by_type(per_task_, scenario_->num_charger_types(), n,
                           options_.extract, options_.workers);
  filter_span.finish();

  // Re-pack the survivors, type-major — the row order extract_all +
  // CoverageMatrix lay out — with the constructor a cold solve uses. A row
  // carries over when it survived the previous filter (re-extracted tasks
  // had their flags cleared above) and survives this one.
  obs::Span patch_span("delta.patch");
  std::size_t kept = 0;
  std::vector<const pdcs::Candidate*> rows;
  for (const auto& survivors : kept_by_type) {
    for (const pdcs::RowRef ref : survivors) {
      kept += survived_[ref.slot][ref.row];
      rows.push_back(&per_task_[ref.slot][ref.row]);
    }
  }
  for (auto& flags : survived_) std::fill(flags.begin(), flags.end(), 0);
  for (const auto& survivors : kept_by_type) {
    for (const pdcs::RowRef ref : survivors) survived_[ref.slot][ref.row] = 1;
  }
  const std::size_t old_rows = matrix_.num_rows();
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

/// Minimal JSON-object reader for the one-op-per-line script format. Only
/// what the schema needs: string values, finite numbers, and the vertices
/// array of [x, y] pairs. Bounded by the line's length, so an embedded NUL
/// is a byte like any other (and rejected), not the end of the line.
class LineParser {
 public:
  LineParser(std::string_view line, std::size_t line_no)
      : text_(line), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream os;
    os << "delta script line " << line_no_ << ": " << what;
    throw ConfigError(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') fail("escape sequences are not supported");
      out.push_back(text_[pos_++]);
    }
    if (pos_ == text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  double parse_number() {
    skip_ws();
    const util::JsonNumber n = util::read_json_number(text_, pos_);
    if (n.status == util::JsonNumber::Status::kMalformed) {
      fail("expected a number");
    }
    if (n.status == util::JsonNumber::Status::kNonFinite) {
      fail("numbers must be finite");
    }
    pos_ = n.end;
    return n.value;
  }

  std::size_t to_index(double v) const {
    if (!(v >= 0.0) || v != std::floor(v) || v > 1e15) {
      fail("expected a non-negative integer");
    }
    return static_cast<std::size_t>(v);
  }

  std::vector<geom::Vec2> parse_vertices() {
    std::vector<geom::Vec2> out;
    expect('[');
    if (consume(']')) return out;
    do {
      expect('[');
      const double x = parse_number();
      expect(',');
      const double y = parse_number();
      expect(']');
      out.push_back({x, y});
    } while (consume(','));
    expect(']');
    return out;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_;
};

DeltaOp parse_op_line(const std::string& line, std::size_t line_no) {
  LineParser parser(line, line_no);
  std::unordered_map<std::string, double> nums;
  std::string op_name;
  bool has_op = false;
  std::vector<geom::Vec2> vertices;
  bool has_vertices = false;

  parser.expect('{');
  if (!parser.consume('}')) {
    do {
      const std::string key = parser.parse_string();
      parser.expect(':');
      if (key == "op") {
        if (has_op) parser.fail("duplicate key \"op\"");
        has_op = true;
        op_name = parser.parse_string();
      } else if (key == "vertices") {
        if (has_vertices) parser.fail("duplicate key \"vertices\"");
        vertices = parser.parse_vertices();
        has_vertices = true;
      } else {
        if (!nums.emplace(key, parser.parse_number()).second) {
          parser.fail("duplicate key \"" + key + "\"");
        }
      }
    } while (parser.consume(','));
    parser.expect('}');
  }
  if (!parser.at_end()) parser.fail("trailing characters after the object");
  if (!has_op) parser.fail("missing \"op\"");

  // A typo'd or unknown field silently ignored is a delta that does not do
  // what the script says — reject it, naming the field.
  const auto require_known = [&](std::initializer_list<const char*> allowed) {
    for (const auto& kv : nums) {
      bool known = false;
      for (const char* a : allowed) known = known || kv.first == a;
      if (!known) {
        parser.fail("unknown field \"" + kv.first + "\" for op " + op_name);
      }
    }
  };

  const auto num = [&](const char* key) {
    const auto it = nums.find(key);
    if (it == nums.end()) {
      parser.fail(std::string("missing \"") + key + "\" for op " + op_name);
    }
    return it->second;
  };
  const auto num_or = [&](const char* key, double fallback) {
    const auto it = nums.find(key);
    return it == nums.end() ? fallback : it->second;
  };

  DeltaOp op;
  if (op_name == "add_device") {
    require_known({"x", "y", "orientation", "type", "p_th", "weight"});
    op.kind = DeltaOp::Kind::kAddDevice;
    op.device.pos = {num("x"), num("y")};
    op.device.orientation = num_or("orientation", 0.0);
    op.device.type = parser.to_index(num_or("type", 0.0));
    op.device.p_th = num_or("p_th", 0.05);
    op.device.weight = num_or("weight", 1.0);
  } else if (op_name == "remove_device") {
    require_known({"index"});
    op.kind = DeltaOp::Kind::kRemoveDevice;
    op.index = parser.to_index(num("index"));
  } else if (op_name == "move_device") {
    require_known({"index", "x", "y", "orientation"});
    op.kind = DeltaOp::Kind::kMoveDevice;
    op.index = parser.to_index(num("index"));
    op.pos = {num("x"), num("y")};
    if (nums.count("orientation") != 0) {
      op.has_orientation = true;
      op.orientation = nums.at("orientation");
    }
  } else if (op_name == "add_obstacle") {
    require_known({});
    op.kind = DeltaOp::Kind::kAddObstacle;
    if (!has_vertices) parser.fail("add_obstacle needs \"vertices\"");
    op.obstacle = std::move(vertices);
  } else if (op_name == "remove_obstacle") {
    require_known({"index"});
    op.kind = DeltaOp::Kind::kRemoveObstacle;
    op.index = parser.to_index(num("index"));
  } else {
    parser.fail("unknown op \"" + op_name + "\"");
  }
  if (has_vertices && op.kind != DeltaOp::Kind::kAddObstacle) {
    parser.fail("\"vertices\" is only valid for add_obstacle");
  }
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
    ops.push_back(parse_op_line(line, line_no));
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
