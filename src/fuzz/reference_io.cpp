#include "src/fuzz/reference_io.hpp"

#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/geometry/angles.hpp"
#include "src/util/error.hpp"

namespace hipo::fuzz {

using model::ChargerType;
using model::Device;
using model::PairParams;
using model::Scenario;

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ConfigError("scenario I/O: line " + std::to_string(line) + ": " +
                    what);
}

/// Reads non-comment, non-blank lines and tokenizes the first word.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next meaningful line as a token stream; false at EOF.
  bool next(std::string& keyword, std::istringstream& rest) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      rest.clear();
      rest.str(line);
      if (!(rest >> keyword)) continue;
      return true;
    }
    return false;
  }

  std::size_t line_no() const { return line_no_; }

 private:
  std::istream& is_;
  std::size_t line_no_ = 0;
};

/// Parses `token` whole as a T; integral fields must start with a digit.
template <typename T>
bool parse_token(const std::string& token, T& value) {
  if (std::is_integral_v<T> && !(token[0] >= '0' && token[0] <= '9')) {
    return false;
  }
  std::istringstream field(token);
  return (field >> value) && field.eof();
}

template <typename T>
T expect(std::istringstream& in, std::size_t line, const char* what) {
  std::string token;
  T value{};
  if (!(in >> token) || !parse_token(token, value)) {
    fail(line, std::string("expected ") + what);
  }
  return value;
}

/// Like expect<double> but additionally rejects NaN and ±inf: every double
/// field of the format is a coordinate, angle, or physical constant, and a
/// non-finite value silently corrupts every geometric predicate downstream.
double expect_finite(std::istringstream& in, std::size_t line,
                     const char* what) {
  const double value = expect<double>(in, line, what);
  if (!std::isfinite(value)) {
    fail(line, std::string(what) + " must be finite (got non-finite value)");
  }
  return value;
}

void require(bool ok, std::size_t line, const std::string& what) {
  if (!ok) fail(line, what);
}

}  // namespace

Scenario reference_read_scenario(std::istream& is) {
  LineReader reader(is);
  std::string keyword;
  std::istringstream rest;
  if (!reader.next(keyword, rest) || keyword != "hipo-scenario") {
    fail(reader.line_no(), "missing 'hipo-scenario v1' header");
  }

  Scenario::Config cfg;
  struct PairEntry {
    std::size_t q, t;
    PairParams pp;
  };
  std::vector<PairEntry> pairs;

  while (reader.next(keyword, rest)) {
    // Consume the keyword already read; remaining tokens are the payload.
    std::string skip;
    std::istringstream in(rest.str());
    in >> skip;
    const std::size_t line = reader.line_no();
    if (keyword == "region") {
      cfg.region.lo.x = expect_finite(in, line, "lo.x");
      cfg.region.lo.y = expect_finite(in, line, "lo.y");
      cfg.region.hi.x = expect_finite(in, line, "hi.x");
      cfg.region.hi.y = expect_finite(in, line, "hi.y");
      require(cfg.region.hi.x > cfg.region.lo.x &&
                  cfg.region.hi.y > cfg.region.lo.y,
              line, "region must have hi > lo on both axes");
    } else if (keyword == "eps1") {
      cfg.eps1 = expect_finite(in, line, "eps1 value");
      require(cfg.eps1 > 0.0, line, "eps1 must be positive");
    } else if (keyword == "charger_type") {
      ChargerType ct;
      ct.angle = expect_finite(in, line, "angle");
      ct.d_min = expect_finite(in, line, "d_min");
      ct.d_max = expect_finite(in, line, "d_max");
      require(ct.angle > 0.0 && ct.angle <= geom::kTwoPi, line,
              "charger angle must be in (0, 2pi]");
      require(ct.d_min >= 0.0, line, "charger d_min must be >= 0");
      require(ct.d_max > ct.d_min, line,
              "charger d_max must be greater than d_min");
      const int count = expect<int>(in, line, "count");
      require(count >= 0, line, "charger count must be >= 0");
      cfg.charger_counts.push_back(count);
      cfg.charger_types.push_back(ct);
    } else if (keyword == "device_type") {
      const double angle = expect_finite(in, line, "angle");
      require(angle > 0.0 && angle <= geom::kTwoPi, line,
              "device receiving angle must be in (0, 2pi]");
      cfg.device_types.push_back({angle});
    } else if (keyword == "pair") {
      PairEntry e;
      e.q = expect<std::size_t>(in, line, "charger type index");
      e.t = expect<std::size_t>(in, line, "device type index");
      e.pp.a = expect_finite(in, line, "a");
      e.pp.b = expect_finite(in, line, "b");
      require(e.pp.a > 0.0 && e.pp.b > 0.0, line,
              "pair power constants a, b must be positive");
      pairs.push_back(e);
    } else if (keyword == "obstacle") {
      const auto n = expect<std::size_t>(in, line, "vertex count");
      if (n < 3) fail(line, "obstacle needs >= 3 vertices");
      std::vector<geom::Vec2> verts;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = expect_finite(in, line, "vertex x");
        const double y = expect_finite(in, line, "vertex y");
        verts.push_back({x, y});
      }
      try {
        cfg.obstacles.emplace_back(std::move(verts));
      } catch (const ConfigError& e) {
        fail(line, std::string("invalid obstacle polygon: ") + e.what());
      }
      require(cfg.obstacles.back().is_simple(), line,
              "obstacle polygon must be simple (no self-intersections)");
    } else if (keyword == "device") {
      Device d;
      d.pos.x = expect_finite(in, line, "x");
      d.pos.y = expect_finite(in, line, "y");
      d.orientation = expect_finite(in, line, "orientation");
      d.type = expect<std::size_t>(in, line, "type");
      d.p_th = expect_finite(in, line, "p_th");
      require(d.p_th > 0.0, line, "device p_th must be positive");
      std::string weight;
      if (in >> weight) {  // optional; defaults to 1
        require(parse_token(weight, d.weight), line, "expected weight");
        require(std::isfinite(d.weight) && d.weight > 0.0, line,
                "device weight must be positive and finite");
      }
      cfg.devices.push_back(d);
    } else {
      fail(line, "unknown keyword '" + keyword + "'");
    }
    std::string extra;
    if (in >> extra) {
      fail(line, "unexpected token '" + extra + "' after the last field");
    }
  }

  if (cfg.charger_types.empty()) fail(reader.line_no(), "no charger_type");
  if (cfg.device_types.empty()) fail(reader.line_no(), "no device_type");
  double weight_total = 0.0;
  for (const auto& d : cfg.devices) weight_total += d.weight;
  if (!(weight_total > 0.0)) {
    fail(reader.line_no(), "total device weight is zero (scenario has no "
                           "devices); the normalized objective is undefined");
  }
  cfg.pair_params.assign(cfg.charger_types.size() * cfg.device_types.size(),
                         PairParams{});
  std::vector<bool> seen(cfg.pair_params.size(), false);
  for (const auto& e : pairs) {
    if (e.q >= cfg.charger_types.size() || e.t >= cfg.device_types.size()) {
      fail(reader.line_no(), "pair indices out of range");
    }
    const std::size_t idx = e.q * cfg.device_types.size() + e.t;
    cfg.pair_params[idx] = e.pp;
    seen[idx] = true;
  }
  for (bool s : seen) {
    if (!s) fail(reader.line_no(), "missing pair entry for some (q, t)");
  }
  return Scenario(std::move(cfg));
}

}  // namespace hipo::fuzz
