#include "src/model/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "src/geometry/angles.hpp"
#include "src/util/error.hpp"
#include "src/util/json_number.hpp"

namespace hipo::model {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The whitespace operator>> skips in the classic locale ('\n' never
/// occurs inside a line).
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

/// Parses one whole token in the decimal grammar the format has always
/// accepted (what operator>> reads into a double):
///
///   [+-] digits [. digits] [(e|E) [+-] 1*digits]
///
/// with at least one mantissa digit, so leading zeros, `+5`, `.5` and `5.`
/// are numbers and `inf`, `nan`, `0x1p3` and `1e` are not. The value is
/// the correctly rounded double; an underflow rounds to a signed zero and
/// an overflow is rejected, so every value read is finite.
bool parse_decimal(std::string_view tok, double& value) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < tok.size() && is_digit(tok[i])) ++i;
    return i - from;
  };
  const auto zeros = [&] {
    const std::size_t from = i;
    while (i < tok.size() && tok[i] == '0') ++i;
    return i - from;
  };
  const bool negative = i < tok.size() && tok[i] == '-';
  const bool plus = i < tok.size() && tok[i] == '+';
  if (negative || plus) ++i;
  const std::size_t int_zeros = zeros();
  const std::size_t int_digits = digits();  // after the leading zeros
  std::size_t frac_zeros = 0;  // fraction zeros before its first nonzero
  std::size_t frac_digits = 0;
  if (i < tok.size() && tok[i] == '.') {
    ++i;
    frac_zeros = zeros();
    frac_digits = frac_zeros + digits();
  }
  if (int_zeros + int_digits + frac_digits == 0) return false;
  long long exp = 0;  // saturates: only its sign and rough size matter
  if (i < tok.size() && (tok[i] == 'e' || tok[i] == 'E')) {
    ++i;
    const bool exp_negative = i < tok.size() && tok[i] == '-';
    if (i < tok.size() && (tok[i] == '-' || tok[i] == '+')) ++i;
    const std::size_t from = i;
    if (digits() == 0) return false;
    for (std::size_t k = from; k < i && exp < 100000; ++k) {
      exp = exp * 10 + (tok[k] - '0');
    }
    if (exp_negative) exp = -exp;
  }
  if (i != tok.size()) return false;

  const long long lead = int_digits > 0
                             ? static_cast<long long>(int_digits) - 1
                             : -static_cast<long long>(frac_zeros) - 1;
  return util::decimal_from_chars(tok.substr(plus ? 1 : 0), negative,
                                  lead + exp,
                                  value) == util::JsonNumber::Status::kOk;
}

/// An index or count: plain decimal digits (no sign) that fit in T.
template <typename T>
bool parse_unsigned(std::string_view tok, T& value) {
  if (tok.empty() || !is_digit(tok.front())) return false;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  return ec == std::errc() && ptr == tok.data() + tok.size();
}

/// One pass over the text. Lines split as std::getline splits them (a
/// final line without '\n' still counts); a line whose first byte outside
/// " \t\r" is '#', or that has none, is skipped, as is a line of other
/// whitespace only. Every field is exactly one whitespace-separated token.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Advances to the next meaningful line and returns its first token as
  /// `keyword`; false at the end of the text.
  bool next(std::string_view& keyword) {
    while (pos_ < text_.size()) {
      const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
      line_ = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      ++line_no_;
      const auto first = line_.find_first_not_of(" \t\r");
      if (first == std::string_view::npos || line_[first] == '#') continue;
      keyword = token();
      if (!keyword.empty()) return true;
    }
    return false;
  }

  /// The current line's next token; empty once the line is used up.
  std::string_view token() {
    std::size_t i = 0;
    while (i < line_.size() && is_space(line_[i])) ++i;
    std::size_t j = i;
    while (j < line_.size() && !is_space(line_[j])) ++j;
    const std::string_view tok = line_.substr(i, j - i);
    line_.remove_prefix(j);
    return tok;
  }

  double number(const char* what) {
    double value = 0.0;
    if (!parse_decimal(token(), value)) fail(std::string("expected ") + what);
    return value;
  }

  template <typename T>
  T index(const char* what) {
    T value{};
    if (!parse_unsigned(token(), value)) {
      fail(std::string("expected ") + what);
    }
    return value;
  }

  /// Rejects a token after the line's last field.
  void end_of_line() {
    const std::string_view extra = token();
    if (!extra.empty()) {
      fail("unexpected token '" + std::string(extra) +
           "' after the last field");
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("scenario I/O: line " + std::to_string(line_no_) +
                      ": " + what);
  }

  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;     // start of the next unread line
  std::string_view line_;   // unread rest of the current line
  std::size_t line_no_ = 0;
};

std::string slurp(std::istream& is) {
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  HIPO_REQUIRE(in.good(), std::string("cannot open ") + what +
                              " file: " + path);
  return slurp(in);
}

}  // namespace

void write_scenario(std::ostream& os, const Scenario& scenario) {
  os << "hipo-scenario v1\n";
  os << std::setprecision(17);
  const auto& region = scenario.region();
  os << "region " << region.lo.x << ' ' << region.lo.y << ' ' << region.hi.x
     << ' ' << region.hi.y << '\n';
  os << "eps1 " << scenario.eps1() << '\n';
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    const auto& ct = scenario.charger_type(q);
    os << "charger_type " << ct.angle << ' ' << ct.d_min << ' ' << ct.d_max
       << ' ' << scenario.charger_count(q) << '\n';
  }
  for (std::size_t t = 0; t < scenario.num_device_types(); ++t) {
    os << "device_type " << scenario.device_type(t).angle << '\n';
  }
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    for (std::size_t t = 0; t < scenario.num_device_types(); ++t) {
      const auto& pp = scenario.pair_params(q, t);
      os << "pair " << q << ' ' << t << ' ' << pp.a << ' ' << pp.b << '\n';
    }
  }
  for (const auto& h : scenario.obstacles()) {
    os << "obstacle " << h.size();
    for (const auto& v : h.vertices()) os << ' ' << v.x << ' ' << v.y;
    os << '\n';
  }
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    const auto& d = scenario.device(j);
    os << "device " << d.pos.x << ' ' << d.pos.y << ' ' << d.orientation
       << ' ' << d.type << ' ' << d.p_th << ' ' << d.weight << '\n';
  }
}

Scenario read_scenario(std::string_view text) {
  Reader in(text);
  std::string_view keyword;
  if (!in.next(keyword) || keyword != "hipo-scenario") {
    in.fail("missing 'hipo-scenario v1' header");
  }

  Scenario::Config cfg;
  struct PairEntry {
    std::size_t q, t;
    PairParams pp;
  };
  std::vector<PairEntry> pairs;

  while (in.next(keyword)) {
    if (keyword == "region") {
      cfg.region.lo.x = in.number("lo.x");
      cfg.region.lo.y = in.number("lo.y");
      cfg.region.hi.x = in.number("hi.x");
      cfg.region.hi.y = in.number("hi.y");
      in.require(cfg.region.hi.x > cfg.region.lo.x &&
                     cfg.region.hi.y > cfg.region.lo.y,
                 "region must have hi > lo on both axes");
    } else if (keyword == "eps1") {
      cfg.eps1 = in.number("eps1 value");
      in.require(cfg.eps1 > 0.0, "eps1 must be positive");
    } else if (keyword == "charger_type") {
      ChargerType ct;
      ct.angle = in.number("angle");
      ct.d_min = in.number("d_min");
      ct.d_max = in.number("d_max");
      in.require(ct.angle > 0.0 && ct.angle <= geom::kTwoPi,
                 "charger angle must be in (0, 2pi]");
      in.require(ct.d_min >= 0.0, "charger d_min must be >= 0");
      in.require(ct.d_max > ct.d_min,
                 "charger d_max must be greater than d_min");
      cfg.charger_counts.push_back(in.index<int>("count"));
      cfg.charger_types.push_back(ct);
    } else if (keyword == "device_type") {
      const double angle = in.number("angle");
      in.require(angle > 0.0 && angle <= geom::kTwoPi,
                 "device receiving angle must be in (0, 2pi]");
      cfg.device_types.push_back({angle});
    } else if (keyword == "pair") {
      PairEntry e;
      e.q = in.index<std::size_t>("charger type index");
      e.t = in.index<std::size_t>("device type index");
      e.pp.a = in.number("a");
      e.pp.b = in.number("b");
      in.require(e.pp.a > 0.0 && e.pp.b > 0.0,
                 "pair power constants a, b must be positive");
      pairs.push_back(e);
    } else if (keyword == "obstacle") {
      const auto n = in.index<std::size_t>("vertex count");
      if (n < 3) in.fail("obstacle needs >= 3 vertices");
      std::vector<geom::Vec2> verts;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = in.number("vertex x");
        const double y = in.number("vertex y");
        verts.push_back({x, y});
      }
      try {
        cfg.obstacles.emplace_back(std::move(verts));
      } catch (const ConfigError& e) {
        in.fail(std::string("invalid obstacle polygon: ") + e.what());
      }
      in.require(cfg.obstacles.back().is_simple(),
                 "obstacle polygon must be simple (no self-intersections)");
    } else if (keyword == "device") {
      Device d;
      d.pos.x = in.number("x");
      d.pos.y = in.number("y");
      d.orientation = in.number("orientation");
      d.type = in.index<std::size_t>("type");
      d.p_th = in.number("p_th");
      in.require(d.p_th > 0.0, "device p_th must be positive");
      const std::string_view weight = in.token();  // optional; defaults to 1
      if (!weight.empty()) {
        in.require(parse_decimal(weight, d.weight), "expected weight");
        in.require(d.weight > 0.0,
                   "device weight must be positive and finite");
      }
      cfg.devices.push_back(d);
    } else {
      in.fail("unknown keyword '" + std::string(keyword) + "'");
    }
    in.end_of_line();
  }

  if (cfg.charger_types.empty()) in.fail("no charger_type");
  if (cfg.device_types.empty()) in.fail("no device_type");
  // Per-device weights are already required positive, so a zero total means
  // no devices at all — the normalized objective (Eq. 4's 1/N_o weighting)
  // is undefined on such a scenario; reject it at the I/O boundary instead
  // of producing constant-zero utilities downstream.
  double weight_total = 0.0;
  for (const auto& d : cfg.devices) weight_total += d.weight;
  if (!(weight_total > 0.0)) {
    in.fail("total device weight is zero (scenario has no devices); the "
            "normalized objective is undefined");
  }
  cfg.pair_params.assign(cfg.charger_types.size() * cfg.device_types.size(),
                         PairParams{});
  std::vector<bool> seen(cfg.pair_params.size(), false);
  for (const auto& e : pairs) {
    if (e.q >= cfg.charger_types.size() || e.t >= cfg.device_types.size()) {
      in.fail("pair indices out of range");
    }
    const std::size_t idx = e.q * cfg.device_types.size() + e.t;
    cfg.pair_params[idx] = e.pp;
    seen[idx] = true;
  }
  for (bool s : seen) {
    if (!s) in.fail("missing pair entry for some (q, t)");
  }
  return Scenario(std::move(cfg));
}

Scenario read_scenario(std::istream& is) { return read_scenario(slurp(is)); }

void write_scenario_file(const std::string& path, const Scenario& scenario) {
  std::ofstream out(path);
  HIPO_REQUIRE(out.good(), "cannot open scenario file for write: " + path);
  write_scenario(out, scenario);
}

Scenario read_scenario_file(const std::string& path) {
  return read_scenario(read_file(path, "scenario"));
}

void write_placement(std::ostream& os, const Placement& placement) {
  os << "hipo-placement v1\n";
  os << std::setprecision(17);
  for (const auto& s : placement) {
    os << "strategy " << s.pos.x << ' ' << s.pos.y << ' ' << s.orientation
       << ' ' << s.type << '\n';
  }
}

Placement read_placement(std::string_view text) {
  Reader in(text);
  std::string_view keyword;
  if (!in.next(keyword) || keyword != "hipo-placement") {
    in.fail("missing 'hipo-placement v1' header");
  }
  Placement placement;
  while (in.next(keyword)) {
    if (keyword != "strategy") in.fail("expected 'strategy'");
    Strategy s;
    s.pos.x = in.number("x");
    s.pos.y = in.number("y");
    s.orientation = in.number("orientation");
    s.type = in.index<std::size_t>("type");
    in.end_of_line();
    placement.push_back(s);
  }
  return placement;
}

Placement read_placement(std::istream& is) {
  return read_placement(slurp(is));
}

void write_placement_file(const std::string& path,
                          const Placement& placement) {
  std::ofstream out(path);
  HIPO_REQUIRE(out.good(), "cannot open placement file for write: " + path);
  write_placement(out, placement);
}

Placement read_placement_file(const std::string& path) {
  return read_placement(read_file(path, "placement"));
}

}  // namespace hipo::model
