// The `parse` oracle (oracles.hpp): seeded byte mutations of the three text
// formats a client can send — scenario text, a JSON `solve` request and a
// JSONL delta script.
#include <cstdio>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/fuzz/oracles.hpp"
#include "src/fuzz/reference_io.hpp"
#include "src/model/io.hpp"
#include "src/opt/delta.hpp"
#include "src/serve/hash.hpp"
#include "src/serve/wire.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace hipo::fuzz {

using model::Scenario;
using serve::Json;

namespace {

/// Mutated inputs per format and oracle call.
constexpr int kMutants = 500;

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Number spellings where a stream reader and std::from_chars can differ.
constexpr std::string_view kEdgeTokens[] = {
    "+0", "-0",  "+.5",     "5.",       "007", "1e400", "-1e-400",
    "4.9e-324", "inf", "nan", "0x1p3", "1e",  "-.5E+1"};

/// Applies one random byte-level edit: flip a bit, insert a byte, delete a
/// short run, duplicate a token, splice a line in elsewhere, change a
/// digit into another digit, or replace a token with an edge spelling.
void mutate(std::string& s, Rng& rng) {
  static constexpr std::string_view kInserts =
      "0123456789.+-eE \t\n\r\v\f#x";
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  // [b, e) of the token holding a random byte; empty on whitespace.
  const auto token = [&](std::size_t& b, std::size_t& e) {
    b = e = pos(s.size());
    if (is_space(s[b])) return false;
    while (b > 0 && !is_space(s[b - 1])) --b;
    while (e < s.size() && !is_space(s[e])) ++e;
    return true;
  };
  std::size_t b = 0, e = 0;
  switch (rng.below(7)) {
    case 0:  // flip a bit
      if (!s.empty()) s[pos(s.size())] ^= static_cast<char>(1 << rng.below(8));
      break;
    case 1: {  // insert a byte, format-shaped most of the time
      const char c = rng.below(4) == 0
                         ? static_cast<char>(rng.below(256))
                         : kInserts[pos(kInserts.size())];
      std::size_t at = pos(s.size() + 1);
      // Half the time at the start of a token, where a sign or a prefix
      // changes how the token reads.
      if (rng.below(2) == 0) {
        while (at > 0 && !is_space(s[at - 1])) --at;
      }
      s.insert(at, 1, c);
      break;
    }
    case 2:  // delete 1–4 bytes
      if (!s.empty()) s.erase(pos(s.size()), 1 + rng.below(4));
      break;
    case 3:  // duplicate a token
      if (!s.empty() && token(b, e)) {
        // Two inserts, not `" " + substr`: GCC 12 at -O3 reports a false
        // -Wrestrict overlap in that concatenation.
        s.insert(e, s.substr(b, e - b));
        s.insert(e, 1, ' ');
      }
      break;
    case 4: {  // copy a whole line to the start of another
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t from = starts[pos(starts.size())];
      const std::size_t end = s.find('\n', from);
      std::string line = s.substr(from, end == std::string::npos
                                            ? std::string::npos
                                            : end - from + 1);
      if (line.empty() || line.back() != '\n') line += '\n';
      s.insert(starts[pos(starts.size())], line);
      break;
    }
    case 5: {  // change the first digit at or after a random byte
      if (s.empty()) break;
      for (std::size_t i = pos(s.size()); i < s.size(); ++i) {
        if (s[i] >= '0' && s[i] <= '9') {
          s[i] = static_cast<char>('0' + (s[i] - '0' + 1 + rng.below(9)) % 10);
          break;
        }
      }
      break;
    }
    case 6:  // replace a token with an edge spelling
      if (!s.empty() && token(b, e)) {
        s.replace(b, e - b, kEdgeTokens[pos(std::size(kEdgeTokens))]);
      }
      break;
  }
}

/// A copy of `original` with one or two edits.
std::string mutant(const std::string& original, Rng& rng) {
  std::string s = original;
  const int edits = 1 + static_cast<int>(rng.below(2));
  for (int k = 0; k < edits; ++k) mutate(s, rng);
  return s;
}

/// The mutant's line holding its first byte that differs from the
/// original (at most 80 bytes either side of it), with every byte outside
/// printable ASCII written as \xNN.
std::string mutated_line(const std::string& original,
                         const std::string& text) {
  std::size_t at = 0;
  while (at < original.size() && at < text.size() &&
         original[at] == text[at]) {
    ++at;
  }
  constexpr std::size_t kContext = 80;
  std::size_t begin = at;
  while (begin > 0 && text[begin - 1] != '\n' && at - begin < kContext) {
    --begin;
  }
  std::size_t end = at;
  while (end < text.size() && text[end] != '\n' && end - at < kContext) {
    ++end;
  }
  std::string out = "\"";
  for (std::size_t i = begin; i < end; ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c < 0x7f && c != '\\' && c != '"') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out + "\"";
}

template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Every field of a config as raw bytes: equal iff bit-identical.
std::string config_bytes(const Scenario::Config& c) {
  std::string out;
  put(out, c.region.lo.x);
  put(out, c.region.lo.y);
  put(out, c.region.hi.x);
  put(out, c.region.hi.y);
  put(out, c.eps1);
  put(out, c.charger_types.size());
  for (const auto& ct : c.charger_types) {
    put(out, ct.angle);
    put(out, ct.d_min);
    put(out, ct.d_max);
  }
  for (const int n : c.charger_counts) put(out, n);
  put(out, c.device_types.size());
  for (const auto& dt : c.device_types) put(out, dt.angle);
  for (const auto& pp : c.pair_params) {
    put(out, pp.a);
    put(out, pp.b);
  }
  put(out, c.obstacles.size());
  for (const auto& h : c.obstacles) {
    put(out, h.size());
    for (const auto& v : h.vertices()) {
      put(out, v.x);
      put(out, v.y);
    }
  }
  put(out, c.devices.size());
  for (const auto& d : c.devices) {
    put(out, d.pos.x);
    put(out, d.pos.y);
    put(out, d.orientation);
    put(out, d.type);
    put(out, d.p_th);
    put(out, d.weight);
  }
  return out;
}

/// A parser's answer: the scenario, or the message of the ConfigError it
/// threw, or the message of any other exception.
struct Verdict {
  std::optional<Scenario> scenario;
  std::string error;
  std::optional<std::string> unexpected;

  std::string describe() const {
    if (scenario) return "accepted";
    if (unexpected) return "threw a non-ConfigError: " + *unexpected;
    return "rejected: " + error;
  }
};

template <typename Parse>
Verdict verdict_of(Parse&& parse) {
  Verdict v;
  try {
    v.scenario.emplace(parse());
  } catch (const ConfigError& e) {
    v.error = e.what();
  } catch (const std::exception& e) {
    v.unexpected = e.what();
  }
  return v;
}

}  // namespace

std::optional<std::string> compare_scenario_readers(const std::string& text) {
  const Verdict got =
      verdict_of([&] { return model::read_scenario(std::string_view(text)); });
  const Verdict ref = verdict_of([&] {
    std::istringstream is(text);
    return reference_read_scenario(is);
  });
  if (got.unexpected || ref.unexpected ||
      got.scenario.has_value() != ref.scenario.has_value() ||
      got.error != ref.error) {
    return "read_scenario " + got.describe() + "; reference " +
           ref.describe();
  }
  if (!got.scenario) return std::nullopt;
  if (config_bytes(got.scenario->to_config()) !=
      config_bytes(ref.scenario->to_config())) {
    return std::string("accepted configs not bit-identical");
  }
  if (serve::scenario_key(*got.scenario) !=
      serve::scenario_key(*ref.scenario)) {
    return std::string("scenario_key differs");
  }
  return std::nullopt;
}

namespace {

/// Null when parse_json either rejects `text` with a ConfigError or accepts
/// it and its canonical dump is a fixed point: parse(dump) == dump.
std::optional<std::string> check_json(const std::string& text) {
  std::string once;
  try {
    once = serve::parse_json(text).dump();
  } catch (const ConfigError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string("parse_json threw a non-ConfigError: ") + e.what();
  }
  try {
    const std::string twice = serve::parse_json(once).dump();
    if (twice != once) {
      return "dump(parse(x)) is not a fixed point: " + once + " vs " + twice;
    }
  } catch (const std::exception& e) {
    return "parse_json rejects its own dump " + once + ": " + e.what();
  }
  return std::nullopt;
}

std::optional<std::string> check_delta_script(const std::string& text) {
  try {
    (void)opt::parse_delta_script(text);
  } catch (const ConfigError&) {
  } catch (const std::exception& e) {
    return std::string("parse_delta_script threw a non-ConfigError: ") +
           e.what();
  }
  return std::nullopt;
}

/// A `solve` request carrying the scenario text, as a client sends it.
std::string solve_request(const std::string& scenario_text) {
  Json req = Json::object();
  req.set("type", Json::string("solve"));
  req.set("scenario", Json::string(scenario_text));
  return req.dump();
}

/// A delta script (docs/FORMATS.md) touching the scenario's devices and
/// obstacles with every op kind, plus a comment and a blank line.
std::string delta_script(const Scenario& s) {
  std::string out = "# parse oracle script\n\n";
  const auto line = [&](Json op) { out += op.dump() + "\n"; };
  const geom::Vec2 mid = (s.region().lo + s.region().hi) * 0.5;
  Json add = Json::object();
  add.set("op", Json::string("add_device"));
  add.set("x", Json::number(mid.x));
  add.set("y", Json::number(mid.y));
  add.set("orientation", Json::number(1.25));
  add.set("type", Json::number(0));
  add.set("p_th", Json::number(s.num_devices() > 0 ? s.device(0).p_th : 0.05));
  add.set("weight", Json::number(2));
  line(std::move(add));
  if (s.num_devices() > 0) {
    Json move = Json::object();
    move.set("op", Json::string("move_device"));
    move.set("index", Json::number(0));
    move.set("x", Json::number(s.device(0).pos.x));
    move.set("y", Json::number(s.device(0).pos.y));
    move.set("orientation", Json::number(s.device(0).orientation));
    line(std::move(move));
  }
  Json obstacle = Json::object();
  obstacle.set("op", Json::string("add_obstacle"));
  Json vertices = Json::array();
  const geom::Vec2 ext = s.region().extent();
  for (const geom::Vec2 corner : {geom::Vec2{0.0, 0.0}, geom::Vec2{1.0, 0.0},
                                  geom::Vec2{1.0, 1.0}, geom::Vec2{0.0, 1.0}}) {
    Json v = Json::array();
    v.push(Json::number(s.region().lo.x + (0.1 + 0.05 * corner.x) * ext.x));
    v.push(Json::number(s.region().lo.y + (0.1 + 0.05 * corner.y) * ext.y));
    vertices.push(std::move(v));
  }
  obstacle.set("vertices", std::move(vertices));
  line(std::move(obstacle));
  Json remove_obstacle = Json::object();
  remove_obstacle.set("op", Json::string("remove_obstacle"));
  remove_obstacle.set("index",
                      Json::number(static_cast<double>(s.num_obstacles())));
  line(std::move(remove_obstacle));
  Json remove = Json::object();
  remove.set("op", Json::string("remove_device"));
  remove.set("index", Json::number(static_cast<double>(s.num_devices())));
  line(std::move(remove));
  return out;
}

}  // namespace

std::optional<Violation> check_parse(const Scenario& scenario,
                                     std::uint64_t seed) {
  Rng rng(seed_combine(seed, 0x9A25E));
  std::ostringstream os;
  model::write_scenario(os, scenario);
  const std::string text = os.str();

  // Both readers agree on the unmutated text, and it round-trips bit for
  // bit (a device-free scenario is one the model admits and the format
  // rejects).
  if (const auto why = compare_scenario_readers(text)) {
    return Violation{"parse", "unmutated scenario text: " + *why};
  }
  if (scenario.num_devices() > 0 &&
      config_bytes(model::read_scenario(text).to_config()) !=
          config_bytes(scenario.to_config())) {
    return Violation{"parse", "write_scenario/read_scenario round trip is "
                              "not bit-identical"};
  }

  const struct {
    const char* format;
    std::string original;
    std::optional<std::string> (*check)(const std::string&);
  } formats[] = {
      {"scenario", text, &compare_scenario_readers},
      {"json", solve_request(text), &check_json},
      {"delta script", delta_script(scenario), &check_delta_script},
  };
  for (const auto& f : formats) {
    for (int i = 0; i < kMutants; ++i) {
      const std::string input = mutant(f.original, rng);
      if (const auto why = f.check(input)) {
        return Violation{"parse", std::string(f.format) + " mutant " +
                                      std::to_string(i) + ", line " +
                                      mutated_line(f.original, input) +
                                      ": " + *why};
      }
    }
  }
  return std::nullopt;
}

}  // namespace hipo::fuzz
