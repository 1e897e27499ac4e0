// Plain-text serialization of scenarios and placements.
//
// A deliberately simple line-oriented format so instances can be versioned,
// diffed, and shipped to the CLI tool without a JSON dependency:
//
//   hipo-scenario v1
//   region <lo.x> <lo.y> <hi.x> <hi.y>
//   eps1 <value>
//   charger_type <angle> <d_min> <d_max> <count>     (one per type)
//   device_type <angle>                              (one per type)
//   pair <q> <t> <a> <b>                             (one per pair)
//   obstacle <n> <x1> <y1> ... <xn> <yn>
//   device <x> <y> <orientation> <type> <p_th> [weight]   (weight: 1)
//
// Placements:
//
//   hipo-placement v1
//   strategy <x> <y> <orientation> <type>
//
// Lines starting with '#' and blank lines are ignored. Every field is
// exactly one whitespace-separated token, and a token after a line's last
// field is an error. Index and count fields (count, q, t, n, type) are
// unsigned decimal digits; every other field is a finite decimal number
// ([+-] digits [. digits] [e [+-] digits]; no inf, nan or hex).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/model/scenario.hpp"

namespace hipo::model {

void write_scenario(std::ostream& os, const Scenario& scenario);
void write_scenario_file(const std::string& path, const Scenario& scenario);

/// Parses the format above in one pass over `text`; throws ConfigError
/// with a line number on any malformed input.
Scenario read_scenario(std::string_view text);
/// Reads the whole stream, then parses it as above.
Scenario read_scenario(std::istream& is);
Scenario read_scenario_file(const std::string& path);

void write_placement(std::ostream& os, const Placement& placement);
void write_placement_file(const std::string& path,
                          const Placement& placement);
Placement read_placement(std::string_view text);
Placement read_placement(std::istream& is);
Placement read_placement_file(const std::string& path);

}  // namespace hipo::model
