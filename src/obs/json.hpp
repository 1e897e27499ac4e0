// The two JSON text primitives: string escaping and number formatting.
// Json::dump (src/obs/wire.hpp) is their one caller in src/ and tools/;
// every document the program writes goes through it. They stay public for
// the hand-formatted BENCH_*.json writers in bench/ and perfbench/.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace hipo::obs {

/// Escape a string for use inside a JSON string literal.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A double as a valid JSON value (17 significant digits round-trips).
/// Non-finite values have no JSON number representation; emitting them
/// verbatim would corrupt the document and "0" would silently fabricate
/// data, so they become `null` — parsers see "value absent", not a lie.
/// std::to_chars with general format and precision 17 writes the same
/// characters as an ostream at precision(17) (printf "%.17g"), without a
/// stream construction per number: serve responses carry thousands.
inline std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17).ptr;
  return std::string(buf, end);
}

}  // namespace hipo::obs
