#include "src/util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "src/util/error.hpp"

namespace hipo {

Cli::Cli(int argc, const char* const* argv) {
  HIPO_REQUIRE(argc >= 1, "argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    HIPO_REQUIRE(arg.rfind("--", 0) == 0, "expected --flag, got: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      consumed_[arg.substr(0, eq)] = false;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      consumed_[arg] = false;
      ++i;
    } else {
      // Not `= "1"`: GCC 12 at -O3 reports a false -Wrestrict overlap in
      // the literal assignment.
      values_[arg] = std::string(1, '1');
      consumed_[arg] = false;
    }
  }
}

std::optional<std::string> Cli::get(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    consumed_.emplace(name, true);
    return std::nullopt;
  }
  consumed_[name] = true;
  return it->second;
}

std::string Cli::get_or(const std::string& name, const std::string& fallback) {
  return get(name).value_or(fallback);
}

double Cli::get_or(const std::string& name, double fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  // std::stod alone accepts trailing garbage ("2000abc" → 2000); require
  // the whole argument to be consumed so typos fail loudly.
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*v, &consumed);
    if (consumed == v->size()) return parsed;
  } catch (const std::exception&) {
  }
  throw ConfigError("flag --" + name + " expects a number, got: '" + *v + "'");
}

int Cli::get_or(const std::string& name, int fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const int parsed = std::stoi(*v, &consumed);
    if (consumed == v->size()) return parsed;
  } catch (const std::exception&) {
  }
  throw ConfigError("flag --" + name + " expects an integer, got: '" + *v +
                    "'");
}

bool Cli::has(const std::string& name) { return get(name).has_value(); }

void Cli::finish() const {
  for (const auto& [name, used] : consumed_) {
    if (!used)
      throw ConfigError("unknown flag --" + name + " (see " + program_ + ")");
  }
}

int env_int_or(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  // Same full-consumption rule as Cli::get_or, but lenient: environment
  // overrides fall back instead of throwing ("17abc" → fallback).
  try {
    const std::string text(value);
    std::size_t consumed = 0;
    const int parsed = std::stoi(text, &consumed);
    if (consumed == text.size()) return parsed;
  } catch (const std::exception&) {
  }
  return fallback;
}

}  // namespace hipo
