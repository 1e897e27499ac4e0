// The istream scenario reader the `hipo-scenario v1` format was first
// defined by, kept as the differential reference for the `parse` oracle
// (oracles.hpp). It reads every line through std::getline and every field
// through operator>> in its own std::istringstream, the slow but obviously
// standard way; model::read_scenario must give the same verdict, the same
// error message and a bit-identical Config on every input.
//
// It has the one-token-per-field rule of the format (model/io.hpp): a field
// is one whole whitespace token, index and count fields take no sign, and
// a token after a line's last field is an error. It is test-only code and
// is not linked into hipo_model.
#pragma once

#include <iosfwd>

#include "src/model/scenario.hpp"

namespace hipo::fuzz {

model::Scenario reference_read_scenario(std::istream& is);

}  // namespace hipo::fuzz
