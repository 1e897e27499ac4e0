// Canonical scenario content hash — the cache key of hipo::serve.
//
// The hash is computed over the *parsed* model, not the file bytes, so two
// config files that parse to the same Scenario (different line order,
// whitespace, comments, number spellings of the same double) hash equal,
// while any semantic change — a device nudged, a budget bumped, an obstacle
// vertex moved, eps1 retuned — changes it. Doubles contribute their exact
// IEEE-754 bit patterns (no rounding ambiguity), and every field is fed
// behind a distinct tag with its container length, so field permutations or
// concatenation coincidences cannot collide structurally. Every
// Scenario::Config field is hashed.
#pragma once

#include <cstdint>
#include <string>

#include "src/model/scenario.hpp"

namespace hipo::serve {

/// 64-bit FNV-1a over the canonical field stream described above.
std::uint64_t scenario_hash(const model::Scenario& scenario);

/// The hash as the fixed-width lowercase hex string used on the wire.
std::string scenario_key(const model::Scenario& scenario);
std::string hash_to_key(std::uint64_t hash);

}  // namespace hipo::serve
