// Differential and invariant oracles for the geometry → PDCS → greedy
// pipeline.
//
// Each oracle replays part of the pipeline against an independent reference
// implementation (brute-force obstacle scans, from-scratch Eq. (1)
// membership, Monte-Carlo sector sampling) or against a machine-checkable
// bound from the paper (Lemma 4.1's pointwise ratio, the matroid-greedy
// approximation factors), and reports the first violated invariant with
// enough detail to reproduce it. Probes are drawn deterministically from
// the given seed, so (scenario, seed) fully determines the verdict.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "src/model/scenario.hpp"

namespace hipo::fuzz {

struct Violation {
  std::string oracle;  ///< machine-readable oracle name
  std::string detail;  ///< human-readable description with reproduce data
};

using Oracle = std::optional<Violation> (*)(const model::Scenario&,
                                            std::uint64_t);

struct NamedOracle {
  const char* name;
  Oracle fn;
};

/// The eight oracles, in fixed execution order.
std::span<const NamedOracle> all_oracles();

/// (1) SegmentIndex line-of-sight / containment vs. the brute-force
/// O(polygons·edges) scan, on random, device-anchored, and
/// obstacle-vertex-anchored probe segments. Must match bit-for-bit.
std::optional<Violation> check_line_of_sight(const model::Scenario& scenario,
                                             std::uint64_t seed);

/// (2) Coverage sets: SectorRing membership vs. Monte-Carlo reference
/// membership, point-case candidate soundness (claimed covered devices
/// really receive their claimed power), and sweep completeness (the covered
/// set of any probed orientation is dominated by some candidate).
std::optional<Violation> check_coverage(const model::Scenario& scenario,
                                        std::uint64_t seed);

/// (3) Lemma 4.1: P(d)/P̃(d) ∈ [1, 1+ε₁] pointwise on [d_min, d_max] for
/// every ladder, probing exact rung radii and their float neighbors;
/// ladder structure (sorted rungs, no index gaps, monotone powers).
std::optional<Violation> check_piecewise(const model::Scenario& scenario,
                                         std::uint64_t seed);

/// (4) Greedy: both selection orders bit-identical to a plain rescan argmax
/// (no heap, no gain cache) on every tractable instance; then, on tiny
/// instances, vs. exhaustive search: the ½ matroid bound (and 1−1/e with a
/// single charger type, plus the (1−1/e)/(1+ε₁) end-to-end chain on exact
/// utilities) and placement validity. The exhaustive part is skipped when
/// the instance is too large to brute-force.
std::optional<Violation> check_greedy_bound(const model::Scenario& scenario,
                                            std::uint64_t seed);

/// (5) Full-pipeline determinism: solve with no pool, 1 worker, and 3
/// workers must produce bit-identical placements and utilities.
std::optional<Violation> check_determinism(const model::Scenario& scenario,
                                           std::uint64_t seed);

/// (6) Incremental re-solve: a random churn sequence (device add / remove /
/// move, obstacle add / remove) applied through opt::DeltaSolver must be
/// bit-identical to a cold solve of the mutated scenario after every prefix
/// — warm coverage matrix, selection, placement, and both utilities.
/// Skips (returns nullopt) when extraction is intractable.
std::optional<Violation> check_delta(const model::Scenario& scenario,
                                     std::uint64_t seed);

/// (7) Sharded extraction: for shard counts {2, 4, 7}, the merged
/// multi-shard candidate pool must be bit-identical to single-process
/// extract_all — on a scenario augmented with devices pinned exactly on a
/// shard border and exactly 2·d_max away from one (pairs whose Algorithm 4
/// neighbor set crosses a border). In-process runner only, so the oracle is
/// sanitizer-friendly. Skips when extraction is intractable.
std::optional<Violation> check_shard(const model::Scenario& scenario,
                                     std::uint64_t seed);

/// (8) Parsers under byte mutation: the scenario's write_scenario text,
/// a `solve` request carrying it, and a delta script over its devices and
/// obstacles each get 500 seeded mutants (bit flips, byte inserts and
/// deletes, duplicated tokens, spliced lines, changed digits).
/// model::read_scenario must match the istream reference reader
/// (reference_io.hpp): same verdict, same error message, and on accept a
/// bit-identical Config and scenario_key. serve::parse_json and
/// opt::parse_delta_script may throw only ConfigError, and an accepted
/// JSON document's canonical dump must re-parse to the same dump. The
/// detail names the format, the mutant and its escaped mutated line.
std::optional<Violation> check_parse(const model::Scenario& scenario,
                                     std::uint64_t seed);

/// The scenario half of check_parse on one text: null when
/// model::read_scenario and the reference reader agree, else what differs.
std::optional<std::string> compare_scenario_readers(const std::string& text);

/// Run one oracle, converting any exception that escapes the pipeline (an
/// InvariantError from a tripped internal assertion, a std::logic_error, a
/// crash-adjacent throw) into a Violation — a fuzz input that makes the
/// library throw unexpectedly is a finding, not a harness failure, and this
/// is what lets the shrinker minimize crashing inputs too.
std::optional<Violation> run_oracle(const NamedOracle& oracle,
                                    const model::Scenario& scenario,
                                    std::uint64_t seed);

/// Run every oracle in order; first violation wins.
std::optional<Violation> run_all(const model::Scenario& scenario,
                                 std::uint64_t seed);

}  // namespace hipo::fuzz
