// The P2/P3 objective (Section 4.3): normalized total charging utility of a
// set of candidate strategies, using the approximated (ring-constant) powers
// the candidates carry.
//
//   f(X) = (1/N_o) Σ_j U_j( Σ_{c ∈ X} P̃(c, o_j) )
//
// f is normalized, monotone and submodular (Lemma 4.6): each U_j is concave
// non-decreasing and the inner sum is additive, so marginal gains shrink as
// accumulated power grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::opt {

/// Per-device transform of the utility (both keep f monotone submodular):
///   kUtility    — P1/P3's Σ U_j (Eq. 4);
///   kLogUtility — Σ log(U_j + 1), the proportional-fairness objective of
///                 Section 8.3 (Eq. 16): concave of a concave non-decreasing
///                 function of additive power.
enum class ObjectiveKind { kUtility, kLogUtility };

/// Gains at or below this threshold count as zero: no candidate is worth
/// selecting for less, and the lazy greedy drops such entries permanently
/// (submodularity: their gains only shrink further).
inline constexpr double kMinGain = 1e-15;

class ChargingObjective {
 public:
  /// Packs `candidates` into an owned CoverageMatrix; the gain loops run
  /// on its arenas, so the span is not retained. The scenario must outlive
  /// the objective.
  ChargingObjective(const model::Scenario& scenario,
                    std::span<const pdcs::Candidate> candidates,
                    ObjectiveKind kind = ObjectiveKind::kUtility);

  /// Objective over a caller-owned, already-built matrix (the delta path's
  /// warm arenas): no packing work. The matrix must outlive the objective
  /// and match the scenario's device count.
  ChargingObjective(const model::Scenario& scenario,
                    const CoverageMatrix& prebuilt,
                    ObjectiveKind kind = ObjectiveKind::kUtility);

  std::size_t num_candidates() const { return mat_->num_rows(); }
  /// Strategy of candidate i, served from the CSR row metadata.
  const model::Strategy& strategy(std::size_t i) const;
  /// The packed coverage structure (owned or borrowed).
  const CoverageMatrix& matrix() const { return *mat_; }

  /// f(X) for an explicit index set (recomputed from scratch).
  double value(std::span<const std::size_t> selected) const;

  /// Incremental evaluation state: accumulated approximated power per
  /// device plus the current objective value.
  class State {
   public:
    explicit State(const ChargingObjective& objective);

    double value() const { return value_; }
    /// Marginal gain f(X ∪ {i}) − f(X); does not modify the state.
    double gain(std::size_t i) const;
    /// Add candidate i to X. With incremental tracking on, also marks
    /// dirty exactly the rows reachable from i's covered devices via the
    /// inverted index — the only candidates whose gain can have changed.
    void add(std::size_t i);
    const std::vector<double>& device_power() const { return power_; }

    /// Switch on cached-gain / dirty-set tracking (a no-op with an empty
    /// pool). Opt-in because it costs two O(n) arrays per State: the greedy
    /// wants it, while exhaustive search and local search construct/copy
    /// States far too often to pay for it.
    ///
    /// Thread-safety: gain() then writes cache entries through `mutable`
    /// members. Concurrent gain() calls are safe iff they target distinct
    /// candidates — which the greedy's parallel initial gains guarantee
    /// (one row per task). The cached value is bit-identical to a fresh
    /// recomputation by construction, so determinism across worker counts
    /// is unaffected.
    void enable_incremental();
    bool incremental() const { return !dirty_.empty(); }

    /// True when i's cached gain is stale (or tracking is off): the next
    /// gain(i) will recompute. Exposed for the dirty-invariant tests.
    bool is_dirty(std::size_t i) const {
      return dirty_.empty() || dirty_[i] != 0;
    }
    /// Fresh marginal gain, bypassing the cache — the test oracle for the
    /// cached-gain ≡ recomputed-gain invariant.
    double recompute_gain(std::size_t i) const;

   private:
    const ChargingObjective* objective_;
    std::vector<double> power_;
    double value_ = 0.0;
    /// Incremental tracking (empty unless enable_incremental ran):
    /// cached_gain_[i] is valid iff dirty_[i] == 0. Plain bytes, not packed
    /// bits — parallel initial gains clear flags of different candidates,
    /// and distinct vector<uint8_t> elements are distinct memory locations
    /// while bits of a shared word are not.
    mutable std::vector<double> cached_gain_;
    mutable std::vector<std::uint8_t> dirty_;
  };

  const model::Scenario& scenario() const { return *scenario_; }

  ObjectiveKind kind() const { return kind_; }

 private:
  friend class State;

  void init_device_caches(const model::Scenario& scenario);

  const model::Scenario* scenario_;
  /// Owned storage of the span constructor (null when borrowed).
  /// unique_ptr keeps the objective cheaply movable.
  std::unique_ptr<CoverageMatrix> matrix_;
  /// The matrix the gain loops read: matrix_.get() when owned, the
  /// caller's matrix when borrowed. Never null.
  const CoverageMatrix* mat_ = nullptr;
  /// Per-device caches the row gains gather from. weight_over_pth_
  /// pre-divides weight/p_th so the utility row's per-element delta is
  /// division-free: (min(acc+q, th) − min(acc, th)) · (w/th).
  std::vector<double> p_th_;
  std::vector<double> weight_;
  std::vector<double> weight_over_pth_;
  double weight_total_ = 0.0;
  ObjectiveKind kind_;
};

}  // namespace hipo::opt
