// Candidate strategies with their covered-device sets (Definitions 4.1–4.3).
//
// A Candidate pairs a placement strategy with the set of devices it covers
// and the constant approximated power it delivers to each. Dominance
// (Definition 4.1) compares candidates of the same charger type: A is
// dominated by B when B covers a superset of A's devices — and, because our
// candidates carry per-device ring powers rather than living inside one
// feasible geometric area, we additionally require B's power to each of A's
// devices to be at least A's. This value-wise dominance is sound for the
// submodular objective (swapping A for B never decreases any marginal gain).
//
// Rows come in two containers: `Candidate` (one object per row, the public
// pool format) and `RowArena` (flat storage, the extraction task's scratch).
// The dominance filter reads either through `RowSource`/`RowView`, so there
// is one filter for both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/types.hpp"

namespace hipo::pdcs {

struct Candidate {
  model::Strategy strategy;
  /// Devices receiving nonzero approximated power, ascending indices.
  std::vector<std::size_t> covered;
  /// Approximated (ring-constant) power per covered device, parallel to
  /// `covered`.
  std::vector<double> powers;

  bool covers_nothing() const { return covered.empty(); }
};

/// Borrowed view of one row: covered devices and their powers, parallel.
struct RowView {
  std::span<const std::size_t> covered;
  std::span<const double> powers;
};

inline RowView row_view(const Candidate& c) { return {c.covered, c.powers}; }

/// The rows a dominance filter reads: `size` rows, row i given by a
/// caller-supplied accessor. It borrows the accessor, which must outlive it.
class RowSource {
 public:
  template <typename At>
  RowSource(std::size_t size, const At& at)
      : size_(size),
        at_(&at),
        call_([](const void* f, std::size_t i) {
          return (*static_cast<const At*>(f))(i);
        }) {}

  std::size_t size() const { return size_; }
  RowView operator[](std::size_t i) const { return call_(at_, i); }

 private:
  std::size_t size_;
  const void* at_;
  RowView (*call_)(const void*, std::size_t);
};

/// Flat row storage: every row's covered devices and powers live in two
/// shared arrays, delimited by offsets, and rows at one site (position and
/// charger type) share it. Appending allocates nothing once the arrays have
/// grown; clear() keeps their capacity.
class RowArena {
 public:
  std::size_t size() const { return rows_.size(); }
  void clear();

  /// Appends a row: begin_row, then push() its devices in order.
  void begin_row(const model::Strategy& s);
  void push(std::size_t device, double power) {
    covered_.push_back(device);
    powers_.push_back(power);
    ++offsets_.back();
  }

  RowView view(std::size_t r) const;
  Candidate materialize(std::size_t r) const;

 private:
  struct Site {
    geom::Vec2 pos;
    std::size_t type;
  };
  struct Row {
    double orientation;
    std::uint32_t site;
  };
  std::vector<Site> sites_;
  std::vector<Row> rows_;
  /// Row r spans [offsets_[r], offsets_[r + 1]) of covered_ / powers_.
  std::vector<std::uint32_t> offsets_{0};
  std::vector<std::size_t> covered_;
  std::vector<double> powers_;
};

/// True iff `a` is dominated by (or equivalent to and ranked after) `b`:
/// covered(a) ⊆ covered(b) with power(b, j) >= power(a, j) − eps for every
/// j covered by a. Rows must share a charger type for the comparison to be
/// meaningful; the caller guarantees it.
bool dominated_by(RowView a, RowView b, double eps = 1e-12);
inline bool dominated_by(const Candidate& a, const Candidate& b,
                         double eps = 1e-12) {
  return dominated_by(row_view(a), row_view(b), eps);
}

/// A row's total power, summed in covered order: the second key of the
/// admission order below.
inline double total_power(RowView row) {
  double total = 0.0;
  for (const double p : row.powers) total += p;
  return total;
}

/// The admission order DominanceFilter::run visits rows in and returns its
/// survivors in: more covered devices first, then more total power, then
/// the earlier input position. The filter tests each row only against the
/// kept rows before it in this order that cover a superset of its devices.
template <typename Pos>
bool admitted_before(std::size_t size_a, double power_a, const Pos& pos_a,
                     std::size_t size_b, double power_b, const Pos& pos_b) {
  if (size_a != size_b) return size_a > size_b;
  if (power_a != power_b) return power_a > power_b;
  return pos_a < pos_b;
}

/// The dominance filter with its working buffers kept between calls, so a
/// caller that filters many pools (one per extraction task) allocates only
/// while the buffers grow. Not thread-safe; keep one per thread.
class DominanceFilter {
 public:
  /// Survivor positions in survivor order: the admission order of the
  /// internal size/power/position sort, which is the order
  /// filter_dominated returns them in. The span stays valid until the next
  /// call.
  std::span<const std::size_t> run(const RowSource& rows,
                                   std::size_t num_devices);

 private:
  /// A row's rank in the admission order.
  struct Rank {
    double total_power;
    std::uint32_t size;
    std::uint32_t row;
  };
  std::vector<Rank> order_;
  /// Device → dense local id (kNoId while unseen) and the devices seen, in
  /// first-seen order.
  std::vector<std::uint32_t> local_of_;
  std::vector<std::size_t> universe_;
  std::vector<std::uint32_t> local_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::uint64_t> kept_masks_;
  std::vector<std::vector<std::uint32_t>> kept_by_device_;
  std::vector<std::size_t> kept_;
};

/// Remove dominated candidates (Algorithm 2 step 9 / Algorithm 4 step 11).
/// Also removes exact duplicates. Stable in the sense that survivors keep
/// their relative order of first appearance among equals.
std::vector<Candidate> filter_dominated(std::vector<Candidate> candidates,
                                        std::size_t num_devices);

}  // namespace hipo::pdcs
