#include "src/pdcs/candidate.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/util/error.hpp"

namespace hipo::pdcs {

void RowArena::clear() {
  sites_.clear();
  rows_.clear();
  offsets_.assign(1, 0);
  covered_.clear();
  powers_.clear();
}

void RowArena::begin_row(const model::Strategy& s) {
  // Sites compare by exact bits, so a row never changes its position's sign
  // of zero by sharing a site.
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  if (sites_.empty() || sites_.back().type != s.type ||
      !same_bits(sites_.back().pos.x, s.pos.x) ||
      !same_bits(sites_.back().pos.y, s.pos.y)) {
    sites_.push_back({s.pos, s.type});
  }
  rows_.push_back({s.orientation, static_cast<std::uint32_t>(sites_.size() - 1)});
  offsets_.push_back(offsets_.back());
}

RowView RowArena::view(std::size_t r) const {
  HIPO_ASSERT(r < size());
  const std::size_t begin = offsets_[r];
  const std::size_t len = offsets_[r + 1] - begin;
  return {std::span<const std::size_t>(covered_).subspan(begin, len),
          std::span<const double>(powers_).subspan(begin, len)};
}

Candidate RowArena::materialize(std::size_t r) const {
  const RowView v = view(r);
  const Site& site = sites_[rows_[r].site];
  return Candidate{model::Strategy{site.pos, rows_[r].orientation, site.type},
                   std::vector<std::size_t>(v.covered.begin(), v.covered.end()),
                   std::vector<double>(v.powers.begin(), v.powers.end())};
}

bool dominated_by(RowView a, RowView b, double eps) {
  if (a.covered.size() > b.covered.size()) return false;
  // Merge-walk: every device of a must appear in b with >= power.
  std::size_t ib = 0;
  for (std::size_t ia = 0; ia < a.covered.size(); ++ia) {
    while (ib < b.covered.size() && b.covered[ib] < a.covered[ia]) ++ib;
    if (ib == b.covered.size() || b.covered[ib] != a.covered[ia]) return false;
    if (b.powers[ib] + eps < a.powers[ia]) return false;
  }
  return true;
}

std::span<const std::size_t> DominanceFilter::run(const RowSource& rows,
                                                  std::size_t num_devices) {
  HIPO_ASSERT(rows.size() <= UINT32_MAX);
  // Sort by decreasing coverage size, then decreasing total power: a row
  // can only be dominated by one at or before it in this order.
  order_.clear();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowView row = rows[i];
    double total = 0.0;
    for (double p : row.powers) total += p;
    order_.push_back({total, static_cast<std::uint32_t>(row.covered.size()),
                      static_cast<std::uint32_t>(i)});
  }
  std::sort(order_.begin(), order_.end(), [](const Rank& x, const Rank& y) {
    if (x.size != y.size) return x.size > y.size;
    if (x.total_power != y.total_power) return x.total_power > y.total_power;
    return x.row < y.row;
  });

  // Dense local universe: the distinct devices actually covered by this
  // pool, numbered in first-seen order. Masks and the inverted index are
  // sized by it instead of `num_devices`, so a per-task filter over a
  // handful of devices costs O(pool), not O(total devices) — extraction
  // filters once per device task, and sizing by the global count made it
  // quadratic in the scenario. Subset tests and the rarest-device probe are
  // invariant under any one-to-one renumbering, so the survivor set is
  // unchanged.
  constexpr std::uint32_t kNoId = UINT32_MAX;
  if (local_of_.size() < num_devices) local_of_.resize(num_devices, kNoId);
  universe_.clear();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j : rows[i].covered) {
      HIPO_ASSERT(j < num_devices);
      if (local_of_[j] == kNoId) {
        local_of_[j] = static_cast<std::uint32_t>(universe_.size());
        universe_.push_back(j);
      }
    }
  }
  const std::size_t words = (universe_.size() + 63) / 64;

  kept_.clear();
  kept_masks_.clear();
  // Inverted device→kept-row index, grown as survivors are admitted. A
  // dominator must cover *every* device of the row, so it is enough to
  // test the kept rows covering its least-popular covered device: pairs
  // with non-overlapping coverage never reach the O(words) mask test, and
  // the scan shrinks from |kept| to the shortest inverted list. The lists
  // are appended in kept order, so the existential outcome (and thus the
  // survivor set) is identical to the full scan.
  if (kept_by_device_.size() < universe_.size()) {
    kept_by_device_.resize(universe_.size());
  }
  for (std::size_t u = 0; u < universe_.size(); ++u) kept_by_device_[u].clear();
  for (const Rank& rank : order_) {
    const RowView row = rows[rank.row];
    if (row.covered.empty()) continue;
    local_.clear();
    mask_.assign(words, 0);
    for (std::size_t j : row.covered) {
      const std::uint32_t u = local_of_[j];
      local_.push_back(u);
      mask_[u / 64] |= std::uint64_t{1} << (u % 64);
    }
    std::uint32_t rarest = local_.front();
    for (std::uint32_t u : local_) {
      if (kept_by_device_[u].size() < kept_by_device_[rarest].size()) {
        rarest = u;
      }
    }
    bool dominated = false;
    for (std::uint32_t k : kept_by_device_[rarest]) {
      const std::uint64_t* kept_mask = kept_masks_.data() + k * words;
      bool subset = true;
      for (std::size_t w = 0; w < words && subset; ++w) {
        subset = (mask_[w] & ~kept_mask[w]) == 0;
      }
      if (subset && dominated_by(row, rows[kept_[k]])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      const auto id = static_cast<std::uint32_t>(kept_.size());
      for (std::uint32_t u : local_) kept_by_device_[u].push_back(id);
      kept_.push_back(rank.row);
      kept_masks_.insert(kept_masks_.end(), mask_.begin(), mask_.end());
    }
  }
  for (std::size_t j : universe_) local_of_[j] = kNoId;
  return kept_;
}

std::vector<Candidate> filter_dominated(std::vector<Candidate> candidates,
                                        std::size_t num_devices) {
  const auto at = [&](std::size_t i) { return row_view(candidates[i]); };
  DominanceFilter filter;
  std::vector<Candidate> kept;
  for (std::size_t idx :
       filter.run(RowSource(candidates.size(), at), num_devices)) {
    kept.push_back(std::move(candidates[idx]));
  }
  return kept;
}

}  // namespace hipo::pdcs
