// LosCache: a header-only shim with no memo. Line of sight is answered by
// Scenario (its SegmentIndex) alone.
//
// The class exists only because the frozen end-to-end benchmark
// (perfbench/) still constructs it and calls placement_utility; it goes in
// the next benchmark change, together with the ignored LosCache* parameter
// of pdcs::extract_point_case.
#pragma once

#include <span>

#include "src/model/scenario.hpp"

namespace hipo::parallel {
class ThreadPool;
}

namespace hipo::model {

class LosCache {
 public:
  /// The scenario must outlive the object.
  explicit LosCache(const Scenario& scenario) : scenario_(&scenario) {}

  /// Scenario::placement_utility; the pool is ignored.
  double placement_utility(std::span<const Strategy> placement,
                           parallel::ThreadPool* /*workers*/ = nullptr) const {
    return scenario_->placement_utility(placement);
  }

 private:
  const Scenario* scenario_;
};

}  // namespace hipo::model
