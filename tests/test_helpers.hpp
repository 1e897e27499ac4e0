// Shared fixtures for the HIPO test suite: small hand-built scenarios with
// known geometry, plus random-scenario helpers.
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/model/scenario.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/util/rng.hpp"

namespace hipo::test {

/// One charger type (α=π/2, d∈[1,5]), one omni-ish device type (α=2π),
/// devices/obstacles supplied by the caller. Region [0,20]².
inline model::Scenario::Config simple_config() {
  model::Scenario::Config cfg;
  cfg.charger_types = {{geom::kPi / 2.0, 1.0, 5.0}};
  cfg.device_types = {{geom::kTwoPi}};
  cfg.pair_params = {{100.0, 40.0}};
  cfg.charger_counts = {2};
  cfg.region.lo = {0.0, 0.0};
  cfg.region.hi = {20.0, 20.0};
  cfg.eps1 = 0.3;
  return cfg;
}

inline model::Device device_at(double x, double y, double orientation = 0.0,
                               std::size_t type = 0, double p_th = 0.05) {
  model::Device d;
  d.pos = {x, y};
  d.orientation = orientation;
  d.type = type;
  d.p_th = p_th;
  return d;
}

/// Obstacle-free scenario with a handful of omni devices around the center.
inline model::Scenario simple_scenario() {
  auto cfg = simple_config();
  cfg.devices = {device_at(10, 10), device_at(12, 10), device_at(10, 13)};
  return model::Scenario(std::move(cfg));
}

/// Scenario with a square obstacle between a device and the +x half-plane.
inline model::Scenario blocked_scenario() {
  auto cfg = simple_config();
  cfg.devices = {device_at(10, 10)};
  cfg.obstacles = {geom::make_rect({11.0, 9.5}, {12.0, 10.5})};
  return model::Scenario(std::move(cfg));
}

/// `x` moved by `k` ulp (toward +∞ for k > 0).
inline double ulps(double x, int k) {
  const double to = k > 0 ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(k); ++i) x = std::nextafter(x, to);
  return x;
}

/// Small random paper-style scenario (fast to solve in tests).
inline model::Scenario small_paper_scenario(std::uint64_t seed,
                                            int device_multiplier = 1,
                                            int charger_multiplier = 1) {
  model::GenOptions opt;
  opt.device_multiplier = device_multiplier;
  opt.charger_multiplier = charger_multiplier;
  Rng rng(seed);
  return model::make_paper_scenario(opt, rng);
}

}  // namespace hipo::test
