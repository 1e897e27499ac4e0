// serve::scenario_hash — the cache key of the solver service. Two contracts:
// canonicalization (the hash is over the parsed model, so file ordering and
// number spelling cannot split the cache) and sensitivity (every semantic
// Scenario field moves the hash).
#include "src/serve/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "src/geometry/polygon.hpp"
#include "src/model/io.hpp"
#include "src/model/scenario.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

model::Scenario parse(const std::string& text) {
  std::istringstream is(text);
  return model::read_scenario(is);
}

model::Scenario::Config base_config() {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10, 0.5, 0)};
  cfg.obstacles = {geom::make_rect({4.0, 4.0}, {5.0, 5.0})};
  return cfg;
}

std::uint64_t hash_of(model::Scenario::Config cfg) {
  return serve::scenario_hash(model::Scenario(std::move(cfg)));
}

TEST(ScenarioHash, LineOrderAndWhitespaceDoNotMatter) {
  // The same scenario three ways: canonical writer order; sections
  // interleaved with comments, extra blanks, and tabs; numbers spelled with
  // trailing zeros / exponents. All parse to the same model.
  const std::string canonical =
      "hipo-scenario v1\n"
      "region 0 0 20 20\n"
      "eps1 0.3\n"
      "charger_type 1.5 1 5 2\n"
      "device_type 6.2 \n"
      "pair 0 0 100 40\n"
      "obstacle 4 4 4 5 4 5 5 4 5\n"
      "device 10 10 0 0 0.05 1\n";
  const std::string shuffled =
      "hipo-scenario v1\n"
      "# devices first, config later\n"
      "\n"
      "device 10 10 0 0 0.05 1\n"
      "obstacle 4 4 4 5 4 5 5 4 5\n"
      "pair 0 0 100 40\n"
      "\teps1 0.3\n"
      "charger_type 1.5 1 5 2\n"
      "device_type 6.2\n"
      "region 0 0 20 20\n";
  const std::string respelled =
      "hipo-scenario v1\n"
      "region 0.0 0e0 2e1 20.000\n"
      "eps1 3e-1\n"
      "charger_type 1.50 1.0 5.00 2\n"
      "device_type 6.20\n"
      "pair 0 0 1e2 40.0\n"
      "obstacle 4 4.0 4.0 5.0 4.0 5.0 5.0 4.0 5.0\n"
      "device 10.0 10.0 0.0 0 5e-2\n";

  const std::uint64_t reference = serve::scenario_hash(parse(canonical));
  EXPECT_EQ(serve::scenario_hash(parse(shuffled)), reference);
  EXPECT_EQ(serve::scenario_hash(parse(respelled)), reference);
}

TEST(ScenarioHash, WriteReadRoundTripPreservesTheHash) {
  const model::Scenario scenario(base_config());
  std::ostringstream os;
  model::write_scenario(os, scenario);
  EXPECT_EQ(serve::scenario_hash(parse(os.str())),
            serve::scenario_hash(scenario));
}

TEST(ScenarioHash, KeyIsStableLowercaseHex) {
  const model::Scenario scenario(base_config());
  const std::string key = serve::scenario_key(scenario);
  ASSERT_EQ(key.size(), 16u);
  for (const char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << key;
  }
  EXPECT_EQ(key, serve::scenario_key(model::Scenario(base_config())));
  EXPECT_EQ(key, serve::hash_to_key(serve::scenario_hash(scenario)));
}

// Every semantic field must move the hash: a collision between two configs
// that solve differently would serve one of them the other's placement.
TEST(ScenarioHash, EverySemanticFieldChangesTheHash) {
  const std::uint64_t reference = hash_of(base_config());
  const auto differs = [&](const char* label,
                           void (*mutate)(model::Scenario::Config&)) {
    auto cfg = base_config();
    mutate(cfg);
    EXPECT_NE(hash_of(std::move(cfg)), reference) << label;
  };

  differs("region.lo.x", [](auto& c) { c.region.lo.x = -1.0; });
  differs("region.lo.y", [](auto& c) { c.region.lo.y = -1.0; });
  differs("region.hi.x", [](auto& c) { c.region.hi.x = 21.0; });
  differs("region.hi.y", [](auto& c) { c.region.hi.y = 21.0; });
  differs("eps1", [](auto& c) { c.eps1 = 0.25; });
  differs("charger angle", [](auto& c) { c.charger_types[0].angle = 1.0; });
  differs("charger d_min", [](auto& c) { c.charger_types[0].d_min = 0.5; });
  differs("charger d_max", [](auto& c) { c.charger_types[0].d_max = 6.0; });
  differs("charger count", [](auto& c) { c.charger_counts[0] = 3; });
  differs("device type angle",
          [](auto& c) { c.device_types[0].angle = 3.0; });
  differs("pair a", [](auto& c) { c.pair_params[0].a = 99.0; });
  differs("pair b", [](auto& c) { c.pair_params[0].b = 41.0; });
  differs("device x", [](auto& c) { c.devices[0].pos.x = 10.5; });
  differs("device y", [](auto& c) { c.devices[0].pos.y = 10.5; });
  differs("device orientation",
          [](auto& c) { c.devices[0].orientation = 1.0; });
  differs("device p_th", [](auto& c) { c.devices[0].p_th = 0.06; });
  differs("device weight", [](auto& c) { c.devices[0].weight = 2.0; });
  differs("device added",
          [](auto& c) { c.devices.push_back(test::device_at(6, 6)); });
  differs("device removed", [](auto& c) { c.devices.pop_back(); });
  differs("obstacle vertex moved", [](auto& c) {
    c.obstacles[0] = geom::make_rect({4.0, 4.0}, {5.0, 5.5});
  });
  differs("obstacle added", [](auto& c) {
    c.obstacles.push_back(geom::make_rect({15.0, 15.0}, {16.0, 16.0}));
  });
  differs("obstacle removed", [](auto& c) { c.obstacles.clear(); });
  differs("new charger type", [](auto& c) {
    c.charger_types.push_back({1.0, 0.5, 3.0});
    c.charger_counts.push_back(1);
    c.pair_params.push_back({50.0, 20.0});
  });
  differs("new device type", [](auto& c) {
    c.device_types.push_back({3.0});
    c.pair_params.push_back({60.0, 30.0});
  });
}

TEST(ScenarioHash, TaggedStreamSeparatesStructuralTwins) {
  // Swapping a device's x and y keeps the same doubles in the stream but
  // under different fields; the per-field tags must break the symmetry.
  auto swapped = base_config();
  std::swap(swapped.devices[1].pos.x, swapped.devices[1].pos.y);
  EXPECT_NE(hash_of(std::move(swapped)), hash_of(base_config()));
}

}  // namespace
}  // namespace hipo
