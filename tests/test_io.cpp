#include "src/model/io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>

#include "src/model/scenario_gen.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::model {
namespace {

TEST(ScenarioIo, RoundTripSimpleScenario) {
  const auto original = test::blocked_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original);
  const auto restored = read_scenario(buffer);

  ASSERT_EQ(restored.num_devices(), original.num_devices());
  ASSERT_EQ(restored.num_charger_types(), original.num_charger_types());
  ASSERT_EQ(restored.num_obstacles(), original.num_obstacles());
  EXPECT_DOUBLE_EQ(restored.eps1(), original.eps1());
  for (std::size_t j = 0; j < original.num_devices(); ++j) {
    EXPECT_EQ(restored.device(j).pos, original.device(j).pos);
    EXPECT_EQ(restored.device(j).orientation, original.device(j).orientation);
    EXPECT_EQ(restored.device(j).type, original.device(j).type);
    EXPECT_EQ(restored.device(j).p_th, original.device(j).p_th);
  }
  for (std::size_t q = 0; q < original.num_charger_types(); ++q) {
    EXPECT_EQ(restored.charger_count(q), original.charger_count(q));
    EXPECT_EQ(restored.charger_type(q).angle, original.charger_type(q).angle);
  }
}

TEST(ScenarioIo, RoundTripPreservesPhysics) {
  // Power evaluations must be bit-identical after a round trip (precision 17
  // serialization).
  const auto original = test::small_paper_scenario(44, 2, 1);
  std::stringstream buffer;
  write_scenario(buffer, original);
  const auto restored = read_scenario(buffer);

  hipo::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const Strategy s{{rng.uniform(0, 40), rng.uniform(0, 40)},
                     rng.angle(),
                     rng.below(original.num_charger_types())};
    for (std::size_t j = 0; j < original.num_devices(); ++j) {
      EXPECT_EQ(original.exact_power(s, j), restored.exact_power(s, j));
    }
  }
}

TEST(ScenarioIo, CommentsAndBlankLinesIgnored) {
  const auto original = test::simple_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original);
  std::string text = "# a comment\n\n" + buffer.str() + "\n# trailing\n";
  std::stringstream patched(text);
  EXPECT_NO_THROW(read_scenario(patched));
}

TEST(ScenarioIo, MissingHeaderThrows) {
  std::stringstream buffer("region 0 0 1 1\n");
  EXPECT_THROW(read_scenario(buffer), hipo::ConfigError);
}

TEST(ScenarioIo, UnknownKeywordThrows) {
  std::stringstream buffer("hipo-scenario v1\nbanana 1 2 3\n");
  EXPECT_THROW(read_scenario(buffer), hipo::ConfigError);
}

TEST(ScenarioIo, MissingPairEntryThrows) {
  std::stringstream buffer(
      "hipo-scenario v1\n"
      "region 0 0 10 10\n"
      "eps1 0.3\n"
      "charger_type 1.0 1.0 5.0 2\n"
      "device_type 3.0\n");
  EXPECT_THROW(read_scenario(buffer), hipo::ConfigError);
}

TEST(ScenarioIo, ZeroTotalDeviceWeightThrows) {
  // Structurally valid but device-free: total device weight is zero, so the
  // normalized objective (Eq. 4's 1/N_o weighting) is undefined. Rejected
  // at the I/O boundary with a named ConfigError rather than producing
  // constant-zero utilities downstream.
  std::stringstream buffer(
      "hipo-scenario v1\n"
      "region 0 0 10 10\n"
      "eps1 0.3\n"
      "charger_type 1.0 1.0 5.0 2\n"
      "device_type 3.0\n"
      "pair 0 0 100 40\n");
  try {
    read_scenario(buffer);
    FAIL() << "expected ConfigError for zero total device weight";
  } catch (const hipo::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("total device weight"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioIo, TruncatedObstacleThrows) {
  std::stringstream buffer(
      "hipo-scenario v1\n"
      "region 0 0 10 10\n"
      "charger_type 1.0 1.0 5.0 2\n"
      "device_type 3.0\n"
      "pair 0 0 100 40\n"
      "obstacle 3 1 1 2 1\n");  // only 2 of 3 vertices
  EXPECT_THROW(read_scenario(buffer), hipo::ConfigError);
}

/// Minimal valid scenario text with one line swapped in for `patch` (or
/// appended when `patch` starts a new record). Keeps validation tests
/// focused on the single field they corrupt.
std::string scenario_text(const std::string& region = "region 0 0 10 10",
                          const std::string& eps1 = "eps1 0.3",
                          const std::string& charger =
                              "charger_type 1.0 1.0 5.0 2",
                          const std::string& device_type = "device_type 3.0",
                          const std::string& pair = "pair 0 0 100 40",
                          const std::string& extra = "") {
  std::string text = "hipo-scenario v1\n" + region + "\n" + eps1 + "\n" +
                     charger + "\n" + device_type + "\n" + pair + "\n";
  if (!extra.empty()) text += extra + "\n";
  return text;
}

void expect_rejected(const std::string& text, const std::string& needle) {
  std::stringstream buffer(text);
  try {
    read_scenario(buffer);
    FAIL() << "expected ConfigError containing '" << needle << "'";
  } catch (const hipo::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ScenarioIoValidation, RejectsNonFiniteValues) {
  // Whether the stream parser or the finiteness check catches them, "nan"
  // and "inf" tokens must never produce a scenario.
  expect_rejected(
      scenario_text("region 0 0 10 10", "eps1 0.3",
                    "charger_type 1.0 1.0 5.0 2", "device_type 3.0",
                    "pair 0 0 100 40", "device nan 5 0 0 0.05"),
      "line 7");
  expect_rejected(scenario_text("region 0 0 inf 10"), "line 2");
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 nan"), "line 3");
}

TEST(ScenarioIoValidation, RejectsInvertedRegion) {
  expect_rejected(scenario_text("region 10 10 0 0"), "hi > lo");
}

TEST(ScenarioIoValidation, RejectsNonPositiveEps1) {
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0"), "positive");
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 -0.3"), "positive");
}

TEST(ScenarioIoValidation, RejectsBadChargerType) {
  // Zero sector angle.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 0 1.0 5.0 2"),
                  "(0, 2pi]");
  // Angle beyond 2π.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 7.0 1.0 5.0 2"),
                  "(0, 2pi]");
  // d_max <= d_min.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 5.0 5.0 2"),
                  "d_max");
  // Negative d_min.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 -1.0 5.0 2"),
                  "d_min");
  // Negative count.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 -1"),
                  "count");
}

TEST(ScenarioIoValidation, RejectsBadDeviceType) {
  expect_rejected(
      scenario_text("region 0 0 10 10", "eps1 0.3",
                    "charger_type 1.0 1.0 5.0 2", "device_type 0"),
      "(0, 2pi]");
}

TEST(ScenarioIoValidation, RejectsNonPositivePairConstants) {
  expect_rejected(
      scenario_text("region 0 0 10 10", "eps1 0.3",
                    "charger_type 1.0 1.0 5.0 2", "device_type 3.0",
                    "pair 0 0 0 40"),
      "positive");
  expect_rejected(
      scenario_text("region 0 0 10 10", "eps1 0.3",
                    "charger_type 1.0 1.0 5.0 2", "device_type 3.0",
                    "pair 0 0 100 -40"),
      "positive");
}

TEST(ScenarioIoValidation, RejectsBadDevice) {
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "device 5 5 0 0 0"),
                  "p_th");
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "device 5 5 0 0 0.05 -1"),
                  "weight");
}

TEST(ScenarioIoValidation, RejectsSelfIntersectingObstacle) {
  // Asymmetric bowtie: nonzero area (passes the polygon constructor) but
  // edges 0 and 2 cross, so the simplicity check must name the line.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "obstacle 4 1 1 4 2 3 1 1 3"),
                  "simple");
}

TEST(ScenarioIoValidation, RejectsZeroAreaObstacleWithLine) {
  // Collapsed polygon: the constructor's area check fires; the reader must
  // wrap it with the offending line number.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "obstacle 3 1 1 2 2 3 3"),
                  "line 7");
}

TEST(ScenarioIoValidation, ErrorNamesOffendingLine) {
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 -1"),
                  "line 4");
}

// Every field is exactly one whitespace token, consumed whole; a token
// after the last field is an error naming the line.

TEST(ScenarioIoTokens, FractionalTypeTokenIsRejectedNotSplit) {
  // Read field by field from one stream, `0.5` used to become type 0 and
  // p_th .5, and the real p_th the weight.
  const std::string ok = "device 4 4 0.5 0 0.04";
  EXPECT_NO_THROW(read_scenario(scenario_text("region 0 0 10 10", "eps1 0.3",
                                              "charger_type 1.0 1.0 5.0 2",
                                              "device_type 3.0",
                                              "pair 0 0 100 40", ok)));
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "device 4 4 0.5 0.5 0.04"),
                  "line 7: expected type");
}

TEST(ScenarioIoTokens, FractionalChargerCountIsRejected) {
  // `4.9` used to deploy 4 chargers.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 4.9"),
                  "line 4: expected count");
}

TEST(ScenarioIoTokens, TrailingTokensAreRejected) {
  expect_rejected(scenario_text("region 0 0 10 10 junk junk"),
                  "line 2: unexpected token 'junk'");
  // After the optional weight, too.
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "device 4 4 0.5 0 0.04 2 7"),
                  "line 7: unexpected token '7'");
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair 0 0 100 40",
                                "obstacle 3 1 1 4 1 2 3 # roof"),
                  "line 7: unexpected token '#'");
}

TEST(ScenarioIoTokens, IndexAndCountFieldsTakeNoSign) {
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 +2"),
                  "line 4: expected count");
  expect_rejected(scenario_text("region 0 0 10 10", "eps1 0.3",
                                "charger_type 1.0 1.0 5.0 2",
                                "device_type 3.0", "pair -0 0 100 40"),
                  "line 6: expected charger type index");
}

TEST(ScenarioIo, ExtremeRegionAspectBuilds) {
  // The region line of a byte-mutated scenario: 1e189 times wider than
  // tall. The device grid used to throw std::length_error sizing itself.
  const auto s = read_scenario(scenario_text(
      "region 0 0 25.900407709730E189 22.692010558275072", "eps1 0.3",
      "charger_type 1.0 1.0 5.0 2", "device_type 3.0", "pair 0 0 100 40",
      "device 5 5 0 0 0.05"));
  EXPECT_EQ(s.num_devices(), 1u);
}

TEST(ScenarioIo, SubnormalEps1IsRejectedNotLadderedForever) {
  // `4.9e-324` is a valid number and a positive ε₁, but its ring ladder
  // would need ~1e324 rungs; Scenario construction refuses it.
  EXPECT_THROW(read_scenario(scenario_text("region 0 0 10 10", "eps1 4.9e-324",
                                           "charger_type 1.0 1.0 5.0 2",
                                           "device_type 3.0", "pair 0 0 100 40",
                                           "device 5 5 0 0 0.05")),
               hipo::ConfigError);
}

TEST(ScenarioIoTokens, StringViewAndStreamOverloadsAgree) {
  const auto original = test::small_paper_scenario(44, 2, 1);
  std::stringstream buffer;
  write_scenario(buffer, original);
  const std::string text = buffer.str();
  const auto from_view = read_scenario(std::string_view(text));
  const auto from_stream = read_scenario(buffer);
  std::stringstream a, b;
  write_scenario(a, from_view);
  write_scenario(b, from_stream);
  EXPECT_EQ(a.str(), text);
  EXPECT_EQ(b.str(), text);
}

TEST(ScenarioIo, FileRoundTrip) {
  const auto original = test::simple_scenario();
  const std::string path = testing::TempDir() + "hipo_io_test.scenario";
  write_scenario_file(path, original);
  const auto restored = read_scenario_file(path);
  EXPECT_EQ(restored.num_devices(), original.num_devices());
}

TEST(ScenarioIo, MissingFileThrows) {
  EXPECT_THROW(read_scenario_file("/nonexistent/x.hipo"), hipo::ConfigError);
}

TEST(PlacementIo, RoundTrip) {
  Placement placement{
      {{1.25, 3.5}, 0.75, 0},
      {{9.0, 2.0}, 5.5, 2},
  };
  std::stringstream buffer;
  write_placement(buffer, placement);
  const auto restored = read_placement(buffer);
  ASSERT_EQ(restored.size(), placement.size());
  for (std::size_t i = 0; i < placement.size(); ++i) {
    EXPECT_EQ(restored[i].pos, placement[i].pos);
    EXPECT_EQ(restored[i].orientation, placement[i].orientation);
    EXPECT_EQ(restored[i].type, placement[i].type);
  }
}

TEST(PlacementIo, EmptyPlacement) {
  std::stringstream buffer;
  write_placement(buffer, {});
  EXPECT_TRUE(read_placement(buffer).empty());
}

TEST(PlacementIo, BadKeywordThrows) {
  std::stringstream buffer("hipo-placement v1\ncharger 1 2 3 0\n");
  EXPECT_THROW(read_placement(buffer), hipo::ConfigError);
}

TEST(PlacementIo, FieldsAreWholeTokens) {
  EXPECT_THROW(read_placement("hipo-placement v1\nstrategy 1 2 0.5 0.5\n"),
               hipo::ConfigError);
  EXPECT_THROW(read_placement("hipo-placement v1\nstrategy 1 2 0.5 0 9\n"),
               hipo::ConfigError);
  EXPECT_EQ(read_placement("hipo-placement v1\r\n\tstrategy 1 2 0.5 3\r\n")
                .at(0)
                .type,
            3u);
}

// The number tokens where operator>> and std::from_chars differ, pinned to
// the format's verdict. Each is tried as the `x` of a strategy and as the
// `x` of a device; a scalar is read bit for bit, and a rejection names
// line 2 of the placement.

/// The token read as a strategy's x, or nullopt when the reader rejects it.
std::optional<double> placement_x(const std::string& token) {
  try {
    return read_placement("hipo-placement v1\nstrategy " + token +
                          " 2 0.5 0\n")
        .at(0)
        .pos.x;
  } catch (const hipo::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: expected x"),
              std::string::npos)
        << e.what();
    return std::nullopt;
  }
}

/// The token read as a device's x in a scenario, or nullopt on rejection.
std::optional<double> device_x(const std::string& token) {
  try {
    return read_scenario(scenario_text("region -1 0 100 10", "eps1 0.3",
                                       "charger_type 1.0 1.0 5.0 2",
                                       "device_type 3.0", "pair 0 0 100 40",
                                       "device " + token + " 5 0 0 0.05"))
        .device(0)
        .pos.x;
  } catch (const hipo::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 7: expected x"),
              std::string::npos)
        << e.what();
    return std::nullopt;
  }
}

void expect_number(const std::string& token, double value) {
  for (const auto& got : {placement_x(token), device_x(token)}) {
    ASSERT_TRUE(got.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(value))
        << token << " read as " << *got;
  }
}

void expect_not_a_number(const std::string& token) {
  EXPECT_FALSE(placement_x(token).has_value()) << token;
  EXPECT_FALSE(device_x(token).has_value()) << token;
}

TEST(NumberTokens, LeadingPlusIsAccepted) {
  expect_number("+5", 5.0);
  expect_number("+.5", 0.5);
  expect_not_a_number("+-5");
  expect_not_a_number("++5");
}

TEST(NumberTokens, NegativeZeroIsAScalarButNotAnIndex) {
  expect_number("-0", -0.0);
  EXPECT_THROW(read_placement("hipo-placement v1\nstrategy 1 2 0.5 -0\n"),
               hipo::ConfigError);
}

TEST(NumberTokens, OverflowIsRejected) {
  expect_not_a_number("1e400");
  expect_not_a_number("-1e400");
  expect_not_a_number("1.7976931348623159e308");
}

TEST(NumberTokens, UnderflowRoundsToSignedZero) {
  expect_number("1e-400", 0.0);
  expect_number("-1e-400", -0.0);
  expect_number("0.0000001e-320", 0.0);
}

TEST(NumberTokens, SmallestSubnormalIsKept) {
  expect_number("4.9e-324", std::numeric_limits<double>::denorm_min());
}

TEST(NumberTokens, InfIsRejected) {
  expect_not_a_number("inf");
  expect_not_a_number("-inf");
  expect_not_a_number("infinity");
}

TEST(NumberTokens, NanIsRejected) {
  expect_not_a_number("nan");
  expect_not_a_number("-nan");
  expect_not_a_number("NaN");
}

TEST(NumberTokens, HexFloatIsRejected) {
  expect_not_a_number("0x1p3");
  expect_not_a_number("0x10");
}

TEST(NumberTokens, BareFractionIsAccepted) {
  expect_number(".5", 0.5);
  expect_number("-.5", -0.5);
  expect_not_a_number(".");
}

TEST(NumberTokens, TrailingDotIsAccepted) {
  expect_number("5.", 5.0);
  expect_number("5.e1", 50.0);
}

TEST(NumberTokens, ExponentWithoutDigitsIsRejected) {
  expect_not_a_number("1e");
  expect_not_a_number("1e+");
  expect_not_a_number("e5");
}

}  // namespace
}  // namespace hipo::model
