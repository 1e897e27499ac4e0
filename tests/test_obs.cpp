// hipo::obs — metrics registry semantics (sharded aggregation, kind safety,
// histogram bucket boundaries, reset), and the metrics, trace and
// build-info documents, each checked with the strict parse_json.
#include "src/obs/obs.hpp"

#include "src/obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/util/error.hpp"

namespace hipo::obs {
namespace {

/// Canonical documents (metrics, build info, log lines) must survive the
/// strict parser and dump back to the exact bytes.
void expect_canonical(const std::string& text) {
  EXPECT_EQ(parse_json(text).dump(), text);
}

// json_double is the number half of Json::dump, so it feeds every document
// the program writes (and the hand-formatted bench JSON). NaN/Inf have no
// JSON number form; they must come out as `null` — never as bare nan/inf
// (invalid JSON) and never as a fabricated finite value.
TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::nan("")), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(1.5), "1.5");
}

// json_double's text is part of the serve wire bytes, so it must stay the
// ostream precision(17) form ("%.17g") it has always had, and round-trip.
TEST(JsonDouble, MatchesStreamPrecision17AndRoundTrips) {
  const auto stream_form = [](double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 100.0, 1e16, 1e17, 1e21, 1e-5, 1e-4,
      6.283185307179586, 123456789012345678.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> coord(-1000.0, 1000.0);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(coord(rng));
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    const std::string text = json_double(v);
    ASSERT_EQ(text, stream_form(v));
    const double back = std::strtod(text.c_str(), nullptr);
    ASSERT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
  }
}

TEST(JsonDouble, NonFiniteMetricsStillEmitValidJson) {
  reset_metrics();
  set_metrics_enabled(true);
  gauge("test.poisoned_gauge").set(std::nan(""));
  accum("test.poisoned_accum").add(std::numeric_limits<double>::infinity());
  const std::string json = metrics_json(metrics_snapshot()).dump();
  expect_canonical(json);
  EXPECT_NE(json.find("\"test.poisoned_gauge\":null"), std::string::npos)
      << json;
  reset_metrics();
}

// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_metrics();
    reset_trace();
    set_metrics_enabled(true);
  }
  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    reset_trace();
    reset_metrics();
  }
};

TEST_F(ObsTest, DisabledCounterIsNoop) {
  set_metrics_enabled(false);
  auto& c = counter("test.disabled_counter");
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterAggregatesAcrossThreads) {
  auto& c = counter("test.threaded_counter");
  constexpr int kThreads = 4;
  constexpr int kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(ObsTest, RegistrationIsFindOrCreate) {
  EXPECT_EQ(&counter("test.same_name"), &counter("test.same_name"));
}

TEST_F(ObsTest, KindMismatchThrows) {
  counter("test.kind_clash");
  EXPECT_THROW(gauge("test.kind_clash"), InvariantError);
  constexpr double kBounds[] = {1.0};
  EXPECT_THROW(histogram("test.kind_clash", kBounds), InvariantError);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  auto& g = gauge("test.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST_F(ObsTest, AccumSumsAndCounts) {
  auto& a = accum("test.accum");
  a.add(1.5);
  a.add(2.5);
  a.add(-1.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 3.0);
}

TEST_F(ObsTest, HistogramBucketBoundariesAreUpperInclusive) {
  constexpr double kBounds[] = {1.0, 2.0, 4.0};
  auto& h = histogram("test.histogram_bounds", kBounds);
  h.observe(0.5);  // below first bound -> bucket 0
  h.observe(1.0);  // exactly on a bound -> that bound's bucket
  h.observe(1.5);
  h.observe(2.0);  // exactly on a bound -> bucket 1, not 2
  h.observe(4.0);
  h.observe(4.00001);  // past the last bound -> overflow
  h.observe(100.0);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.00001 + 100.0);
}

TEST_F(ObsTest, HistogramReregistrationRequiresSameBounds) {
  constexpr double kBounds[] = {1.0, 2.0};
  constexpr double kOther[] = {1.0, 3.0};
  auto& h = histogram("test.histogram_rereg", kBounds);
  EXPECT_EQ(&histogram("test.histogram_rereg", kBounds), &h);
  EXPECT_THROW(histogram("test.histogram_rereg", kOther), InvariantError);
}

TEST_F(ObsTest, ResetZeroesEverythingButKeepsHandles) {
  auto& c = counter("test.reset_counter");
  auto& g = gauge("test.reset_gauge");
  auto& a = accum("test.reset_accum");
  c.add(7);
  g.set(9.0);
  a.add(2.0);
  reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  c.add(1);  // handle still live after reset
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsTest, ScopedPhaseRecordsWallTime) {
  { ScopedPhase phase("test_phase"); }
  { ScopedPhase phase("test_phase"); }
  auto& a = accum("phase.test_phase.seconds");
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.sum(), 0.0);
}

TEST_F(ObsTest, SnapshotIsNameSortedAndJsonWellFormed) {
  counter("test.z_counter").add(2);
  counter("test.a_counter").add(1);
  gauge("test.gauge_json").set(0.5);
  constexpr double kBounds[] = {1.0, 2.0};
  histogram("test.histogram_json", kBounds).observe(1.5);
  accum("test.accum_json").add(0.25);
  const auto snapshot = metrics_snapshot();
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
  const std::string json = metrics_json(snapshot).dump();
  expect_canonical(json);
  const Json metrics = parse_json(json);
  EXPECT_EQ(metrics.find("counters")->find("test.a_counter")->as_number(), 1);
  EXPECT_EQ(metrics.find("gauges")->find("test.gauge_json")->as_number(), 0.5);
  const Json* accum = metrics.find("accums")->find("test.accum_json");
  EXPECT_EQ(accum->find("sum")->as_number(), 0.25);
  EXPECT_EQ(accum->find("count")->as_number(), 1);
  const Json* hist = metrics.find("histograms")->find("test.histogram_json");
  EXPECT_EQ(hist->find("bounds")->as_array().size(), 2u);
  EXPECT_EQ(hist->find("counts")->as_array()[1].as_number(), 1);

  std::ostringstream full;
  write_metrics_json(snapshot, full);
  ASSERT_EQ(full.str().back(), '\n');
  const std::string doc = full.str().substr(0, full.str().size() - 1);
  expect_canonical(doc);
  const Json parsed = parse_json(doc);
  EXPECT_EQ(parsed.find("schema")->as_string(), "hipo-metrics-v1");
  EXPECT_EQ(parsed.find("build")->dump(), build_info_json());
  EXPECT_EQ(parsed.find("metrics")->dump(), json);
}

TEST_F(ObsTest, DisabledSpansEmitNothing) {
  { Span span("test.disabled_span"); }
  std::ostringstream os;
  write_trace_json(os);
  EXPECT_EQ(os.str().find("test.disabled_span"), std::string::npos);
  EXPECT_TRUE(parse_json(os.str()).find("traceEvents")->as_array().empty());
}

TEST_F(ObsTest, TraceJsonIsWellFormedAndCarriesSpans) {
  set_trace_enabled(true);
  {
    Span outer("test.outer");
    { Span inner("test.inner", std::uint64_t{42}); }
    std::thread worker([] { Span span("test.worker", "w1"); });
    worker.join();
  }
  set_trace_enabled(false);
  std::ostringstream os;
  write_trace_json(os);
  const Json trace = parse_json(os.str());
  EXPECT_EQ(trace.find("displayTimeUnit")->as_string(), "ms");
  EXPECT_EQ(trace.find("otherData")->find("build")->dump(), build_info_json());
  std::map<std::string, const Json*> by_name;
  for (const Json& e : trace.find("traceEvents")->as_array()) {
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_GE(e.find("dur")->as_number(), 0.0);
    by_name[e.find("name")->as_string()] = &e;
  }
  ASSERT_EQ(by_name.size(), 3u);
  const auto detail = [&](const char* name) {
    return by_name.at(name)->find("args")->find("detail")->as_string();
  };
  EXPECT_EQ(detail("test.inner"), "42");
  EXPECT_EQ(detail("test.worker"), "w1");
  EXPECT_EQ(by_name.at("test.outer")->find("args"), nullptr);
}

TEST_F(ObsTest, SpanFinishReturnsDuration) {
  set_trace_enabled(true);
  Span span("test.finish");
  const double seconds = span.finish();
  EXPECT_GE(seconds, 0.0);
  // Finishing made the span inactive; destruction must not double-emit.
  set_trace_enabled(false);
  Span off("test.finish_disabled");
  EXPECT_EQ(off.finish(), 0.0);
}

TEST_F(ObsTest, StopwatchAdvances) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.reset();
  EXPECT_GE(watch.millis(), 0.0);
}

TEST(BuildInfo, FieldsPopulatedAndJsonWellFormed) {
  const BuildInfo& info = build_info();
  EXPECT_FALSE(info.git_describe.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_EQ(info.schema_version, kSchemaVersion);
  EXPECT_GE(info.hardware_threads, 1u);
  const std::string json = build_info_json();
  expect_canonical(json);
  const Json parsed = parse_json(json);
  EXPECT_EQ(parsed.find("git")->as_string(), info.git_describe);
  EXPECT_EQ(parsed.find("compiler")->as_string(), info.compiler);
  EXPECT_EQ(parsed.find("build_type")->as_string(), info.build_type);
  EXPECT_EQ(parsed.find("cxx_flags")->as_string(), info.cxx_flags);
  EXPECT_EQ(parsed.find("cplusplus")->as_number(), info.cplusplus);
  EXPECT_EQ(parsed.find("schema_version")->as_number(), kSchemaVersion);
  EXPECT_EQ(parsed.find("hardware_threads")->as_number(),
            info.hardware_threads);
  EXPECT_EQ(parsed.as_object().size(), 7u);
}

}  // namespace
}  // namespace hipo::obs
