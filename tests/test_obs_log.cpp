// hipo::obs::log — structured JSONL logging, the non-blocking drain ring,
// rate limiting, the flight recorder, and the histogram quantile helper the
// serve latency summaries are built on.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/wire.hpp"
#include "src/util/error.hpp"

namespace hipo::obs::log {
namespace {

/// One stamped record line, as the serve request path builds it.
std::string line_of(Level level, Json rec = Json::object()) {
  stamp(rec, level);
  return rec.dump();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(LogLevel, NamesRoundTrip) {
  for (const Level level : {Level::kDebug, Level::kInfo, Level::kWarn,
                            Level::kError}) {
    EXPECT_EQ(parse_level(level_name(level)), level);
  }
  EXPECT_THROW(parse_level("verbose"), ConfigError);
  EXPECT_THROW(parse_level(""), ConfigError);
}

// A log record is a flat Json object plus `stamp`; these pin the line
// format every request log, flight record and lifecycle event shares.
TEST(LogRecord, CanonicalDumpSortsKeysAndTypesValues) {
  Json rec = Json::object();
  rec.set("zulu", Json::number(7))
      .set("alpha", Json::string("a \"quoted\" value\n"))
      .set("mike", Json::boolean(false))
      .set("november", Json::number(0.5));
  EXPECT_EQ(rec.dump(),
            "{\"alpha\":\"a \\\"quoted\\\" value\\n\",\"mike\":false,"
            "\"november\":0.5,\"zulu\":7}");
}

TEST(LogRecord, LastWriteWins) {
  Json rec = Json::object();
  rec.set("k", Json::string("first")).set("k", Json::string("second"));
  EXPECT_EQ(rec.dump(), "{\"k\":\"second\"}");
  // Stamping twice replaces the envelope instead of duplicating it.
  stamp(rec, Level::kInfo);
  stamp(rec, Level::kError);
  const Json parsed = parse_json(rec.dump());
  EXPECT_EQ(parsed.as_object().size(), 3u);
  EXPECT_EQ(parsed.find("level")->as_string(), "error");
}

TEST(LogRecord, RoundTripsThroughStrictWireParser) {
  Json rec = Json::object();
  rec.set("event", Json::string("request"))
      .set("request_id", Json::string("r17"))
      .set("ok", Json::boolean(true))
      .set("seconds", Json::number(0.001525))
      .set("bytes_in", Json::number(123))
      .set("message", Json::string("tabs\tand\x01" "control bytes"));
  stamp(rec, Level::kWarn);
  const std::string line = rec.dump();
  EXPECT_NE(line.find("\"message\":\"tabs\\tand\\u0001control bytes\""),
            std::string::npos)
      << line;
  // The strict parser rejects duplicate keys, non-finite numbers and
  // malformed escapes — a record line must survive it unchanged.
  const Json parsed = parse_json(line);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.find("level")->as_string(), "warn");
  EXPECT_EQ(parsed.find("request_id")->as_string(), "r17");
  EXPECT_TRUE(parsed.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(parsed.find("seconds")->as_number(), 0.001525);
  EXPECT_GT(parsed.find("ts")->as_number(), 0.0);
  // Canonical: dumping the parsed object reproduces the exact bytes.
  EXPECT_EQ(parsed.dump(), line);
}

TEST(LogRecord, NonFiniteNumbersBecomeNull) {
  Json rec = Json::object();
  rec.set("bad", Json::number(std::numeric_limits<double>::infinity()));
  const std::string line = rec.dump();
  EXPECT_EQ(line, "{\"bad\":null}");
  EXPECT_NO_THROW(parse_json(line));
}

TEST(Logger, WritesRecordsAsJsonlInOrder) {
  std::ostringstream sink;
  {
    Logger logger(sink);
    for (int i = 0; i < 100; ++i) {
      Json rec = Json::object();
      rec.set("i", Json::number(i));
      EXPECT_TRUE(logger.write_line(Level::kInfo, line_of(Level::kInfo, rec)));
    }
    logger.flush();
    const LoggerStats stats = logger.stats();
    EXPECT_EQ(stats.accepted, 100u);
    EXPECT_EQ(stats.written, 100u);
    EXPECT_EQ(stats.dropped_ring, 0u);
  }
  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const Json parsed = parse_json(lines[i]);
    EXPECT_EQ(parsed.find("i")->as_number(), static_cast<double>(i));
    EXPECT_EQ(parsed.find("level")->as_string(), "info");
  }
}

TEST(Logger, MinLevelFiltersAndCounts) {
  std::ostringstream sink;
  Logger logger(sink, {.min_level = Level::kWarn});
  EXPECT_FALSE(logger.enabled(Level::kDebug));
  EXPECT_FALSE(logger.enabled(Level::kInfo));
  EXPECT_TRUE(logger.enabled(Level::kWarn));
  EXPECT_FALSE(logger.write_line(Level::kInfo, line_of(Level::kInfo)));
  EXPECT_TRUE(logger.write_line(Level::kError, line_of(Level::kError)));
  logger.flush();
  const LoggerStats stats = logger.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.dropped_level, 1u);
}

TEST(Logger, RingOverflowDropsWithoutBlocking) {
  std::ostringstream sink;
  // Freeze the drain from the start so the ring genuinely fills;
  // production never pauses.
  Logger logger(sink, {.ring_capacity = 8, .start_paused = true});
  std::uint64_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    Json rec = Json::object();
    rec.set("i", Json::number(i));
    if (logger.write_line(Level::kInfo, line_of(Level::kInfo, rec))) {
      ++accepted;
    }
  }
  const LoggerStats stats = logger.stats();
  EXPECT_EQ(accepted, 8u);  // ring capacity, not 100 — and no blocking
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.dropped_ring, 92u);
  logger.set_drain_paused_for_test(false);
  logger.flush();
  EXPECT_EQ(lines_of(sink.str()).size(), 8u);
}

TEST(Logger, RateLimitDropsBeyondBudget) {
  std::ostringstream sink;
  Logger logger(sink, {.rate_limit_per_sec = 3});
  std::uint64_t accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (logger.write_line(Level::kInfo, line_of(Level::kInfo))) ++accepted;
  }
  logger.flush();
  const LoggerStats stats = logger.stats();
  // The loop takes far under a second, but tolerate one window rollover.
  EXPECT_LE(accepted, 6u);
  EXPECT_GE(stats.dropped_rate, 4u);
  EXPECT_EQ(stats.accepted + stats.dropped_rate, 10u);
}

TEST(Logger, ConcurrentWritersLoseNothingWhenRingIsLargeEnough) {
  std::ostringstream sink;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  {
    Logger logger(sink, {.ring_capacity = 4096});
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&logger, t] {
        for (int i = 0; i < kPerThread; ++i) {
          Json rec = Json::object();
          rec.set("t", Json::number(t)).set("i", Json::number(i));
          logger.write_line(Level::kInfo, line_of(Level::kInfo, rec));
        }
      });
    }
    for (auto& w : writers) w.join();
    logger.flush();
    const LoggerStats stats = logger.stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kThreads) *
                                  kPerThread);
    EXPECT_EQ(stats.written, stats.accepted);
    EXPECT_EQ(stats.dropped_ring, 0u);
  }
  // Every line is intact JSON (no interleaving) and per-thread order holds.
  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<int> next(kThreads, 0);
  for (const std::string& line : lines) {
    const Json parsed = parse_json(line);
    const int t = static_cast<int>(parsed.find("t")->as_number());
    const int i = static_cast<int>(parsed.find("i")->as_number());
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(i, next[t]);
    next[t] = i + 1;
  }
}

TEST(Logger, DestructorDrainsEverythingAccepted) {
  std::ostringstream sink;
  {
    Logger logger(sink, {.ring_capacity = 1024});
    for (int i = 0; i < 200; ++i) {
      logger.write_line(Level::kInfo, line_of(Level::kInfo));
    }
    // No flush: the destructor must still deliver all 200.
  }
  EXPECT_EQ(lines_of(sink.str()).size(), 200u);
}

TEST(Logger, FileSinkRejectsUnopenablePath) {
  EXPECT_THROW(Logger("/nonexistent-dir/log.jsonl"), ConfigError);
}

TEST(FlightRecorder, KeepsLastNOldestFirst) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record("line" + std::to_string(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
  const std::vector<std::string> dump = rec.dump();
  ASSERT_EQ(dump.size(), 4u);
  EXPECT_EQ(dump[0], "line6");
  EXPECT_EQ(dump[3], "line9");
}

TEST(FlightRecorder, PartialFillDumpsOnlyRecorded) {
  FlightRecorder rec(8);
  rec.record("a");
  rec.record("b");
  const std::vector<std::string> dump = rec.dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0], "a");
  EXPECT_EQ(dump[1], "b");
}

TEST(FlightRecorder, ZeroCapacityCountsButRetainsNothing) {
  FlightRecorder rec(0);
  rec.record("x");
  EXPECT_EQ(rec.recorded(), 1u);
  EXPECT_TRUE(rec.dump().empty());
}

TEST(FlightRecorder, ConcurrentWritersAndReadersStayConsistent) {
  FlightRecorder rec(64);
  std::atomic<bool> stop{false};
  std::thread reader([&rec, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<std::string> dump = rec.dump();
      EXPECT_LE(dump.size(), 64u);
      for (const std::string& line : dump) {
        EXPECT_FALSE(line.empty());
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < 2000; ++i) {
        rec.record(std::to_string(t) + "i" + std::to_string(i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(rec.recorded(), 8000u);
  EXPECT_EQ(rec.dump().size(), 64u);
}

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  const double bounds[] = {1.0, 2.0, 4.0};
  // 10 samples <=1, 10 in (1,2], 0 in (2,4], 0 overflow.
  const std::uint64_t counts[] = {10, 10, 0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 1.0), 2.0);
}

TEST(HistogramQuantile, EmptyAndOverflowEdges) {
  const double bounds[] = {1.0, 2.0};
  const std::uint64_t empty[] = {0, 0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, empty, 0.5), 0.0);
  // All mass in overflow clamps to the last finite bound.
  const std::uint64_t overflow[] = {0, 0, 5};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, overflow, 0.5), 2.0);
  // Out-of-range q is clamped.
  const std::uint64_t some[] = {4, 0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, some, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, some, 2.0), 1.0);
}

}  // namespace
}  // namespace hipo::obs::log
