// hipo::serve — wire JSON parser strictness, frame codec, LRU cache
// semantics, and the Service/Server request paths. The headline contract:
// served placements (cold miss, warm hit, post-delta) are byte-identical to
// what core::solve / opt::DeltaSolver produce directly.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/solver.hpp"
#include "src/model/io.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/delta.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/hash.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/serve/wire.hpp"
#include "src/util/error.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

// --- wire: parser ---------------------------------------------------------

TEST(WireJson, ParsesDocumentsAndAccessesFields) {
  const serve::Json doc = serve::parse_json(
      R"({"b":true,"n":-1.5e2,"s":"a\"\\\nAb","arr":[1,2],"o":{"k":null},)"
      R"("e":2E+3,"u":-1e-400})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_EQ(doc.find("n")->as_number(), -150.0);
  EXPECT_EQ(doc.find("e")->as_number(), 2000.0);
  // An underflow rounds to a signed zero, as strtod rounds it.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(doc.find("u")->as_number()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(doc.find("s")->as_string(), "a\"\\\nAb");
  EXPECT_EQ(doc.find("arr")->as_array().size(), 2u);
  EXPECT_TRUE(doc.find("o")->find("k")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(WireJson, RejectsMalformedDocumentsWithByteOffsets) {
  const auto expect_fails = [](const std::string& text) {
    try {
      serve::parse_json(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
          << e.what();
    }
  };
  expect_fails("");
  expect_fails("{");
  expect_fails("{\"a\":1,}");
  expect_fails("{\"a\" 1}");
  expect_fails("[1 2]");
  expect_fails("{\"a\":1} trailing");
  expect_fails("{\"a\":nan}");
  expect_fails("{\"a\":1e999}");          // non-finite number
  expect_fails("{\"a\":+1}");             // RFC 8259: no leading '+'
  expect_fails("{\"a\":.5}");             // ... no bare fraction
  expect_fails("{\"a\":1.}");             // ... no empty fraction
  expect_fails("{\"a\":01}");             // ... no leading zero
  expect_fails("{\"a\":1,\"a\":2}");      // duplicate key
  expect_fails("\"unterminated");
  expect_fails("{\"bad\\q\":1}");         // unknown escape
  expect_fails("tru");
}

TEST(WireJson, NestingIsBoundedNotAStackOverflow) {
  // Exactly kMaxJsonDepth levels parse; one more is rejected.
  const std::size_t max = obs::kMaxJsonDepth;
  EXPECT_NO_THROW(
      serve::parse_json(std::string(max, '[') + std::string(max, ']')));
  EXPECT_THROW(serve::parse_json(std::string(max + 1, '[') +
                                 std::string(max + 1, ']')),
               ConfigError);
  // A million levels would overflow a recursive descent's stack; the bound
  // turns them into an ordinary error with a byte offset.
  const auto expect_bounded = [](const std::string& text) {
    try {
      serve::parse_json(text);
      ADD_FAILURE() << "accepted " << text.size() << " nested bytes";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("byte"), std::string::npos) << what;
      EXPECT_NE(what.find("nesting"), std::string::npos) << what;
    }
  };
  constexpr std::size_t kDeep = 1'000'000;
  expect_bounded(std::string(kDeep, '['));
  std::string objects;
  objects.reserve(kDeep * 5);
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  expect_bounded(objects);
}

TEST(WireJson, DumpIsCanonicalAndRoundTrips) {
  serve::Json doc = serve::Json::object();
  doc.set("zeta", serve::Json::number(1.0));
  doc.set("alpha", serve::Json::string("x\"y\n"));
  serve::Json arr = serve::Json::array();
  arr.push(serve::Json::boolean(false));
  arr.push(serve::Json::null());
  doc.set("list", std::move(arr));
  const std::string text = doc.dump();
  // Keys come out sorted, so equal documents dump to equal bytes.
  EXPECT_LT(text.find("alpha"), text.find("list"));
  EXPECT_LT(text.find("list"), text.find("zeta"));
  const serve::Json again = serve::parse_json(text);
  EXPECT_EQ(again.dump(), text);
}

// --- wire: framing --------------------------------------------------------

TEST(WireFrame, HeaderRoundTripsBigEndian) {
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(0x01020304u, header);
  EXPECT_EQ(header[0], 0x01);
  EXPECT_EQ(header[1], 0x02);
  EXPECT_EQ(header[2], 0x03);
  EXPECT_EQ(header[3], 0x04);
  EXPECT_EQ(serve::decode_frame_header(header, 1u << 30), 0x01020304u);
}

TEST(WireFrame, RejectsOversizedFrames) {
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(1025, header);
  EXPECT_THROW(serve::decode_frame_header(header, 1024), ConfigError);
  EXPECT_EQ(serve::decode_frame_header(header, 1025), 1025u);
}

TEST(WireFrame, WriteToClosedSocketThrowsInsteadOfRaisingSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // A plain write() here would raise SIGPIPE and end the test binary.
  EXPECT_THROW(serve::write_frame_fd(fds[0], "{}"), ConfigError);
  ::close(fds[0]);
}

TEST(WireFrame, PipesStillCarryFrames) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  serve::write_frame_fd(fds[1], "{\"type\":\"stats\"}");
  ::close(fds[1]);
  std::string payload;
  ASSERT_TRUE(serve::read_frame_fd(fds[0], 1024, payload));
  EXPECT_EQ(payload, "{\"type\":\"stats\"}");
  EXPECT_FALSE(serve::read_frame_fd(fds[0], 1024, payload));
  ::close(fds[0]);
}

// --- cache ----------------------------------------------------------------

std::shared_ptr<serve::CacheEntry> make_entry(parallel::ThreadPool* pool) {
  opt::DeltaOptions opts;
  opts.workers = pool;
  return std::make_shared<serve::CacheEntry>(
      opt::DeltaSolver(test::simple_scenario().to_config(), std::move(opts)));
}

TEST(ScenarioCache, LruEvictsOldestAndTouchRefreshes) {
  parallel::ThreadPool pool(1);
  serve::ScenarioCache cache(2);
  auto e = make_entry(&pool);
  cache.insert("aaaaaaaaaaaaaaaa", e);
  cache.insert("bbbbbbbbbbbbbbbb", e);
  EXPECT_NE(cache.find("aaaaaaaaaaaaaaaa"), nullptr);  // touch: a is MRU
  cache.insert("cccccccccccccccc", e);                 // evicts b
  EXPECT_NE(cache.find("aaaaaaaaaaaaaaaa"), nullptr);
  EXPECT_EQ(cache.find("bbbbbbbbbbbbbbbb"), nullptr);
  EXPECT_NE(cache.find("cccccccccccccccc"), nullptr);
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ScenarioCache, RekeyMovesAndSupersedes) {
  parallel::ThreadPool pool(1);
  serve::ScenarioCache cache(4);
  auto e1 = make_entry(&pool);
  auto e2 = make_entry(&pool);
  cache.insert("aaaaaaaaaaaaaaaa", e1);
  cache.insert("bbbbbbbbbbbbbbbb", e2);
  cache.rekey("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(cache.find("aaaaaaaaaaaaaaaa"), nullptr);
  EXPECT_EQ(cache.find("bbbbbbbbbbbbbbbb"), e1);  // the rekeyed entry wins
  EXPECT_EQ(cache.stats().entries, 1u);
  // Rekey of an absent key is a no-op (entry evicted mid-request).
  cache.rekey("cccccccccccccccc", "dddddddddddddddd");
  EXPECT_EQ(cache.find("dddddddddddddddd"), nullptr);
}

TEST(ScenarioCache, ZeroCapacityDisablesCaching) {
  parallel::ThreadPool pool(1);
  serve::ScenarioCache cache(0);
  auto e = make_entry(&pool);
  EXPECT_EQ(cache.insert("aaaaaaaaaaaaaaaa", e), e);  // returned unstored
  EXPECT_EQ(cache.find("aaaaaaaaaaaaaaaa"), nullptr);
}

// --- service --------------------------------------------------------------

std::string scenario_text(const model::Scenario& scenario) {
  std::ostringstream os;
  model::write_scenario(os, scenario);
  return os.str();
}

std::string placement_bytes(const model::Placement& placement) {
  std::ostringstream os;
  model::write_placement(os, placement);
  return os.str();
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : pool_(2) {
    serve::ServiceOptions opts;
    opts.cache_entries = 4;
    opts.max_inflight = 4;
    opts.pool = &pool_;
    service_ = std::make_unique<serve::Service>(opts);
  }

  serve::Json call(const std::string& request) {
    return serve::parse_json(service_->handle(request));
  }

  serve::Json call_ok(const std::string& request) {
    const serve::Json resp = call(request);
    EXPECT_TRUE(resp.find("ok") != nullptr && resp.find("ok")->as_bool())
        << service_->handle(request);
    return resp;
  }

  parallel::ThreadPool pool_;
  std::unique_ptr<serve::Service> service_;
};

TEST_F(ServiceTest, SolveColdThenWarmMatchesCoreSolveByteForByte) {
  const model::Scenario scenario = test::simple_scenario();
  core::SolveOptions copts;
  copts.pool = &pool_;
  const std::string reference =
      placement_bytes(core::solve(scenario, copts).placement);

  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(scenario_text(scenario)));
  const serve::Json cold = call_ok(req.dump());
  EXPECT_EQ(cold.find("cache")->as_string(), "miss");
  EXPECT_EQ(cold.find("placement_text")->as_string(), reference);
  EXPECT_EQ(cold.find("key")->as_string(), serve::scenario_key(scenario));

  const serve::Json warm = call_ok(req.dump());
  EXPECT_EQ(warm.find("cache")->as_string(), "hit");
  EXPECT_EQ(warm.find("placement_text")->as_string(), reference);

  // Key-only resolve (no scenario bytes on the wire) hits the same entry.
  serve::Json by_key = serve::Json::object();
  by_key.set("type", serve::Json::string("solve"));
  by_key.set("key", *cold.find("key"));
  const serve::Json keyed = call_ok(by_key.dump());
  EXPECT_EQ(keyed.find("placement_text")->as_string(), reference);
}

TEST_F(ServiceTest, KeySolveHonorsEveryGreedyModeName) {
  // The scenario as the service reads it back from the wire text, so the
  // direct reference runs on the very same inputs.
  const model::Scenario scenario =
      model::read_scenario(scenario_text(test::small_paper_scenario(3)));
  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(scenario_text(scenario)));
  const std::string key = call_ok(req.dump()).find("key")->as_string();

  const auto key_solve = [&](const char* greedy) {
    serve::Json by_key = serve::Json::object();
    by_key.set("type", serve::Json::string("solve"));
    by_key.set("key", serve::Json::string(key));
    by_key.set("greedy", serve::Json::string(greedy));
    const serve::Json resp = call_ok(by_key.dump());
    EXPECT_EQ(resp.find("cache")->as_string(), "hit") << greedy;
    return resp.find("placement_text")->as_string();
  };
  const auto extraction = pdcs::extract_all(scenario);
  EXPECT_EQ(key_solve("per-type"),
            placement_bytes(opt::select_strategies(scenario,
                                                   extraction.candidates,
                                                   opt::GreedyMode::kPerType)
                                .placement));
  EXPECT_EQ(key_solve("global"), key_solve("lazy"));
  // A city where the two orders disagree, so the mode really reaches the
  // warm greedy.
  EXPECT_NE(key_solve("per-type"), key_solve("lazy"));
}

TEST_F(ServiceTest, DeltaMatchesDirectDeltaSolverAndRekeys) {
  const model::Scenario scenario = test::simple_scenario();

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const std::string base_key =
      call_ok(solve.dump()).find("key")->as_string();

  const std::string script =
      "{\"op\":\"add_device\",\"x\":8.0,\"y\":11.0}\n"
      "{\"op\":\"move_device\",\"index\":0,\"x\":9.5,\"y\":10.5}\n";

  // Direct reference: same ops through a DeltaSolver.
  opt::DeltaOptions dopts;
  dopts.workers = &pool_;
  opt::DeltaSolver reference(scenario.to_config(), std::move(dopts));
  for (const auto& op : opt::parse_delta_script(script)) reference.apply(op);

  serve::Json delta = serve::Json::object();
  delta.set("type", serve::Json::string("delta"));
  delta.set("key", serve::Json::string(base_key));
  delta.set("script", serve::Json::string(script));
  const serve::Json resp = call_ok(delta.dump());
  EXPECT_EQ(resp.find("ops")->as_number(), 2.0);
  EXPECT_EQ(resp.find("base_key")->as_string(), base_key);
  EXPECT_EQ(resp.find("placement_text")->as_string(),
            placement_bytes(reference.result().placement));
  const std::string new_key = resp.find("key")->as_string();
  EXPECT_EQ(new_key, serve::scenario_key(reference.scenario()));
  EXPECT_NE(new_key, base_key);

  // The entry moved: the old key is gone, the new key solves warm.
  serve::Json stale = serve::Json::object();
  stale.set("type", serve::Json::string("solve"));
  stale.set("key", serve::Json::string(base_key));
  EXPECT_EQ(call(stale.dump()).find("error")->as_string(), "unknown_key");

  serve::Json fresh = serve::Json::object();
  fresh.set("type", serve::Json::string("solve"));
  fresh.set("key", serve::Json::string(new_key));
  EXPECT_EQ(call_ok(fresh.dump()).find("placement_text")->as_string(),
            placement_bytes(reference.result().placement));
}

TEST_F(ServiceTest, DeltaMidScriptFailureReportsOpAndRekeys) {
  const model::Scenario scenario = test::simple_scenario();
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const std::string base_key =
      call_ok(solve.dump()).find("key")->as_string();

  // Op 1 applies; op 2 removes an out-of-range device and fails.
  const std::string script =
      "{\"op\":\"add_device\",\"x\":8.0,\"y\":11.0}\n"
      "{\"op\":\"remove_device\",\"index\":99}\n";
  serve::Json delta = serve::Json::object();
  delta.set("type", serve::Json::string("delta"));
  delta.set("key", serve::Json::string(base_key));
  delta.set("script", serve::Json::string(script));
  const serve::Json resp = call(delta.dump());
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_NE(resp.find("message")->as_string().find("delta op 2 of 2"),
            std::string::npos);
  EXPECT_EQ(resp.find("applied")->as_number(), 1.0);
  // The cache invariant survives the partial failure: the response's key is
  // the hash of the mutated scenario and still resolves.
  serve::Json fresh = serve::Json::object();
  fresh.set("type", serve::Json::string("solve"));
  fresh.set("key", *resp.find("key"));
  call_ok(fresh.dump());
}

TEST_F(ServiceTest, EvalInlineAndByKey) {
  const model::Scenario scenario = test::simple_scenario();
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const serve::Json solved = call_ok(solve.dump());

  serve::Json eval = serve::Json::object();
  eval.set("type", serve::Json::string("eval"));
  eval.set("key", *solved.find("key"));
  eval.set("placement", *solved.find("placement"));
  eval.set("per_device", serve::Json::boolean(true));
  const serve::Json by_key = call_ok(eval.dump());
  EXPECT_EQ(by_key.find("utility")->as_number(),
            solved.find("utility")->as_number());
  EXPECT_EQ(by_key.find("per_device_utility")->as_array().size(),
            scenario.num_devices());

  serve::Json inline_eval = serve::Json::object();
  inline_eval.set("type", serve::Json::string("eval"));
  inline_eval.set("scenario", serve::Json::string(scenario_text(scenario)));
  inline_eval.set("placement", *solved.find("placement"));
  EXPECT_EQ(call_ok(inline_eval.dump()).find("utility")->as_number(),
            solved.find("utility")->as_number());
}

TEST_F(ServiceTest, EvalPerDeviceMatchesScenarioBitForBit) {
  const model::Scenario scenario = test::small_paper_scenario(7, 2);
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const serve::Json solved = call_ok(solve.dump());

  // The placement exactly as the service parses it from the wire.
  model::Placement placement;
  for (const serve::Json& row : solved.find("placement")->as_array()) {
    const auto& v = row.as_array();
    placement.push_back({{v[0].as_number(), v[1].as_number()},
                         v[2].as_number(),
                         static_cast<std::size_t>(v[3].as_number())});
  }
  ASSERT_FALSE(placement.empty());

  serve::Json eval = serve::Json::object();
  eval.set("type", serve::Json::string("eval"));
  eval.set("key", *solved.find("key"));
  eval.set("placement", *solved.find("placement"));
  eval.set("per_device", serve::Json::boolean(true));
  const serve::Json resp = call_ok(eval.dump());

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(resp.find("utility")->as_number()),
            bits(scenario.placement_utility(placement)));
  const auto expect_array = [&](const char* field,
                                const std::vector<double>& want) {
    const auto& got = resp.find(field)->as_array();
    ASSERT_EQ(got.size(), want.size()) << field;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(bits(got[j].as_number()), bits(want[j]))
          << field << " device " << j;
    }
  };
  expect_array("per_device_power", scenario.per_device_power(placement));
  expect_array("per_device_utility", scenario.per_device_utility(placement));
}

TEST_F(ServiceTest, MalformedRequestsGetErrorResponsesNotThrows) {
  EXPECT_EQ(call("not json at all").find("error")->as_string(),
            "bad_request");
  EXPECT_EQ(call("[1,2,3]").find("error")->as_string(), "bad_request");
  EXPECT_EQ(call("{\"no_type\":1}").find("error")->as_string(),
            "bad_request");
  EXPECT_EQ(call("{\"type\":\"frobnicate\"}").find("error")->as_string(),
            "bad_request");
  EXPECT_EQ(call("{\"type\":\"solve\"}").find("error")->as_string(),
            "bad_request");
  serve::Json bad_key = serve::Json::object();
  bad_key.set("type", serve::Json::string("solve"));
  bad_key.set("key", serve::Json::string("NOT-A-KEY"));
  EXPECT_EQ(call(bad_key.dump()).find("error")->as_string(), "bad_request");
  // A \u0000 in a delta script does not end the line: the bytes after it
  // are trailing junk, so the op is rejected rather than applied.
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  serve::Json nul_delta = serve::Json::object();
  nul_delta.set("type", serve::Json::string("delta"));
  nul_delta.set("key", *call_ok(solve.dump()).find("key"));
  nul_delta.set("script", serve::Json::string(
                              std::string("{\"op\":\"remove_device\","
                                          "\"index\":0}") +
                              '\0' + "junk"));
  ASSERT_NE(nul_delta.dump().find("\\u0000"), std::string::npos);
  const serve::Json nul_resp = call(nul_delta.dump());
  EXPECT_EQ(nul_resp.find("error")->as_string(), "bad_request");
  EXPECT_NE(nul_resp.find("message")->as_string().find("trailing"),
            std::string::npos);
  // The id is echoed even on errors so pipelined clients can match frames.
  const serve::Json resp =
      call("{\"id\":\"req-7\",\"type\":\"frobnicate\"}");
  EXPECT_EQ(resp.find("id")->as_string(), "req-7");
  EXPECT_GE(service_->stats().errors, 6u);
}

TEST_F(ServiceTest, DeeplyNestedFrameIsABadRequestAndServingGoesOn) {
  // A 1 MiB run of '[' would overflow an unbounded recursive parser's
  // stack on a connection thread; it must be one bad_request like any
  // other, and the service must go on serving.
  const serve::Json deep = call(std::string(std::size_t{1} << 20, '['));
  EXPECT_EQ(deep.find("error")->as_string(), "bad_request");
  EXPECT_NE(deep.find("message")->as_string().find("nesting"),
            std::string::npos);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  core::SolveOptions copts;
  copts.pool = &pool_;
  EXPECT_EQ(call_ok(solve.dump()).find("placement_text")->as_string(),
            placement_bytes(core::solve(test::simple_scenario(), copts)
                                .placement));
}

TEST_F(ServiceTest, StatsCountsRequestsAndCacheTraffic) {
  const model::Scenario scenario = test::simple_scenario();
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  call_ok(solve.dump());
  call_ok(solve.dump());
  const serve::Json stats = call_ok("{\"type\":\"stats\"}");
  EXPECT_EQ(stats.find("solves_cold")->as_number(), 1.0);
  EXPECT_EQ(stats.find("solves_warm")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("misses")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("hits")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("entries")->as_number(), 1.0);
  const serve::ServiceStats s = service_->stats();
  EXPECT_EQ(s.solves_cold, 1u);
  EXPECT_EQ(s.solves_warm, 1u);
}

TEST_F(ServiceTest, ShutdownRequestFlagsTheService) {
  EXPECT_FALSE(service_->shutdown_requested());
  call_ok("{\"type\":\"shutdown\"}");
  EXPECT_TRUE(service_->shutdown_requested());
}

TEST(ServiceAdmission, OverloadedRequestsAreRejectedNotQueued) {
  // max_inflight = 0 rejects every compute request (the drain-only
  // configuration) while control requests still work — the deterministic
  // way to pin the overload response shape.
  parallel::ThreadPool pool(2);
  serve::ServiceOptions opts;
  opts.cache_entries = 2;
  opts.max_inflight = 0;
  opts.pool = &pool;
  serve::Service service(opts);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  const serve::Json resp = serve::parse_json(service.handle(solve.dump()));
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("error")->as_string(), "overloaded");
  EXPECT_EQ(service.stats().rejected, 1u);
  // stats (control plane) bypasses admission.
  const serve::Json stats =
      serve::parse_json(service.handle("{\"type\":\"stats\"}"));
  EXPECT_TRUE(stats.find("ok")->as_bool());
}

TEST(ServiceConcurrency, ParallelMixedRequestsStayDeterministic) {
  parallel::ThreadPool pool(4);
  serve::ServiceOptions opts;
  opts.cache_entries = 4;
  opts.max_inflight = 8;
  opts.pool = &pool;
  serve::Service service(opts);

  const model::Scenario a = test::simple_scenario();
  const model::Scenario b = test::blocked_scenario();
  core::SolveOptions copts;
  copts.pool = &pool;
  const std::string ref_a = placement_bytes(core::solve(a, copts).placement);
  const std::string ref_b = placement_bytes(core::solve(b, copts).placement);

  serve::Json req_a = serve::Json::object();
  req_a.set("type", serve::Json::string("solve"));
  req_a.set("scenario", serve::Json::string(scenario_text(a)));
  serve::Json req_b = serve::Json::object();
  req_b.set("type", serve::Json::string("solve"));
  req_b.set("scenario", serve::Json::string(scenario_text(b)));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string& want = (i % 2 == 0) ? ref_a : ref_b;
      const std::string request =
          (i % 2 == 0) ? req_a.dump() : req_b.dump();
      for (int r = 0; r < 3; ++r) {
        const serve::Json resp = serve::parse_json(service.handle(request));
        if (!resp.find("ok")->as_bool() ||
            resp.find("placement_text")->as_string() != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.solves_cold + s.solves_warm,
            static_cast<std::uint64_t>(kThreads * 3));
}

// --- observability --------------------------------------------------------

TEST_F(ServiceTest, EveryResponseCarriesAMonotonicRequestId) {
  EXPECT_EQ(call_ok("{\"type\":\"stats\"}").find("request_id")->as_string(),
            "r1");
  EXPECT_EQ(call_ok("{\"type\":\"stats\"}").find("request_id")->as_string(),
            "r2");
  // Errors are numbered too — the id is the envelope, not a success field.
  const serve::Json bad = call("not json at all");
  EXPECT_EQ(bad.find("request_id")->as_string(), "r3");
  EXPECT_EQ(bad.find("error")->as_string(), "bad_request");
}

TEST(ServiceObservability, FullObservabilityDoesNotChangeServedBytes) {
  // The acceptance contract: logging + flight recorder + metrics + tracing
  // all on, response bytes identical to a bare service (same request ids,
  // same placement bytes).
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::reset_trace();
  parallel::ThreadPool pool(2);

  serve::ServiceOptions plain_opts;
  plain_opts.cache_entries = 4;
  plain_opts.max_inflight = 4;
  plain_opts.pool = &pool;
  serve::Service plain(plain_opts);

  std::ostringstream sink;
  obs::log::Logger logger(sink,
                          {.min_level = obs::log::Level::kDebug});
  serve::ServiceOptions obs_opts = plain_opts;
  obs_opts.logger = &logger;
  obs_opts.flight_entries = 16;
  serve::Service observed(obs_opts);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  const std::string request = solve.dump();

  // Cold, then warm, then an error — byte-identical at every step.
  EXPECT_EQ(plain.handle(request), observed.handle(request));
  EXPECT_EQ(plain.handle(request), observed.handle(request));
  EXPECT_EQ(plain.handle("{\"type\":\"frobnicate\"}"),
            observed.handle("{\"type\":\"frobnicate\"}"));

  logger.flush();
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);

  // The observed service wrote one record per request, matching the
  // responses: r1 cold miss, r2 warm hit, r3 error.
  std::vector<std::string> lines;
  {
    std::istringstream is(sink.str());
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  const serve::Json rec1 = serve::parse_json(lines[0]);
  EXPECT_EQ(rec1.find("request_id")->as_string(), "r1");
  EXPECT_EQ(rec1.find("type")->as_string(), "solve");
  EXPECT_EQ(rec1.find("cache")->as_string(), "miss");
  EXPECT_EQ(rec1.find("admission")->as_string(), "admitted");
  EXPECT_TRUE(rec1.find("ok")->as_bool());
  EXPECT_GT(rec1.find("seconds")->as_number(), 0.0);
  EXPECT_GT(rec1.find("bytes_in")->as_number(), 0.0);
  EXPECT_GT(rec1.find("bytes_out")->as_number(), 0.0);
  EXPECT_EQ(rec1.find("key")->as_string(),
            serve::scenario_key(test::simple_scenario()));
  const serve::Json rec2 = serve::parse_json(lines[1]);
  EXPECT_EQ(rec2.find("cache")->as_string(), "hit");
  const serve::Json rec3 = serve::parse_json(lines[2]);
  EXPECT_EQ(rec3.find("request_id")->as_string(), "r3");
  EXPECT_EQ(rec3.find("level")->as_string(), "error");
  EXPECT_EQ(rec3.find("error")->as_string(), "bad_request");
  EXPECT_FALSE(rec3.find("ok")->as_bool());

  // Trace correlation: the solver phases of request r1 were emitted on its
  // per-request track (tid = 100000 + 1).
  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_NE(trace.str().find("\"tid\":100001"), std::string::npos);
  EXPECT_NE(trace.str().find("\"request_id\":\"r1\""), std::string::npos);
  obs::reset_trace();

  // The flight recorder retained the same three records.
  const std::vector<std::string> flight = observed.flight_records();
  ASSERT_EQ(flight.size(), 3u);
  EXPECT_EQ(flight[0], lines[0]);
  EXPECT_EQ(flight[2], lines[2]);
}

TEST(ServiceObservability, MetricsScrapeUnderLoadIsConsistent) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  parallel::ThreadPool pool(4);
  serve::ServiceOptions opts;
  opts.cache_entries = 4;
  opts.max_inflight = 8;
  opts.pool = &pool;
  serve::Service service(opts);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  const std::string request = solve.dump();

  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const serve::Json resp =
          serve::parse_json(service.handle("{\"type\":\"metrics\"}"));
      if (resp.find("ok") == nullptr || !resp.find("ok")->as_bool()) {
        scrape_failures.fetch_add(1);
        continue;
      }
      const serve::Json* counters =
          resp.find("metrics")->find("counters");
      const serve::Json* hists =
          resp.find("metrics")->find("histograms");
      const serve::Json* requests = counters->find("serve.requests");
      const serve::Json* h = hists->find("serve.request_seconds");
      if (requests == nullptr || h == nullptr) continue;
      // Snapshot invariant: requests are counted on entry, latencies
      // observed on exit — a consistent snapshot can never show more
      // completed latencies than started requests.
      if (h->find("count")->as_number() > requests->as_number()) {
        scrape_failures.fetch_add(1);
      }
      const std::string prom = resp.find("prometheus")->as_string();
      if (prom.find("hipo_serve_requests_total") == std::string::npos) {
        scrape_failures.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < 3; ++r) {
        const serve::Json resp = serve::parse_json(service.handle(request));
        EXPECT_TRUE(resp.find("ok")->as_bool());
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(scrape_failures.load(), 0);

  // Derived percentiles are live and ordered.
  const serve::ServiceStats s = service.stats();
  EXPECT_GT(s.request_p50, 0.0);
  EXPECT_LE(s.request_p50, s.request_p90);
  EXPECT_LE(s.request_p90, s.request_p99);
  const serve::Json stats =
      serve::parse_json(service.handle("{\"type\":\"stats\"}"));
  EXPECT_GT(stats.find("request_seconds")->find("p99")->as_number(), 0.0);
  obs::set_metrics_enabled(false);
}

TEST(ServiceObservability, FlightRecorderCapturesErrorsForPostMortem) {
  parallel::ThreadPool pool(2);
  serve::ServiceOptions opts;
  opts.cache_entries = 2;
  opts.max_inflight = 2;
  opts.pool = &pool;
  opts.flight_entries = 8;
  serve::Service service(opts);

  // r1 fails, r2 succeeds; the flight request then explains both.
  serve::parse_json(service.handle("{\"type\":\"frobnicate\"}"));
  serve::parse_json(service.handle("{\"type\":\"stats\"}"));
  const serve::Json flight =
      serve::parse_json(service.handle("{\"type\":\"flight\"}"));
  ASSERT_TRUE(flight.find("ok")->as_bool());
  EXPECT_EQ(flight.find("capacity")->as_number(), 8.0);
  EXPECT_EQ(flight.find("recorded")->as_number(), 2.0);
  const auto& records = flight.find("records")->as_array();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].find("request_id")->as_string(), "r1");
  EXPECT_EQ(records[0].find("level")->as_string(), "error");
  EXPECT_EQ(records[0].find("error")->as_string(), "bad_request");
  EXPECT_EQ(records[1].find("request_id")->as_string(), "r2");
  EXPECT_EQ(records[1].find("type")->as_string(), "stats");

  // A service without a recorder still answers (empty).
  serve::ServiceOptions bare = opts;
  bare.flight_entries = 0;
  serve::Service no_flight(bare);
  const serve::Json empty =
      serve::parse_json(no_flight.handle("{\"type\":\"flight\"}"));
  EXPECT_TRUE(empty.find("ok")->as_bool());
  EXPECT_EQ(empty.find("records")->as_array().size(), 0u);
  EXPECT_EQ(empty.find("capacity")->as_number(), 0.0);
}

// --- socket server --------------------------------------------------------

TEST(ServeServer, LoopbackRoundTripAndCleanShutdown) {
  parallel::ThreadPool pool(2);
  serve::ServiceOptions sopts;
  sopts.cache_entries = 2;
  sopts.max_inflight = 2;
  sopts.pool = &pool;
  serve::Service service(sopts);
  serve::Server server(service, serve::ServerOptions{});
  ASSERT_NE(server.port(), 0);
  server.start();

  const model::Scenario scenario = test::simple_scenario();
  core::SolveOptions copts;
  copts.pool = &pool;
  const std::string reference =
      placement_bytes(core::solve(scenario, copts).placement);

  {
    serve::Client client(server.port());
    serve::Json req = serve::Json::object();
    req.set("type", serve::Json::string("solve"));
    req.set("scenario", serve::Json::string(scenario_text(scenario)));
    const serve::Json cold = serve::parse_json(client.call(req.dump()));
    ASSERT_TRUE(cold.find("ok")->as_bool());
    EXPECT_EQ(cold.find("placement_text")->as_string(), reference);
    // Same connection, second request: pipelined frames work.
    const serve::Json warm = serve::parse_json(client.call(req.dump()));
    EXPECT_EQ(warm.find("cache")->as_string(), "hit");
    EXPECT_EQ(warm.find("placement_text")->as_string(), reference);
  }
  {
    // A garbled frame gets an error response, not a dead socket.
    serve::Client client(server.port());
    const serve::Json bad = serve::parse_json(client.call("{{{{"));
    EXPECT_FALSE(bad.find("ok")->as_bool());
  }
  {
    serve::Client client(server.port());
    const serve::Json resp =
        serve::parse_json(client.call("{\"type\":\"shutdown\"}"));
    EXPECT_TRUE(resp.find("ok")->as_bool());
  }
  server.stop();  // must join cleanly after the served shutdown
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeServer, ClientResetBeforeReplyIsCountedNotFatal) {
  // A client that resets its connection while its request is in flight
  // must cost the daemon one failed reply (counted), not a SIGPIPE.
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  parallel::ThreadPool pool(2);
  serve::ServiceOptions sopts;
  sopts.cache_entries = 2;
  sopts.max_inflight = 2;
  sopts.pool = &pool;
  serve::Service service(sopts);
  serve::Server server(service, serve::ServerOptions{});
  server.start();

  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario",
          serve::Json::string(scenario_text(test::small_paper_scenario(3))));
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    serve::write_frame_fd(fd, req.dump());
    // Zero-timeout linger: close() sends RST instead of FIN.
    const linger reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    ::close(fd);
  }
  // The failed reply is counted on the connection's thread once the solve
  // finishes; wait for it.
  const obs::Counter& resets = obs::counter("serve.client_resets");
  for (int i = 0; i < 3000 && resets.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  serve::Client client(server.port());
  const serve::Json stats =
      serve::parse_json(client.call("{\"type\":\"stats\"}"));
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(resets.value(), 1u);
  server.stop();
}

TEST(ServeServer, ConnectionBeyondTheLimitGetsAnOverloadedReply) {
  parallel::ThreadPool pool(1);
  serve::ServiceOptions sopts;
  sopts.pool = &pool;
  serve::Service service(sopts);
  serve::ServerOptions ropts;
  ropts.max_connections = 1;
  serve::Server server(service, ropts);
  server.start();
  // The listen queue is FIFO, so `held` is accepted first and keeps the
  // only slot while the second connection is turned away.
  serve::Client held(server.port());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string reply;
  ASSERT_TRUE(serve::read_frame_fd(fd, 1u << 20, reply));
  ::close(fd);
  EXPECT_EQ(reply,
            "{\"error\":\"overloaded\",\"message\":\"connection limit "
            "reached; retry later\",\"ok\":false}");
  server.stop();
}

TEST(ServeServer, ConcurrentClientsOverLoopback) {
  parallel::ThreadPool pool(4);
  serve::ServiceOptions sopts;
  sopts.cache_entries = 2;
  sopts.max_inflight = 4;
  sopts.pool = &pool;
  serve::Service service(sopts);
  serve::Server server(service, serve::ServerOptions{});
  server.start();

  const std::string text = scenario_text(test::simple_scenario());
  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(text));
  const std::string request = req.dump();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  std::vector<std::string> first(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      try {
        serve::Client client(server.port());
        const serve::Json resp =
            serve::parse_json(client.call(request));
        if (!resp.find("ok")->as_bool()) {
          failures.fetch_add(1);
          return;
        }
        first[i] = resp.find("placement_text")->as_string();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(first[i], first[0]);
  server.stop();
}

}  // namespace
}  // namespace hipo
