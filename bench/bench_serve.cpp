// Solver-service benchmark: cold (cache-miss) vs cached (cache-hit) solve
// latency through serve::Service, sustained cached throughput under
// concurrent callers, and overload behavior at a tight admission limit —
// swept over candidate-pool sizes (~8k and ~32k, same clustered geometry as
// bench_micro_delta).
//
// The Service is driven directly (no sockets): the daemon is a thin framing
// loop around Service::handle, so this measures the serving path itself,
// not loopback TCP. Every cold/warm response pair is checked byte-identical
// (placement_text), and the overload phase requires explicit `overloaded`
// errors — never a crash or an unbounded queue. Emits machine-readable JSON
// (BENCH_serve.json, schema in docs/FORMATS.md) alongside the table.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/model/io.hpp"
#include "src/model/scenario.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/serve/service.hpp"
#include "src/serve/wire.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

using namespace hipo;

namespace {

constexpr double kDMax = 5.0;      // charging range; 2·d_max = 10 m disk
constexpr double kSpacing = 12.0;  // cluster pitch (> 2·d_max: independent)
constexpr std::size_t kPerCluster = 3;

/// Same clustered geometry as bench_micro_delta: a side × side grid of
/// 3-device clusters, one charger type, a few obstacle rects. Density is
/// constant, so candidates grow linearly with the grid.
model::Scenario::Config clustered_config(std::size_t side, Rng& rng) {
  model::Scenario::Config cfg;
  const double extent = kSpacing * static_cast<double>(side) + 8.0;
  cfg.region = {{0.0, 0.0}, {extent, extent}};
  cfg.eps1 = 0.3;
  cfg.charger_types.push_back({geom::kPi / 2.0, 1.0, kDMax});
  cfg.charger_counts.push_back(16);
  cfg.device_types.push_back({geom::kPi});
  cfg.pair_params.push_back({10.0, 2.0});
  for (std::size_t gy = 0; gy < side; ++gy) {
    for (std::size_t gx = 0; gx < side; ++gx) {
      const geom::Vec2 center{8.0 + kSpacing * static_cast<double>(gx),
                              8.0 + kSpacing * static_cast<double>(gy)};
      for (std::size_t k = 0; k < kPerCluster; ++k) {
        model::Device d;
        d.pos = {center.x + rng.uniform(-2.0, 2.0),
                 center.y + rng.uniform(-2.0, 2.0)};
        d.orientation = rng.angle();
        d.type = 0;
        d.p_th = 0.5;
        d.weight = 1.0;
        cfg.devices.push_back(d);
      }
      if ((gx + gy) % 4 == 1) {
        const geom::Vec2 o{center.x + kSpacing / 2.0 - 1.0, center.y - 1.0};
        cfg.obstacles.push_back(geom::make_rect(o, {o.x + 2.0, o.y + 2.0}));
      }
    }
  }
  return cfg;
}

/// Candidate-pool yield of one cluster grid (a full extraction, the cheap
/// part of a cold solve — sizing probes skip the greedy).
std::size_t pool_of(std::size_t side, std::uint64_t seed) {
  Rng rng(seed_combine(seed, side));
  const model::Scenario scenario(clustered_config(side, rng));
  return pdcs::extract_all(scenario).candidates.size();
}

/// Smallest cluster grid whose pool reaches `target` candidates, returned
/// as serialized scenario text (what a serve client would send).
std::string sized_scenario_text(std::size_t target, std::uint64_t seed,
                                std::size_t& side_out) {
  std::size_t side = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::sqrt(static_cast<double>(target)) / 6));
  for (int probe = 0; probe < 12; ++probe, ++side) {
    const std::size_t pool = pool_of(side, seed);
    if (pool >= target) {
      side_out = side;
      Rng rng(seed_combine(seed, side));
      std::ostringstream os;
      model::write_scenario(os, model::Scenario(clustered_config(side, rng)));
      return os.str();
    }
    const double yield =
        static_cast<double>(pool) / static_cast<double>(side * side);
    const double need =
        1.1 * static_cast<double>(target) / std::max(yield, 1.0);
    side = std::max(side, static_cast<std::size_t>(
                              std::ceil(std::sqrt(need))) - 1);
  }
  throw ConfigError("sized_scenario_text: target pool size not reached");
}

std::string solve_request(const std::string& scenario_text) {
  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(scenario_text));
  return req.dump();
}

/// Response field access with a hard failure on error responses: the bench
/// must never time an error path as if it were a solve.
serve::Json require_ok(const std::string& response_text) {
  serve::Json resp = serve::parse_json(response_text);
  const serve::Json* ok = resp.find("ok");
  HIPO_REQUIRE(ok != nullptr && ok->is_bool() && ok->as_bool(),
               "serve request failed: " + response_text);
  return resp;
}

std::string field_string(const serve::Json& resp, const char* key) {
  const serve::Json* f = resp.find(key);
  HIPO_REQUIRE(f != nullptr && f->is_string(),
               std::string("response missing \"") + key + "\"");
  return f->as_string();
}

double median_ms(std::vector<double> seconds) {
  HIPO_REQUIRE(!seconds.empty(), "no timings collected");
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2] * 1e3;
}

struct SizeResult {
  std::size_t target = 0;
  std::size_t candidates = 0;
  std::size_t devices = 0;
  std::size_t cold_reps = 0;
  std::size_t warm_reps = 0;
  double cold_median_ms = 0.0;
  double warm_median_ms = 0.0;
  double warm_throughput_rps = 0.0;
  std::uint64_t overload_accepted = 0;
  std::uint64_t overload_rejected = 0;
  double speedup() const {
    return warm_median_ms > 0.0 ? cold_median_ms / warm_median_ms : 0.0;
  }
};

/// One pool size: cold latency (fresh Service per rep, so every solve is a
/// cache miss), warm latency (key-only solves against the cached entry),
/// concurrent cached throughput, and an overload phase at max_inflight 1.
SizeResult run_size(std::size_t target, std::size_t cold_reps,
                    std::size_t warm_reps, std::size_t clients,
                    parallel::ThreadPool& pool, std::uint64_t seed) {
  std::size_t side = 0;
  const std::string scenario_text = sized_scenario_text(target, seed, side);
  const std::string request = solve_request(scenario_text);

  SizeResult out;
  out.target = target;
  out.cold_reps = cold_reps;
  out.warm_reps = warm_reps;

  // Cold: a fresh Service per rep keeps the cache empty, so each timed
  // handle() runs the full extract + matrix + greedy pipeline.
  std::vector<double> cold_s;
  std::string cold_placement, key;
  for (std::size_t rep = 0; rep < cold_reps; ++rep) {
    serve::ServiceOptions cold_opts;
    cold_opts.cache_entries = 2;
    cold_opts.pool = &pool;
    serve::Service service(cold_opts);
    obs::Stopwatch t;
    const std::string response = service.handle(request);
    cold_s.push_back(t.seconds());
    const serve::Json resp = require_ok(response);
    HIPO_REQUIRE(field_string(resp, "cache") == "miss",
                 "cold solve unexpectedly hit the cache");
    const std::string placement = field_string(resp, "placement_text");
    if (rep == 0) {
      cold_placement = placement;
      key = field_string(resp, "key");
      const serve::Json* cand = resp.find("candidates");
      HIPO_REQUIRE(cand != nullptr && cand->is_number(),
                   "response missing \"candidates\"");
      out.candidates = static_cast<std::size_t>(cand->as_number());
    } else {
      HIPO_REQUIRE(placement == cold_placement,
                   "cold solves disagree across reps");
    }
  }
  out.devices = side * side * kPerCluster;

  // Warm: one long-lived Service; the first solve populates the cache, the
  // timed key-only solves run warm select_strategies over the cached matrix.
  serve::ServiceOptions warm_opts;
  warm_opts.cache_entries = 4;
  warm_opts.max_inflight = std::max<std::size_t>(clients, 4);
  warm_opts.pool = &pool;
  serve::Service service(warm_opts);
  require_ok(service.handle(request));
  serve::Json by_key = serve::Json::object();
  by_key.set("type", serve::Json::string("solve"));
  by_key.set("key", serve::Json::string(key));
  const std::string warm_request = by_key.dump();

  std::vector<double> warm_s;
  for (std::size_t rep = 0; rep < warm_reps; ++rep) {
    obs::Stopwatch t;
    const std::string response = service.handle(warm_request);
    warm_s.push_back(t.seconds());
    const serve::Json resp = require_ok(response);
    HIPO_REQUIRE(field_string(resp, "cache") == "hit",
                 "warm solve missed the cache");
    HIPO_REQUIRE(field_string(resp, "placement_text") == cold_placement,
                 "cached placement diverged from the cold solve");
  }
  out.cold_median_ms = median_ms(std::move(cold_s));
  out.warm_median_ms = median_ms(std::move(warm_s));

  // Throughput: `clients` caller threads issue cached solves concurrently;
  // the pool's chunked reductions keep every response byte-identical.
  const std::size_t per_client = std::max<std::size_t>(warm_reps / 2, 2);
  std::atomic<std::uint64_t> mismatches{0};
  obs::Stopwatch window;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (std::size_t r = 0; r < per_client; ++r) {
          const serve::Json resp = require_ok(service.handle(warm_request));
          if (field_string(resp, "placement_text") != cold_placement) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double window_s = window.seconds();
  HIPO_REQUIRE(mismatches.load() == 0,
               "concurrent cached solves diverged from the cold solve");
  out.warm_throughput_rps =
      window_s > 0.0
          ? static_cast<double>(clients * per_client) / window_s
          : 0.0;

  // Overload: admission limit of 1 with many concurrent callers — the
  // excess must come back as explicit `overloaded` errors, and every
  // accepted response must still carry the identical placement.
  serve::ServiceOptions tight_opts;
  tight_opts.cache_entries = 4;
  tight_opts.max_inflight = 1;
  tight_opts.pool = &pool;
  serve::Service tight(tight_opts);
  require_ok(tight.handle(request));
  std::atomic<std::uint64_t> accepted{0}, rejected{0}, unexpected{0};
  {
    std::vector<std::thread> threads;
    const std::size_t storm = std::max<std::size_t>(clients * 2, 8);
    threads.reserve(storm);
    for (std::size_t c = 0; c < storm; ++c) {
      threads.emplace_back([&] {
        for (std::size_t r = 0; r < 4; ++r) {
          const serve::Json resp =
              serve::parse_json(tight.handle(warm_request));
          const serve::Json* ok = resp.find("ok");
          if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
            if (field_string(resp, "placement_text") != cold_placement) {
              unexpected.fetch_add(1, std::memory_order_relaxed);
            }
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else if (const serve::Json* err = resp.find("error");
                     err != nullptr && err->is_string() &&
                     err->as_string() == "overloaded") {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else {
            unexpected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  HIPO_REQUIRE(unexpected.load() == 0,
               "overload phase produced a non-overloaded failure");
  HIPO_REQUIRE(accepted.load() > 0, "overload phase admitted nothing");
  out.overload_accepted = accepted.load();
  out.overload_rejected = rejected.load();
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", 42));
  const int cold_reps = cli.get_or("cold-reps", 3);
  const int warm_reps = cli.get_or("warm-reps", 15);
  const int clients = cli.get_or("clients", 4);
  const int max_target = cli.get_or("max-target", 32768);
  const int threads = cli.get_or("threads", 0);
  const std::string out_path =
      cli.get_or("out", std::string("BENCH_serve.json"));
  cli.finish();
  HIPO_REQUIRE(cold_reps >= 1 && warm_reps >= 1 && clients >= 1,
               "--cold-reps, --warm-reps, and --clients must be >= 1");

  parallel::ThreadPool pool(static_cast<std::size_t>(threads));

  std::vector<SizeResult> results;
  Table table({"target", "candidates", "devices", "cold ms", "warm ms",
               "speedup", "warm rps", "accepted", "overloaded"});
  for (int target : {512, 8192, 32768}) {
    if (target > max_target) continue;
    results.push_back(run_size(static_cast<std::size_t>(target),
                               static_cast<std::size_t>(cold_reps),
                               static_cast<std::size_t>(warm_reps),
                               static_cast<std::size_t>(clients), pool, seed));
    const SizeResult& r = results.back();
    table.row()
        .add(static_cast<int>(r.target))
        .add(static_cast<int>(r.candidates))
        .add(static_cast<int>(r.devices))
        .add(fmt(r.cold_median_ms))
        .add(fmt(r.warm_median_ms))
        .add(fmt(r.speedup()))
        .add(fmt(r.warm_throughput_rps))
        .add(static_cast<int>(r.overload_accepted))
        .add(static_cast<int>(r.overload_rejected));
  }
  HIPO_REQUIRE(!results.empty(), "max-target excluded every pool size");
  table.print(std::cout);
  std::cout << "all served placements byte-identical (cold, cached, "
               "concurrent); overload rejections are explicit errors\n";

  std::ofstream json(out_path);
  HIPO_REQUIRE(json.good(), "cannot open output file " + out_path);
  json << "{\n  \"bench\": \"serve\",\n  \"build\": "
       << obs::build_info_json() << ",\n  \"seed\": " << seed
       << ",\n  \"cold_reps\": " << cold_reps
       << ",\n  \"warm_reps\": " << warm_reps
       << ",\n  \"clients\": " << clients
       << ",\n  \"placements_identical\": true,\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"target\": " << r.target
         << ", \"candidates\": " << r.candidates
         << ", \"devices\": " << r.devices
         << ", \"cold_median_ms\": " << r.cold_median_ms
         << ", \"warm_median_ms\": " << r.warm_median_ms
         << ", \"speedup\": " << r.speedup()
         << ", \"warm_throughput_rps\": " << r.warm_throughput_rps
         << ", \"overload_accepted\": " << r.overload_accepted
         << ", \"overload_rejected\": " << r.overload_rejected << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"peak_rss_bytes\": " << obs::peak_rss_bytes()
       << "\n}\n";
  std::cout << "JSON written to " << out_path << "\n";
  return 0;
}
