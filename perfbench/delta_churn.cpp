// delta_churn: one closed-loop caller sends a seeded stream of one-op
// `delta` requests against one cached 1k-device dense-budget city and
// follows the returned key. The mix (~60% small moves, 15% adds, 15%
// removes, 10% obstacle add/remove) keeps the device count flat. These are
// the writes beside serve_hits' reads on the same cache and matrix: local
// re-extraction, CoverageMatrix::apply_patch, warm greedy and re-key.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "spans.hpp"
#include "src/core/solver.hpp"
#include "src/geometry/polygon.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/opt/delta.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/serve/hash.hpp"
#include "src/serve/service.hpp"
#include "src/serve/wire.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using hipo::geom::Vec2;
using hipo::model::Scenario;
using hipo::serve::Json;

constexpr int kScale = 5;
constexpr std::size_t kMinReplans = 100;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool position_free(const Scenario::Config& cfg, Vec2 p) {
  if (!cfg.region.contains(p, hipo::geom::kEps)) return false;
  for (const auto& h : cfg.obstacles) {
    if (h.contains_interior(p)) return false;
  }
  return true;
}

Vec2 free_position(const Scenario::Config& cfg, hipo::Rng& rng) {
  for (;;) {
    const Vec2 p{rng.uniform(cfg.region.lo.x, cfg.region.hi.x),
                 rng.uniform(cfg.region.lo.y, cfg.region.hi.y)};
    if (position_free(cfg, p)) return p;
  }
}

/// Draw one valid op against the mirrored config, apply it to the mirror,
/// and return it as one delta-script line.
std::string next_op(Scenario::Config& cfg, std::size_t base_obstacles,
                    hipo::Rng& rng) {
  const std::size_t n = cfg.devices.size();
  // With fewer than two devices left, every draw becomes an add.
  const double u = n < 2 ? 0.7 : rng.uniform();
  if (u < 0.60) {
    const std::size_t i = rng() % n;
    const Vec2 from = cfg.devices[i].pos;
    Vec2 to;
    do {
      to = {from.x + rng.uniform(-1.5, 1.5), from.y + rng.uniform(-1.5, 1.5)};
    } while (!position_free(cfg, to));
    cfg.devices[i].pos = to;
    return "{\"op\":\"move_device\",\"index\":" + std::to_string(i) +
           ",\"x\":" + num(to.x) + ",\"y\":" + num(to.y) + "}";
  }
  if (u < 0.75) {
    hipo::model::Device d;
    d.pos = free_position(cfg, rng);
    d.orientation = rng.angle();
    d.type = rng() % cfg.device_types.size();
    cfg.devices.push_back(d);
    return "{\"op\":\"add_device\",\"x\":" + num(d.pos.x) +
           ",\"y\":" + num(d.pos.y) + ",\"orientation\":" +
           num(d.orientation) + ",\"type\":" + std::to_string(d.type) + "}";
  }
  if (u < 0.90) {
    const std::size_t i = rng() % n;
    cfg.devices.erase(cfg.devices.begin() + static_cast<std::ptrdiff_t>(i));
    return "{\"op\":\"remove_device\",\"index\":" + std::to_string(i) + "}";
  }
  if (cfg.obstacles.size() > base_obstacles) {
    const std::size_t i = base_obstacles + rng() % (cfg.obstacles.size() -
                                                    base_obstacles);
    cfg.obstacles.erase(cfg.obstacles.begin() +
                        static_cast<std::ptrdiff_t>(i));
    return "{\"op\":\"remove_obstacle\",\"index\":" + std::to_string(i) + "}";
  }
  for (;;) {
    const Vec2 lo = free_position(cfg, rng);
    const double side = rng.uniform(0.5, 1.5);
    const std::vector<Vec2> v = {
        lo, {lo.x + side, lo.y}, {lo.x + side, lo.y + side},
        {lo.x, lo.y + side}};
    if (!cfg.region.contains(v[2], hipo::geom::kEps)) continue;
    const hipo::geom::Polygon poly(v);
    bool clear = true;
    for (const auto& d : cfg.devices) clear = clear && !poly.contains_interior(d.pos);
    for (const auto& h : cfg.obstacles) {
      clear = clear && !(h.bbox().lo.x <= v[2].x && lo.x <= h.bbox().hi.x &&
                         h.bbox().lo.y <= v[2].y && lo.y <= h.bbox().hi.y);
    }
    if (!clear) continue;
    cfg.obstacles.push_back(poly);
    std::string line = "{\"op\":\"add_obstacle\",\"vertices\":[";
    for (std::size_t k = 0; k < v.size(); ++k) {
      line += (k ? ",[" : "[") + num(v[k].x) + "," + num(v[k].y) + "]";
    }
    return line + "]}";
  }
}

double number_field(const Json* obj, const char* key) {
  const Json* f = obj != nullptr ? obj->find(key) : nullptr;
  return f != nullptr && f->is_number() ? f->as_number() : 0.0;
}

}  // namespace

void run_delta_churn(const Args& args, Report& report) {
  const int scale = args.tiny ? 1 : kScale;
  const std::size_t workers = cpu_count() > 1 ? cpu_count() - 1 : 1;

  std::optional<Scenario> city;
  std::unique_ptr<hipo::parallel::ThreadPool> pool;
  std::unique_ptr<hipo::serve::Service> service;
  std::string key;
  const double setup_s = timed_setup(args.tiny ? 1 : 3, [&] {
    service.reset();
    pool.reset();
    city.emplace(make_city(scale, true, hipo::seed_combine(args.seed, 21)));
    pool = std::make_unique<hipo::parallel::ThreadPool>(workers);
    hipo::serve::ServiceOptions opts;
    opts.pool = pool.get();
    service = std::make_unique<hipo::serve::Service>(opts);
    Json req = Json::object();
    req.set("type", Json::string("solve"));
    req.set("scenario", Json::string(scenario_text(*city)));
    const Json resp = hipo::serve::parse_json(service->handle(req.dump()));
    key = string_field(resp, "key");
  });
  report.info("pool_workers", std::to_string(workers));
  report.info("callers", "1");
  report.info("devices", std::to_string(city->num_devices()));
  report.info("chargers", std::to_string(city->num_chargers()));

  Scenario::Config mirror = city->to_config();
  const std::size_t base_obstacles = mirror.obstacles.size();
  hipo::Rng rng(hipo::seed_combine(args.seed, 22));

  // The traced run keeps a DeltaSolver of its own in step with the
  // service's entry, to time DeltaSolver::apply from outside.
  std::optional<hipo::opt::DeltaSolver> twin;
  if (args.trace) {
    hipo::opt::DeltaOptions dopts;
    dopts.workers = pool.get();
    twin.emplace(mirror, dopts);
    hipo::obs::set_metrics_enabled(true);
    hipo::obs::reset_metrics();
    spans::enable(true);
  }

  // p90 needs at least ten samples beyond it, so the loop runs at least
  // kMinReplans replans even when that takes longer than --seconds.
  const std::size_t min_replans = args.tiny || args.trace ? 2 : kMinReplans;
  std::vector<double> latencies;
  Digest digest;
  double task_share = 0.0, rows_patched = 0.0, full_rebuilds = 0.0;
  // Checked after the loop: every replan's key against the mirrored city,
  // and the first and last placements against cold solves.
  struct Replan {
    Scenario::Config mirror;
    std::string key;
    std::string placement;
  };
  std::vector<Replan> replans;
  double rss_mb = 0.0;
  hipo::obs::Stopwatch wall;
  while (wall.seconds() < args.seconds || latencies.size() < min_replans) {
    const std::string line = next_op(mirror, base_obstacles, rng);
    Json req = Json::object();
    req.set("type", Json::string("delta"));
    req.set("key", Json::string(key));
    req.set("script", Json::string(line + "\n"));
    const std::string text = req.dump();
    hipo::obs::Stopwatch watch;
    std::string response;
    {
      spans::Span s("serve.handle_s.delta");
      response = service->handle(text);
    }
    latencies.push_back(watch.seconds());
    report.attempt();

    const Json resp = hipo::serve::parse_json(response);
    const Json* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      report.fail("delta_churn: error response: " + response.substr(0, 200));
      break;
    }
    key = string_field(resp, "key");
    std::string placement = string_field(resp, "placement_text");
    if (args.corrupt && latencies.size() == 1) placement[0] ^= 1;
    digest.add(placement);
    const Json* stats = resp.find("stats");
    task_share += ratio(number_field(stats, "tasks_regenerated"),
                        number_field(stats, "tasks_total"));
    rows_patched += number_field(stats, "rows_erased") +
                    number_field(stats, "rows_inserted");
    const Json* fr = stats != nullptr ? stats->find("full_rebuild") : nullptr;
    full_rebuilds += fr != nullptr && fr->is_bool() && fr->as_bool() ? 1 : 0;
    if (twin) {
      const auto ops = hipo::opt::parse_delta_script(line);
      // Keep the twin's work out of the program's counters.
      hipo::obs::set_metrics_enabled(false);
      {
        spans::Span s("opt.delta_apply_s");
        for (const auto& op : ops) twin->apply(op);
      }
      hipo::obs::set_metrics_enabled(true);
      if (placement_text(twin->result().placement) != placement) {
        report.fail("delta_churn: twin DeltaSolver placement differs");
      }
    }
    replans.push_back({mirror, key, std::move(placement)});
    if (latencies.size() == 2) rss_mb = peak_rss_mb();
  }
  const double measured = wall.seconds();
  const hipo::obs::MetricsSnapshot snap = hipo::obs::metrics_snapshot();

  hipo::core::SolveOptions opts;
  opts.pool = pool.get();
  for (std::size_t i = 0; i < replans.size(); ++i) {
    const Scenario mutated(replans[i].mirror);
    if (hipo::serve::scenario_key(mutated) != replans[i].key) {
      report.fail("delta_churn: service key differs from the mirrored city");
    }
    if (i != 0 && i + 1 != replans.size()) continue;
    report.attempt();
    if (placement_text(hipo::core::solve(mutated, opts).placement) !=
        replans[i].placement) {
      report.fail("delta_churn: replan differs from a cold solve");
    }
  }

  if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  report_end_to_end(report, setup_s, latencies, percentile(latencies, 0.9),
                    measured, rss_mb);
  report.samples("tail_ms", latencies.size(), 0.9);
  report.info("placement_digest", "\"" + digest.hex() + "\"");
  report.info("placements", std::to_string(digest.count()));
  report.info("final_devices", std::to_string(mirror.devices.size()));
  if (!args.trace) return;

  const double ops = static_cast<double>(latencies.size());
  report_traced(report, latencies, percentile(latencies, 0.9), measured);
  report_obs_layers(report, snap, ops);
  report_span_layers(report, spans::summarize());
  report.metric("opt.delta_task_share", task_share / ops);
  report.metric("opt.delta_rows_patched", rows_patched / ops);
  report.metric("opt.delta_full_rebuilds", full_rebuilds / ops);
}

}  // namespace perfbench
