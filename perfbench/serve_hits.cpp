// serve_hits: two closed-loop callers against one serve::Service whose
// cache holds four cities (360 and 1k devices × sparse and dense budget).
// The seeded request mix is ~60% solve by key, ~20% solve with the inline
// scenario text (adds a parse and a hash before the hit) and ~20% eval of a
// perturbed cached placement, half with per_device arrays. Wire, model.io,
// hash, cache, greedy and exact evaluation do the work; pdcs does none.
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "spans.hpp"
#include "src/model/io.hpp"
#include "src/model/los_cache.hpp"
#include "src/obs/json.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/serve/hash.hpp"
#include "src/serve/service.hpp"
#include "src/serve/wire.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using hipo::model::Placement;
using hipo::model::Scenario;
using hipo::serve::Json;

constexpr std::size_t kCallers = 2;
constexpr std::size_t kEvalsPerCity = 8;

enum class Kind { kKey, kInline, kEval };

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::kKey: return "serve.handle_s.solve_key";
    case Kind::kInline: return "serve.handle_s.solve_inline";
    case Kind::kEval: return "serve.handle_s.eval";
  }
  return "";
}

struct Request {
  Kind kind = Kind::kKey;
  std::size_t city = 0;
  Placement placement;  // eval: the perturbed placement
  bool per_device = false;
  std::string text;
  std::string expected;  // verified response, request_id removed
};

/// The response without its per-request `request_id` member, which is the
/// only field that differs between two identical requests.
std::string without_request_id(std::string response) {
  const std::size_t pos = response.find("\"request_id\":\"");
  if (pos == std::string::npos) return response;
  std::size_t end = response.find('"', pos + 14);
  if (end == std::string::npos) return response;
  ++end;
  if (end < response.size() && response[end] == ',') ++end;
  response.erase(pos, end - pos);
  return response;
}

bool ok_response(const Json& resp) {
  const Json* ok = resp.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

Json placement_json(const Placement& placement) {
  Json arr = Json::array();
  for (const auto& s : placement) {
    Json row = Json::array();
    row.push(Json::number(s.pos.x));
    row.push(Json::number(s.pos.y));
    row.push(Json::number(s.orientation));
    row.push(Json::number(static_cast<double>(s.type)));
    arr.push(std::move(row));
  }
  return arr;
}

/// A cached placement with a few strategies turned: orientation changes
/// keep every position feasible, so the eval never fails validation.
Placement perturbed(Placement placement, hipo::Rng& rng) {
  for (auto& s : placement) {
    if (rng.uniform() < 0.25) {
      s.orientation = std::fmod(s.orientation + rng.uniform(0.05, 0.5),
                                6.283185307179586);
    }
  }
  return placement;
}

bool same_numbers(const Json* arr, const std::vector<double>& expect) {
  if (arr == nullptr || !arr->is_array()) return false;
  const auto& a = arr->as_array();
  if (a.size() != expect.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].is_number() || a[i].as_number() != expect[i]) return false;
  }
  return true;
}

/// Full check of a request's first response against the benchmark's own
/// references: the cold solve's placement for solves, an exact evaluation
/// on the benchmark's copy of the city for evals.
std::string verify_first(const Request& req, const std::string& response,
                         const std::vector<Scenario>& cities,
                         const std::vector<std::string>& cold_placements,
                         const std::vector<std::string>& keys) {
  const Json resp = hipo::serve::parse_json(response);
  if (!ok_response(resp)) return "error response: " + response.substr(0, 200);
  if (string_field(resp, "key") != keys[req.city]) return "wrong key";
  if (req.kind != Kind::kEval) {
    if (string_field(resp, "cache") != "hit") return "solve missed the cache";
    if (string_field(resp, "placement_text") != cold_placements[req.city]) {
      return "hit placement differs from the cold solve";
    }
    return "";
  }
  const Scenario& city = cities[req.city];
  const Json* u = resp.find("utility");
  if (u == nullptr || !u->is_number() ||
      u->as_number() != city.placement_utility(req.placement)) {
    return "eval utility differs from exact evaluation";
  }
  if (req.per_device &&
      (!same_numbers(resp.find("per_device_power"),
                     city.per_device_power(req.placement)) ||
       !same_numbers(resp.find("per_device_utility"),
                     city.per_device_utility(req.placement)))) {
    return "eval per-device arrays differ from exact evaluation";
  }
  return "";
}

struct Sample {
  std::size_t request = 0;
  double seconds = 0.0;
  std::size_t response_bytes = 0;
};

}  // namespace

void run_serve_hits(const Args& args, Report& report) {
  const int small = args.tiny ? 1 : 3;
  const int large = args.tiny ? 1 : 5;
  // One CPU stays free: every request hands off caller -> pool worker ->
  // caller, and with all CPUs busy each handoff waits out any host
  // preemption of a vCPU, which made this workload's latency swing ~2x
  // from one run to the next.
  const std::size_t workers =
      cpu_count() > kCallers + 1 ? cpu_count() - kCallers - 1 : 1;
  // City order: (360, sparse), (360, dense), (1k, sparse), (1k, dense).
  const int scales[] = {small, small, large, large};

  std::vector<Scenario> cities;
  std::vector<std::string> texts, keys, cold_placements;
  std::unique_ptr<hipo::parallel::ThreadPool> pool;
  std::unique_ptr<hipo::serve::Service> service;
  std::string setup_error;
  const double setup_s = timed_setup(args.tiny ? 1 : 2, [&] {
    service.reset();
    pool.reset();
    cities.clear();
    texts.clear();
    keys.clear();
    cold_placements.clear();
    for (std::size_t c = 0; c < 4; ++c) {
      cities.push_back(make_city(scales[c], c % 2 == 1,
                                 hipo::seed_combine(args.seed, 7, c)));
      texts.push_back(scenario_text(cities.back()));
    }
    pool = std::make_unique<hipo::parallel::ThreadPool>(workers);
    hipo::serve::ServiceOptions opts;
    opts.pool = pool.get();
    opts.cache_entries = 8;
    opts.max_inflight = kCallers + 2;
    service = std::make_unique<hipo::serve::Service>(opts);
    for (std::size_t c = 0; c < 4; ++c) {
      Json req = Json::object();
      req.set("type", Json::string("solve"));
      req.set("scenario", Json::string(texts[c]));
      const Json resp = hipo::serve::parse_json(service->handle(req.dump()));
      if (!ok_response(resp) || string_field(resp, "cache") != "miss") {
        setup_error = "serve_hits: cache population failed";
      }
      keys.push_back(string_field(resp, "key"));
      cold_placements.push_back(string_field(resp, "placement_text"));
    }
  });
  report.info("pool_workers", std::to_string(workers));
  report.info("callers", std::to_string(kCallers));
  if (!setup_error.empty()) report.fail(setup_error);

  // The request catalog; each entry is sent once untimed and fully checked,
  // and its response bytes become the expectation for the timed loop.
  std::vector<Request> catalog;
  hipo::Rng perturb(hipo::seed_combine(args.seed, 11));
  for (std::size_t c = 0; c < 4; ++c) {
    std::istringstream is(cold_placements[c]);
    const Placement cold = hipo::model::read_placement(is);
    Request key;
    key.city = c;
    Json kreq = Json::object();
    kreq.set("type", Json::string("solve"));
    kreq.set("key", Json::string(keys[c]));
    key.text = kreq.dump();
    catalog.push_back(std::move(key));
    Request inl;
    inl.kind = Kind::kInline;
    inl.city = c;
    Json ireq = Json::object();
    ireq.set("type", Json::string("solve"));
    ireq.set("scenario", Json::string(texts[c]));
    inl.text = ireq.dump();
    catalog.push_back(std::move(inl));
    for (std::size_t e = 0; e < kEvalsPerCity; ++e) {
      Request ev;
      ev.kind = Kind::kEval;
      ev.city = c;
      ev.placement = perturbed(cold, perturb);
      ev.per_device = e % 2 == 1;
      Json ereq = Json::object();
      ereq.set("type", Json::string("eval"));
      ereq.set("key", Json::string(keys[c]));
      ereq.set("placement", placement_json(ev.placement));
      ereq.set("per_device", Json::boolean(ev.per_device));
      ev.text = ereq.dump();
      catalog.push_back(std::move(ev));
    }
  }
  for (Request& req : catalog) {
    const std::string response = service->handle(req.text);
    report.attempt();
    const std::string why =
        verify_first(req, response, cities, cold_placements, keys);
    if (!why.empty()) report.fail("serve_hits: " + why);
    req.expected = without_request_id(response);
  }

  const double rss_mb = peak_rss_mb();
  if (args.trace) {
    hipo::obs::set_metrics_enabled(true);
    hipo::obs::reset_metrics();
    spans::enable(true);
  }
  const hipo::serve::ServiceStats before = service->stats();

  // Per-kind request indices in the catalog, for the seeded mix.
  std::vector<std::size_t> by_kind[3];
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    by_kind[static_cast<int>(catalog[i].kind)].push_back(i);
  }
  const double loop_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t min_requests = args.tiny || args.trace ? 2 : 1000;
  std::vector<std::vector<Sample>> samples(kCallers);
  std::vector<std::vector<std::string>> failures(kCallers);
  std::vector<Digest> digests(kCallers);
  hipo::obs::Stopwatch wall;
  {
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        hipo::Rng rng(hipo::seed_combine(args.seed, 100 + t));
        // p99 needs at least ten samples beyond it.
        while (wall.seconds() < loop_s ||
               samples[t].size() < min_requests / kCallers) {
          const double u = rng.uniform();
          const Kind kind =
              u < 0.6 ? Kind::kKey : (u < 0.8 ? Kind::kInline : Kind::kEval);
          const auto& pick = by_kind[static_cast<int>(kind)];
          const std::size_t idx = pick[rng() % pick.size()];
          const Request& req = catalog[idx];
          hipo::obs::Stopwatch watch;
          std::string response;
          {
            spans::Span s(span_name(kind));
            response = service->handle(req.text);
          }
          const double seconds = watch.seconds();
          if (args.corrupt && t == 0 && samples[t].empty()) {
            response[response.size() / 2] ^= 1;
          }
          const std::string got = without_request_id(response);
          digests[t].add(got);
          if (got != req.expected) {
            failures[t].push_back("response differs from the verified one (" +
                                  std::string(span_name(kind)) + ")");
          }
          samples[t].push_back({idx, seconds, response.size()});
        }
      });
    }
    for (auto& c : callers) c.join();
  }
  const double measured = wall.seconds();
  const hipo::obs::MetricsSnapshot snap = hipo::obs::metrics_snapshot();
  const hipo::serve::ServiceStats after = service->stats();

  std::vector<double> latencies;
  std::vector<Sample> all;
  for (std::size_t t = 0; t < kCallers; ++t) {
    for (const Sample& s : samples[t]) {
      latencies.push_back(s.seconds);
      all.push_back(s);
    }
    for (const std::string& f : failures[t]) report.fail("serve_hits: " + f);
    report.info("placement_digest." + std::to_string(t),
                "\"" + digests[t].hex() + "\"");
  }
  report.attempt(all.size());
  report_end_to_end(report, setup_s, latencies, percentile(latencies, 0.99),
                    measured, rss_mb);
  report.samples("tail_ms", latencies.size(), 0.99);

  // Median latency per request class (kind × city), for the budget and
  // key-vs-inline splits.
  std::ostringstream classes;
  classes << "{";
  const char* kind_names[] = {"key", "inline", "eval"};
  for (int k = 0; k < 3; ++k) {
    for (std::size_t c = 0; c < 4; ++c) {
      std::vector<double> v;
      for (const Sample& s : all) {
        if (static_cast<int>(catalog[s.request].kind) == k &&
            catalog[s.request].city == c) {
          v.push_back(s.seconds);
        }
      }
      classes << (k + c == 0 ? "" : ",") << "\"" << kind_names[k] << "/"
              << cities[c].num_devices() << "/"
              << (c % 2 == 1 ? "dense" : "sparse")
              << "\":{\"n\":" << v.size() << ",\"p50_ms\":"
              << hipo::obs::json_double(median(v) * 1e3) << "}";
    }
  }
  classes << "}";
  report.info("classes", classes.str());
  if (!args.trace) return;

  const double ops = static_cast<double>(all.size());
  const std::uint64_t hits = after.cache.hits - before.cache.hits;
  const std::uint64_t misses = after.cache.misses - before.cache.misses;
  report.metric("serve.cache_hit_ratio",
                ratio(static_cast<double>(hits),
                      static_cast<double>(hits + misses)));
  double req_bytes = 0.0, resp_bytes = 0.0;
  for (const Sample& s : all) {
    req_bytes += static_cast<double>(catalog[s.request].text.size());
    resp_bytes += static_cast<double>(s.response_bytes);
  }
  report.metric("serve.request_bytes", req_bytes / ops);
  report.metric("serve.response_bytes", resp_bytes / ops);
  report_traced(report, latencies, percentile(latencies, 0.99), measured);
  report_obs_layers(report, snap, ops);
  const double warm_select_s =
      ratio(histogram_sum(snap, "serve.solve_warm_seconds"),
            static_cast<double>(after.solves_warm - before.solves_warm));

  // Replay the program's per-request steps through their public functions,
  // in the order the timed loop sent the requests.
  hipo::obs::Stopwatch replay_wall;
  for (std::size_t i = 0; i < all.size() && replay_wall.seconds() < loop_s;
       ++i) {
    const Request& req = catalog[all[i].request];
    {
      spans::Span s("serve.parse_s");
      (void)hipo::serve::parse_json(req.text);
    }
    {
      const Json resp = hipo::serve::parse_json(req.expected);
      spans::Span s("serve.dump_s");
      (void)resp.dump();
    }
    const Scenario& city = cities[req.city];
    if (req.kind == Kind::kInline) {
      std::istringstream is(texts[req.city]);
      std::optional<Scenario> read;
      {
        spans::Span s("model.read_scenario_s");
        read.emplace(hipo::model::read_scenario(is));
      }
      {
        spans::Span s("serve.hash_s");
        (void)hipo::serve::scenario_key(*read);
      }
      spans::Span s("model.scenario_build_s");
      const Scenario rebuilt(read->to_config());
    }
    if (req.kind == Kind::kEval) {
      spans::Span s("model.placement_utility_s");
      (void)city.placement_utility(req.placement);
      if (req.per_device) {
        (void)city.per_device_power(req.placement);
        (void)city.per_device_utility(req.placement);
      }
    } else {
      std::istringstream is(cold_placements[req.city]);
      const Placement placement = hipo::model::read_placement(is);
      // In the service the evaluation follows the greedy on the same city,
      // with its data already in cache; one untimed pass gives the same.
      (void)hipo::model::LosCache(city).placement_utility(placement,
                                                          pool.get());
      spans::Span s("model.exact_eval_s");
      hipo::model::LosCache cache(city);
      (void)cache.placement_utility(placement, pool.get());
    }
  }
  report_span_layers(report, spans::summarize());
  report.metric("opt.select_s", warm_select_s);
  report.metric("opt.greedy_s",
                warm_select_s - report.value("model.exact_eval_s"));
}

}  // namespace perfbench
