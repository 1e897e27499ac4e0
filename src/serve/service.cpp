#include "src/serve/service.hpp"

#include <cctype>
#include <sstream>
#include <utility>

#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/greedy.hpp"
#include "src/serve/hash.hpp"
#include "src/util/error.hpp"

namespace hipo::serve {

namespace {

/// Log-spaced request-latency buckets, 100 µs … 30 s.
constexpr double kLatencyBounds[] = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                                     1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0};

struct ServeCounters {
  obs::Counter& requests;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& rejected;
  obs::Counter& errors;
  obs::Histogram& request_seconds;
  obs::Histogram& solve_cold_seconds;
  obs::Histogram& solve_warm_seconds;
};

ServeCounters& serve_counters() {
  static ServeCounters c{
      obs::counter("serve.requests"),
      obs::counter("serve.cache_hits"),
      obs::counter("serve.cache_misses"),
      obs::counter("serve.rejected"),
      obs::counter("serve.errors"),
      obs::histogram("serve.request_seconds", kLatencyBounds),
      obs::histogram("serve.solve_cold_seconds", kLatencyBounds),
      obs::histogram("serve.solve_warm_seconds", kLatencyBounds),
  };
  return c;
}

Json error_response(const std::string& code, const std::string& message) {
  Json resp = Json::object();
  resp.set("ok", Json::boolean(false));
  resp.set("error", Json::string(code));
  resp.set("message", Json::string(message));
  return resp;
}

/// Echo the request id (if any) into the response so pipelined clients can
/// match frames.
void echo_id(const Json& request, Json& response) {
  if (const Json* id = request.find("id")) response.set("id", *id);
}

std::string string_field(const Json& request, const char* key,
                         const char* fallback) {
  const Json* v = request.find(key);
  if (v == nullptr) return fallback;
  return v->as_string();
}

bool bool_field(const Json& request, const char* key, bool fallback) {
  const Json* v = request.find(key);
  if (v == nullptr) return fallback;
  return v->as_bool();
}

opt::ObjectiveKind parse_kind(const std::string& name) {
  if (name == "utility") return opt::ObjectiveKind::kUtility;
  if (name == "log-utility") return opt::ObjectiveKind::kLogUtility;
  throw ConfigError("\"kind\" expects \"utility\" or \"log-utility\"");
}

void validate_key(const std::string& key) {
  bool ok = key.size() == 16;
  for (const char c : key) {
    ok = ok && ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
  if (!ok) {
    throw ConfigError("\"key\" must be 16 lowercase hex characters");
  }
}

/// Placement as the wire array-of-[x, y, orientation, type] rows.
Json placement_json(const model::Placement& placement) {
  Json arr = Json::array();
  for (const auto& s : placement) {
    Json row = Json::array();
    row.push(Json::number(s.pos.x));
    row.push(Json::number(s.pos.y));
    row.push(Json::number(s.orientation));
    row.push(Json::number(static_cast<double>(s.type)));
    arr.push(row);
  }
  return arr;
}

/// The exact `hipo_solve --out` bytes, so clients can `cmp` served
/// placements against the CLI byte-for-byte.
std::string placement_text(const model::Placement& placement) {
  std::ostringstream os;
  model::write_placement(os, placement);
  return os.str();
}

model::Placement parse_placement(const Json& value) {
  model::Placement placement;
  for (const Json& row : value.as_array()) {
    const auto& cols = row.as_array();
    if (cols.size() != 4) {
      throw ConfigError(
          "\"placement\" rows must be [x, y, orientation, type]");
    }
    model::Strategy s;
    s.pos.x = cols[0].as_number();
    s.pos.y = cols[1].as_number();
    s.orientation = cols[2].as_number();
    const double type = cols[3].as_number();
    if (type < 0.0 || type != static_cast<double>(
                                  static_cast<std::size_t>(type))) {
      throw ConfigError("\"placement\" type must be a non-negative integer");
    }
    s.type = static_cast<std::size_t>(type);
    placement.push_back(s);
  }
  return placement;
}

void fill_greedy_result(const opt::GreedyResult& result, Json& resp) {
  resp.set("placement", placement_json(result.placement));
  resp.set("placement_text", Json::string(placement_text(result.placement)));
  resp.set("utility", Json::number(result.exact_utility));
  resp.set("approx_utility", Json::number(result.approx_utility));
  resp.set("chargers", Json::number(
                           static_cast<double>(result.placement.size())));
}

}  // namespace

/// Counts a compute request against max_inflight; not admitted when the
/// limit is already reached. Destructor releases the slot.
class Service::AdmissionSlot {
 public:
  AdmissionSlot(std::atomic<std::size_t>& inflight, std::size_t limit)
      : inflight_(inflight) {
    std::size_t current = inflight_.load(std::memory_order_relaxed);
    while (current < limit) {
      if (inflight_.compare_exchange_weak(current, current + 1,
                                          std::memory_order_acq_rel)) {
        admitted_ = true;
        return;
      }
    }
  }
  ~AdmissionSlot() {
    if (admitted_) inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  bool admitted() const { return admitted_; }

 private:
  std::atomic<std::size_t>& inflight_;
  bool admitted_ = false;
};

Service::Service(ServiceOptions options)
    : options_(options), cache_(options.cache_entries) {
  HIPO_REQUIRE(options_.pool != nullptr, "serve: Service requires a pool");
  if (options_.flight_entries > 0) {
    flight_ = std::make_unique<obs::log::FlightRecorder>(
        options_.flight_entries);
  }
}

std::string Service::handle(std::string_view request_text) {
  obs::Stopwatch watch;
  auto& counters = serve_counters();
  requests_.fetch_add(1, std::memory_order_relaxed);
  counters.requests.add();
  const std::uint64_t rid =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);

  Json request;
  Json response;
  RequestInfo info;
  try {
    request = parse_json(request_text);
    if (!request.is_object()) {
      throw ConfigError("request must be a JSON object");
    }
    response = dispatch(request, rid, info);
  } catch (const ConfigError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    counters.errors.add();
    response = error_response("bad_request", e.what());
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    counters.errors.add();
    response = error_response("internal", e.what());
  }
  echo_id(request, response);
  response.set("request_id", Json::string("r" + std::to_string(rid)));
  const double seconds = watch.seconds();
  counters.request_seconds.observe(seconds);
  std::string out = response.dump();

  // One canonical record per request, built from the response envelope
  // itself — after `out` is finalized, so observability can never change
  // the served bytes. The same line feeds the flight recorder (in-memory)
  // and the logger (non-blocking ring); neither does I/O here.
  if (options_.logger != nullptr || flight_ != nullptr) {
    bool ok = false;
    if (const Json* f = response.find("ok")) {
      ok = f->is_bool() && f->as_bool();
    }
    std::string error_class;
    if (const Json* f = response.find("error")) {
      if (f->is_string()) error_class = f->as_string();
    }
    obs::log::Level level = obs::log::Level::kInfo;
    if (!ok) {
      level = error_class == "overloaded" ? obs::log::Level::kWarn
                                          : obs::log::Level::kError;
    }
    obs::log::Record rec;
    rec.str("event", "request")
        .str("request_id", "r" + std::to_string(rid))
        .str("type", info.type)
        .str("admission", info.admission)
        .boolean("ok", ok)
        .num("seconds", seconds)
        .u64("bytes_in", request_text.size())
        .u64("bytes_out", out.size());
    if (!error_class.empty()) rec.str("error", error_class);
    if (const Json* f = response.find("key")) {
      if (f->is_string()) rec.str("key", f->as_string());
    }
    // "cache" is "hit"/"miss" on solve responses but a whole stats object
    // on stats responses — only the string form belongs in the record.
    if (const Json* f = response.find("cache")) {
      if (f->is_string()) rec.str("cache", f->as_string());
    }
    rec.stamp(level);
    std::string line = rec.dump();
    if (flight_ != nullptr) {
      flight_->record(options_.logger != nullptr ? line : std::move(line));
    }
    if (options_.logger != nullptr) {
      options_.logger->write_line(level, std::move(line));
    }
  }
  return out;
}

Json Service::dispatch(const Json& request, std::uint64_t rid,
                       RequestInfo& info) {
  const Json* type_field = request.find("type");
  if (type_field == nullptr) throw ConfigError("request is missing \"type\"");
  const std::string& type = type_field->as_string();
  info.type = type;
  // Correlate this thread's spans (serve.request and anything the control
  // handlers emit) with the request id; the compute lambda re-establishes
  // the track on its pool worker below.
  obs::TraceTrack track(rid);
  obs::Span span("serve.request", type);

  // Control requests bypass admission: they must work under full load.
  if (type == "stats" || type == "shutdown" || type == "metrics" ||
      type == "flight") {
    info.admission = "bypass";
    if (type == "stats") return do_stats();
    if (type == "metrics") return do_metrics();
    if (type == "flight") return do_flight();
    shutdown_.store(true, std::memory_order_release);
    Json resp = Json::object();
    resp.set("ok", Json::boolean(true));
    resp.set("type", Json::string("shutdown"));
    return resp;
  }
  if (type != "solve" && type != "eval" && type != "delta") {
    info.type = "invalid";
    throw ConfigError("unknown request type \"" + type + "\"");
  }

  AdmissionSlot slot(inflight_, options_.max_inflight);
  if (!slot.admitted()) {
    info.admission = "rejected";
    rejected_.fetch_add(1, std::memory_order_relaxed);
    serve_counters().rejected.add();
    return error_response(
        "overloaded", "admission limit of " +
                          std::to_string(options_.max_inflight) +
                          " in-flight compute requests reached; retry later");
  }
  info.admission = "admitted";

  // Batch the compute onto the shared deterministic pool. The caller
  // (a connection thread) blocks on the future; pool workers execute, and
  // nested parallel_for calls inside the pipeline help-drain safely.
  auto fut = options_.pool->submit([this, type, rid, &request]() -> Json {
    // The worker thread is a different thread — re-establish the request's
    // correlation track so solver phase spans land on its trace lane.
    obs::TraceTrack worker_track(rid);
    if (type == "solve") return do_solve(request);
    if (type == "eval") return do_eval(request);
    return do_delta(request);
  });
  return fut.get();
}

Json Service::do_solve(const Json& request) {
  auto& counters = serve_counters();
  const opt::GreedyMode mode =
      opt::parse_greedy_mode(string_field(request, "greedy", "lazy"));
  const opt::ObjectiveKind kind =
      parse_kind(string_field(request, "kind", "utility"));

  const Json* scenario_field = request.find("scenario");
  const Json* key_field = request.find("key");
  if (scenario_field == nullptr && key_field == nullptr) {
    throw ConfigError("solve needs \"scenario\" text or a cached \"key\"");
  }

  std::string key;
  std::shared_ptr<CacheEntry> entry;
  bool hit = false;

  if (scenario_field != nullptr) {
    std::istringstream is(scenario_field->as_string());
    model::Scenario scenario = model::read_scenario(is);
    key = scenario_key(scenario);
    if (key_field != nullptr && key_field->as_string() != key) {
      throw ConfigError("request \"key\" does not match the scenario's "
                        "content hash " +
                        key);
    }
    entry = cache_.find(key);
    hit = entry != nullptr;
    if (!hit) {
      // Cold path: build the warm artifacts once. The solver's own options
      // are the requested ones, so its construction result *is* this
      // request's answer.
      opt::DeltaOptions dopts;
      dopts.mode = mode;
      dopts.kind = kind;
      dopts.extract = options_.extract;
      dopts.workers = options_.pool;
      obs::Stopwatch cold;
      opt::DeltaSolver solver(scenario.to_config(), std::move(dopts));
      counters.solve_cold_seconds.observe(cold.seconds());
      solves_cold_.fetch_add(1, std::memory_order_relaxed);
      counters.cache_misses.add();
      entry = cache_.insert(key,
                            std::make_shared<CacheEntry>(std::move(solver)));

      Json resp = Json::object();
      resp.set("ok", Json::boolean(true));
      resp.set("type", Json::string("solve"));
      resp.set("key", Json::string(key));
      resp.set("cache", Json::string("miss"));
      std::shared_lock entry_lock(entry->mutex);
      resp.set("candidates",
               Json::number(static_cast<double>(
                   entry->solver.num_candidates())));
      fill_greedy_result(entry->solver.result(), resp);
      return resp;
    }
  } else {
    key = key_field->as_string();
    validate_key(key);
    entry = cache_.find(key);
    if (entry == nullptr) {
      return error_response("unknown_key",
                            "no cached scenario under key " + key +
                                " (evicted or never solved); resend the "
                                "scenario text");
    }
    hit = true;
  }

  // Warm path: extraction artifacts are ready — go straight to selection
  // over the cached CoverageMatrix (shared lock: selection builds private
  // state and never writes the matrix).
  counters.cache_hits.add();
  solves_warm_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock entry_lock(entry->mutex);
  obs::Stopwatch warm;
  const opt::GreedyResult result =
      opt::select_strategies(entry->solver.scenario(), entry->solver.matrix(),
                             mode, kind, options_.pool);
  counters.solve_warm_seconds.observe(warm.seconds());

  Json resp = Json::object();
  resp.set("ok", Json::boolean(true));
  resp.set("type", Json::string("solve"));
  resp.set("key", Json::string(key));
  resp.set("cache", Json::string("hit"));
  resp.set("candidates", Json::number(static_cast<double>(
                             entry->solver.num_candidates())));
  fill_greedy_result(result, resp);
  return resp;
}

Json Service::do_eval(const Json& request) {
  const Json* placement_field = request.find("placement");
  if (placement_field == nullptr) {
    throw ConfigError("eval needs a \"placement\" array");
  }
  const model::Placement placement = parse_placement(*placement_field);
  const bool per_device = bool_field(request, "per_device", false);
  evals_.fetch_add(1, std::memory_order_relaxed);

  const auto respond = [&](const model::Scenario& scenario,
                           const std::string& key) {
    scenario.validate_placement(placement);
    Json resp = Json::object();
    resp.set("ok", Json::boolean(true));
    resp.set("type", Json::string("eval"));
    resp.set("key", Json::string(key));
    // One exact pass; the utility and both per-device arrays fold it.
    const std::vector<double> device_powers = scenario.exact_powers(placement);
    resp.set("utility",
             Json::number(scenario.placement_utility_from(device_powers)));
    if (per_device) {
      Json powers = Json::array();
      for (const double p : device_powers) powers.push(Json::number(p));
      Json utilities = Json::array();
      for (const double u : scenario.per_device_utility_from(device_powers)) {
        utilities.push(Json::number(u));
      }
      resp.set("per_device_power", std::move(powers));
      resp.set("per_device_utility", std::move(utilities));
    }
    return resp;
  };

  if (const Json* scenario_field = request.find("scenario")) {
    // Inline eval never builds extraction artifacts — no cache traffic.
    std::istringstream is(scenario_field->as_string());
    const model::Scenario scenario = model::read_scenario(is);
    return respond(scenario, scenario_key(scenario));
  }
  const Json* key_field = request.find("key");
  if (key_field == nullptr) {
    throw ConfigError("eval needs \"scenario\" text or a cached \"key\"");
  }
  const std::string& key = key_field->as_string();
  validate_key(key);
  const std::shared_ptr<CacheEntry> entry = cache_.find(key);
  if (entry == nullptr) {
    return error_response("unknown_key",
                          "no cached scenario under key " + key);
  }
  serve_counters().cache_hits.add();
  std::shared_lock entry_lock(entry->mutex);
  return respond(entry->solver.scenario(), key);
}

Json Service::do_delta(const Json& request) {
  const Json* key_field = request.find("key");
  if (key_field == nullptr) throw ConfigError("delta needs a cached \"key\"");
  const std::string& key = key_field->as_string();
  validate_key(key);
  const Json* script_field = request.find("script");
  if (script_field == nullptr) {
    throw ConfigError("delta needs \"script\" (JSONL, the --deltas schema)");
  }
  const std::vector<opt::DeltaOp> ops =
      opt::parse_delta_script(script_field->as_string());
  if (ops.empty()) throw ConfigError("delta script contains no ops");

  const std::shared_ptr<CacheEntry> entry = cache_.find(key);
  if (entry == nullptr) {
    return error_response("unknown_key",
                          "no cached scenario under key " + key +
                              "; solve it first");
  }
  serve_counters().cache_hits.add();
  deltas_.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock entry_lock(entry->mutex);
  opt::DeltaStats total;
  std::size_t applied = 0;
  std::string error;
  for (const auto& op : ops) {
    try {
      const opt::DeltaStats s = entry->solver.apply(op);
      ++applied;
      total.tasks_regenerated += s.tasks_regenerated;
      total.tasks_total = s.tasks_total;
      total.candidates_regenerated += s.candidates_regenerated;
      total.rows_erased += s.rows_erased;
      total.rows_inserted += s.rows_inserted;
      total.rows_kept += s.rows_kept;
      total.full_rebuild = total.full_rebuild || s.full_rebuild;
    } catch (const ConfigError& e) {
      // A failed op leaves the solver unchanged, but earlier ops in this
      // script are already applied — re-key to the current scenario so the
      // cache invariant (key == content hash of the entry) holds.
      error = "delta op " + std::to_string(applied + 1) + " of " +
              std::to_string(ops.size()) + " failed: " + e.what();
      break;
    }
  }
  entry->deltas_applied += applied;
  const std::string new_key = scenario_key(entry->solver.scenario());
  cache_.rekey(key, new_key);

  if (!error.empty()) {
    Json resp = error_response("bad_request", error);
    resp.set("applied", Json::number(static_cast<double>(applied)));
    resp.set("key", Json::string(new_key));
    return resp;
  }

  Json resp = Json::object();
  resp.set("ok", Json::boolean(true));
  resp.set("type", Json::string("delta"));
  resp.set("base_key", Json::string(key));
  resp.set("key", Json::string(new_key));
  resp.set("ops", Json::number(static_cast<double>(applied)));
  Json stats = Json::object();
  stats.set("tasks_regenerated",
            Json::number(static_cast<double>(total.tasks_regenerated)));
  stats.set("tasks_total",
            Json::number(static_cast<double>(total.tasks_total)));
  stats.set("candidates_regenerated",
            Json::number(static_cast<double>(total.candidates_regenerated)));
  stats.set("rows_erased",
            Json::number(static_cast<double>(total.rows_erased)));
  stats.set("rows_inserted",
            Json::number(static_cast<double>(total.rows_inserted)));
  stats.set("rows_kept", Json::number(static_cast<double>(total.rows_kept)));
  stats.set("full_rebuild", Json::boolean(total.full_rebuild));
  resp.set("stats", std::move(stats));
  resp.set("candidates", Json::number(static_cast<double>(
                             entry->solver.num_candidates())));
  fill_greedy_result(entry->solver.result(), resp);
  return resp;
}

Json Service::do_stats() const {
  const ServiceStats s = stats();
  Json resp = Json::object();
  resp.set("ok", Json::boolean(true));
  resp.set("type", Json::string("stats"));
  resp.set("requests", Json::number(static_cast<double>(s.requests)));
  resp.set("rejected", Json::number(static_cast<double>(s.rejected)));
  resp.set("errors", Json::number(static_cast<double>(s.errors)));
  resp.set("solves_cold", Json::number(static_cast<double>(s.solves_cold)));
  resp.set("solves_warm", Json::number(static_cast<double>(s.solves_warm)));
  resp.set("evals", Json::number(static_cast<double>(s.evals)));
  resp.set("deltas", Json::number(static_cast<double>(s.deltas)));
  Json cache = Json::object();
  cache.set("hits", Json::number(static_cast<double>(s.cache.hits)));
  cache.set("misses", Json::number(static_cast<double>(s.cache.misses)));
  cache.set("evictions",
            Json::number(static_cast<double>(s.cache.evictions)));
  cache.set("entries", Json::number(static_cast<double>(s.cache.entries)));
  cache.set("capacity", Json::number(static_cast<double>(s.cache.capacity)));
  resp.set("cache", std::move(cache));
  resp.set("inflight", Json::number(static_cast<double>(
                           inflight_.load(std::memory_order_relaxed))));
  resp.set("max_inflight",
           Json::number(static_cast<double>(options_.max_inflight)));
  resp.set("pool_workers", Json::number(static_cast<double>(
                               options_.pool->num_workers())));
  Json latency = Json::object();
  latency.set("p50", Json::number(s.request_p50));
  latency.set("p90", Json::number(s.request_p90));
  latency.set("p99", Json::number(s.request_p99));
  resp.set("request_seconds", std::move(latency));
  if (options_.logger != nullptr) {
    const obs::log::LoggerStats ls = options_.logger->stats();
    Json log = Json::object();
    log.set("accepted", Json::number(static_cast<double>(ls.accepted)));
    log.set("written", Json::number(static_cast<double>(ls.written)));
    log.set("dropped_ring",
            Json::number(static_cast<double>(ls.dropped_ring)));
    log.set("dropped_rate",
            Json::number(static_cast<double>(ls.dropped_rate)));
    log.set("dropped_level",
            Json::number(static_cast<double>(ls.dropped_level)));
    resp.set("log", std::move(log));
  }
  if (flight_ != nullptr) {
    Json flight = Json::object();
    flight.set("capacity",
               Json::number(static_cast<double>(flight_->capacity())));
    flight.set("recorded",
               Json::number(static_cast<double>(flight_->recorded())));
    resp.set("flight", std::move(flight));
  }
  return resp;
}

Json Service::do_metrics() const {
  // Snapshot once; the JSON and Prometheus forms describe the same instant,
  // so a scraper never sees a counter move between the two.
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  Json resp = Json::object();
  resp.set("ok", Json::boolean(true));
  resp.set("type", Json::string("metrics"));
  resp.set("metrics_enabled", Json::boolean(obs::metrics_enabled()));
  // metrics_json emits the canonical wire dialect, so re-parsing it to
  // embed as a structured object is lossless.
  resp.set("metrics", parse_json(obs::metrics_json(snap)));
  resp.set("prometheus", Json::string(obs::prometheus_text(snap)));
  for (const auto& h : snap.histograms) {
    if (h.name != "serve.request_seconds") continue;
    Json latency = Json::object();
    latency.set("p50",
                Json::number(obs::histogram_quantile(h.bounds, h.counts,
                                                     0.50)));
    latency.set("p90",
                Json::number(obs::histogram_quantile(h.bounds, h.counts,
                                                     0.90)));
    latency.set("p99",
                Json::number(obs::histogram_quantile(h.bounds, h.counts,
                                                     0.99)));
    resp.set("request_seconds", std::move(latency));
  }
  return resp;
}

Json Service::do_flight() const {
  Json resp = Json::object();
  resp.set("ok", Json::boolean(true));
  resp.set("type", Json::string("flight"));
  Json records = Json::array();
  if (flight_ != nullptr) {
    // Record lines are canonical JSON by construction (Record::dump), so
    // they re-parse under the strict wire parser.
    for (const std::string& line : flight_->dump()) {
      records.push(parse_json(line));
    }
  }
  resp.set("records", std::move(records));
  resp.set("capacity",
           Json::number(static_cast<double>(
               flight_ != nullptr ? flight_->capacity() : 0)));
  resp.set("recorded",
           Json::number(static_cast<double>(
               flight_ != nullptr ? flight_->recorded() : 0)));
  return resp;
}

std::vector<std::string> Service::flight_records() const {
  if (flight_ == nullptr) return {};
  return flight_->dump();
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.solves_cold = solves_cold_.load(std::memory_order_relaxed);
  s.solves_warm = solves_warm_.load(std::memory_order_relaxed);
  s.evals = evals_.load(std::memory_order_relaxed);
  s.deltas = deltas_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  const auto& h = serve_counters().request_seconds;
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  s.request_p50 = obs::histogram_quantile(h.bounds(), counts, 0.50);
  s.request_p90 = obs::histogram_quantile(h.bounds(), counts, 0.90);
  s.request_p99 = obs::histogram_quantile(h.bounds(), counts, 0.99);
  return s;
}

}  // namespace hipo::serve
