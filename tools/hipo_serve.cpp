// hipo_serve — the cached, batched solver daemon, plus its loopback client.
//
// Daemon mode (default):
//   hipo_serve [--port N]            (0 = ephemeral, default)
//              [--port-file FILE]    (write the bound port, for CI/scripts;
//                                     written atomically: temp + rename)
//              [--threads N]         (solver pool workers; 0 = hardware)
//              [--cache-entries N]   (warm LRU capacity, default 8)
//              [--max-inflight N]    (admission limit, default 4)
//              [--max-connections N] (connection cap, default 64)
//              [--max-request-bytes N]
//              [--metrics-json FILE] (write metrics at shutdown)
//              [--trace FILE]        (trace-event JSON at shutdown; solver
//                                     phases grouped per request id)
//              [--log FILE]          (structured request log, JSONL)
//              [--log-level LVL]     (debug|info|warn|error, default info)
//              [--log-ring N]        (log ring slots, default 4096)
//              [--log-rate N]        (records/s budget, default 0 = off)
//              [--flight-recorder N] (last-N request records kept in
//                                     memory, default 256; 0 disables)
//
// Daemon lifecycle events (listening / draining / summary) are printed to
// stdout as structured JSONL records (and mirrored into --log when set).
// SIGUSR1 dumps the flight recorder to stderr without disturbing serving.
// Metrics are always enabled in daemon mode so `metrics` scrapes and the
// derived latency percentiles are live from the first request.
//
// Runs until SIGINT/SIGTERM or a `shutdown` request, then drains: every
// admitted request still gets its response before the process exits.
//
// Client mode (--connect): replay a JSONL request script against a running
// daemon and print one response per line to stdout.
//   hipo_serve --connect PORT --script FILE [--strict]
//
// Script lines are wire requests plus client-side keys (stripped before
// sending):
//   "scenario_file": PATH  — inline the file's text as "scenario"
//   "script_file":   PATH  — inline the file's text as "script" (deltas)
//   "save_placement": PATH — write the response's placement_text to PATH
//   "expect_error":  true  — this request is supposed to fail
// With --strict the exit status is 1 unless every response's ok matches its
// expectation (ok:true normally, ok:false under expect_error).
//
// Watch mode (--connect without --script): poll the daemon's `metrics`
// request and print a one-line ticker per interval.
//   hipo_serve --connect PORT --watch SECS [--watch-count N]
// Each line reports the QPS, cache hit rate, and p50/p99 request latency of
// the interval just ended (derived from counter/histogram deltas between
// consecutive scrapes). --watch-count 0 (default) runs until interrupted.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/hipo.hpp"

namespace {

using namespace hipo;

std::atomic<bool> g_signalled{false};
std::atomic<bool> g_dump_flight{false};

void on_signal(int) { g_signalled.store(true, std::memory_order_release); }
void on_usr1(int) { g_dump_flight.store(true, std::memory_order_release); }

std::string read_file_or_throw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file_or_throw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write " + path);
  out << text;
}

/// Write via a temp file + rename so a concurrent reader (a CI script
/// polling --port-file) sees either nothing or the complete content.
void write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  write_file_or_throw(tmp, text);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot rename " + tmp + " to " + path);
  }
}

/// Daemon lifecycle event: structured JSONL on stdout, mirrored into the
/// request log when one is configured (same line, so the two agree byte
/// for byte).
void emit_event(serve::Json rec, obs::log::Logger* logger) {
  obs::log::stamp(rec, obs::log::Level::kInfo);
  const std::string line = rec.dump();
  std::cout << line << std::endl;
  if (logger != nullptr) {
    logger->write_line(obs::log::Level::kInfo, line);
  }
}

int run_daemon(Cli& cli) {
  const int port = cli.get_or("port", 0);
  const auto port_file = cli.get("port-file");
  const int threads = cli.get_or("threads", 0);
  const int cache_entries = cli.get_or("cache-entries", 8);
  const int max_inflight = cli.get_or("max-inflight", 4);
  const int max_connections = cli.get_or("max-connections", 64);
  const int max_request_bytes =
      cli.get_or("max-request-bytes", 16 * 1024 * 1024);
  const auto metrics_path = cli.get("metrics-json");
  const auto trace_path = cli.get("trace");
  const auto log_path = cli.get("log");
  const std::string log_level = cli.get_or("log-level", std::string("info"));
  const int log_ring = cli.get_or("log-ring", 4096);
  const int log_rate = cli.get_or("log-rate", 0);
  const int flight_entries = cli.get_or("flight-recorder", 256);
  cli.finish();
  // Always on in daemon mode: live `metrics` scrapes and the derived
  // latency percentiles must work without a restart. Write-only by design —
  // served placements are byte-identical either way.
  obs::set_metrics_enabled(true);
  if (trace_path) obs::set_trace_enabled(true);
  HIPO_REQUIRE(port >= 0 && port <= 65535, "--port must be 0..65535");
  HIPO_REQUIRE(threads >= 0, "--threads must be >= 0 (0 = hardware)");
  HIPO_REQUIRE(cache_entries >= 0, "--cache-entries must be >= 0");
  HIPO_REQUIRE(max_inflight >= 1, "--max-inflight must be >= 1");
  HIPO_REQUIRE(max_connections >= 1, "--max-connections must be >= 1");
  HIPO_REQUIRE(max_request_bytes >= 64,
               "--max-request-bytes must be >= 64");
  HIPO_REQUIRE(log_ring >= 2, "--log-ring must be >= 2");
  HIPO_REQUIRE(log_rate >= 0, "--log-rate must be >= 0");
  HIPO_REQUIRE(flight_entries >= 0, "--flight-recorder must be >= 0");

  // The logger outlives the service (the service holds a raw pointer and
  // may enqueue from connection threads until the server has stopped).
  std::unique_ptr<obs::log::Logger> logger;
  if (log_path) {
    obs::log::LoggerOptions lopts;
    lopts.min_level = obs::log::parse_level(log_level);
    lopts.ring_capacity = static_cast<std::size_t>(log_ring);
    lopts.rate_limit_per_sec = static_cast<std::uint64_t>(log_rate);
    logger = std::make_unique<obs::log::Logger>(*log_path, lopts);
  }

  parallel::ThreadPool pool(static_cast<std::size_t>(threads));

  serve::ServiceOptions sopts;
  sopts.cache_entries = static_cast<std::size_t>(cache_entries);
  sopts.max_inflight = static_cast<std::size_t>(max_inflight);
  sopts.pool = &pool;
  sopts.logger = logger.get();
  sopts.flight_entries = static_cast<std::size_t>(flight_entries);
  serve::Service service(sopts);

  serve::ServerOptions ropts;
  ropts.port = static_cast<std::uint16_t>(port);
  ropts.max_connections = static_cast<std::size_t>(max_connections);
  ropts.max_frame_bytes = static_cast<std::size_t>(max_request_bytes);
  serve::Server server(service, ropts);

  if (port_file) {
    write_file_atomic(*port_file, std::to_string(server.port()) + "\n");
  }
  {
    serve::Json rec = serve::Json::object();
    rec.set("event", serve::Json::string("listening"))
        .set("address", serve::Json::string("127.0.0.1"))
        .set("port", serve::Json::number(server.port()))
        .set("workers", serve::Json::number(pool.num_workers()))
        .set("cache_entries", serve::Json::number(cache_entries))
        .set("max_inflight", serve::Json::number(max_inflight))
        .set("flight_recorder", serve::Json::number(flight_entries));
    emit_event(std::move(rec), logger.get());
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;  // no SA_RESTART: accept() must wake with EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  struct sigaction sa_usr1 {};
  sa_usr1.sa_handler = on_usr1;
  sa_usr1.sa_flags = SA_RESTART;  // a flight dump must not disturb serving
  sigaction(SIGUSR1, &sa_usr1, nullptr);

  server.start();
  while (!g_signalled.load(std::memory_order_acquire) &&
         !service.shutdown_requested()) {
    if (g_dump_flight.exchange(false, std::memory_order_acq_rel)) {
      // Post-mortem on demand: the last N request records, oldest first,
      // to stderr (stdout stays a clean stream of lifecycle events).
      const std::vector<std::string> records = service.flight_records();
      std::cerr << "hipo_serve flight recorder (" << records.size()
                << " records):\n";
      for (const std::string& line : records) std::cerr << line << "\n";
      std::cerr.flush();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  {
    serve::Json rec = serve::Json::object();
    rec.set("event", serve::Json::string("draining"))
        .set("reason", serve::Json::string(service.shutdown_requested()
                                               ? "shutdown_request"
                                               : "signal"));
    emit_event(std::move(rec), logger.get());
  }
  server.stop();

  const serve::ServiceStats stats = service.stats();
  {
    serve::Json rec = serve::Json::object();
    rec.set("event", serve::Json::string("summary"))
        .set("requests", serve::Json::number(stats.requests))
        .set("solves_cold", serve::Json::number(stats.solves_cold))
        .set("solves_warm", serve::Json::number(stats.solves_warm))
        .set("deltas", serve::Json::number(stats.deltas))
        .set("evals", serve::Json::number(stats.evals))
        .set("rejected", serve::Json::number(stats.rejected))
        .set("errors", serve::Json::number(stats.errors))
        .set("request_p50", serve::Json::number(stats.request_p50))
        .set("request_p90", serve::Json::number(stats.request_p90))
        .set("request_p99", serve::Json::number(stats.request_p99));
    emit_event(std::move(rec), logger.get());
  }
  if (metrics_path) {
    const auto snapshot = obs::metrics_snapshot();
    std::ostringstream os;
    obs::write_metrics_json(snapshot, os);
    write_file_or_throw(*metrics_path, os.str());
  }
  if (trace_path) {
    std::ostringstream os;
    obs::write_trace_json(os);
    write_file_or_throw(*trace_path, os.str());
  }
  if (logger) logger->flush();
  return 0;
}

/// Strip client-side keys, inline *_file payloads, and record expectations.
struct ClientRequest {
  std::string wire;
  std::string save_placement;
  bool expect_error = false;
};

ClientRequest prepare_request(const serve::Json& line) {
  ClientRequest out;
  serve::Json wire = serve::Json::object();
  for (const auto& [key, value] : line.as_object()) {
    if (key == "scenario_file") {
      wire.set("scenario",
               serve::Json::string(read_file_or_throw(value.as_string())));
    } else if (key == "script_file") {
      wire.set("script",
               serve::Json::string(read_file_or_throw(value.as_string())));
    } else if (key == "save_placement") {
      out.save_placement = value.as_string();
    } else if (key == "expect_error") {
      out.expect_error = value.as_bool();
    } else {
      wire.set(key, value);
    }
  }
  out.wire = wire.dump();
  return out;
}

/// One `metrics` scrape reduced to what the watch ticker differences.
struct WatchSample {
  double requests = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // serve.request_seconds buckets
};

double counter_of(const serve::Json& counters, const char* name) {
  const serve::Json* v = counters.find(name);
  return v != nullptr ? v->as_number() : 0.0;
}

WatchSample scrape(serve::Client& client) {
  serve::Json request = serve::Json::object();
  request.set("type", serve::Json::string("metrics"));
  const serve::Json resp = serve::parse_json(client.call(request.dump()));
  const serve::Json* ok = resp.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    throw ConfigError("metrics scrape failed: " + resp.dump());
  }
  const serve::Json* metrics = resp.find("metrics");
  if (metrics == nullptr) throw ConfigError("metrics response has no body");
  WatchSample s;
  if (const serve::Json* counters = metrics->find("counters")) {
    s.requests = counter_of(*counters, "serve.requests");
    s.hits = counter_of(*counters, "serve.cache_hits");
    s.misses = counter_of(*counters, "serve.cache_misses");
  }
  if (const serve::Json* hists = metrics->find("histograms")) {
    if (const serve::Json* h = hists->find("serve.request_seconds")) {
      if (const serve::Json* bounds = h->find("bounds")) {
        for (const serve::Json& b : bounds->as_array()) {
          s.bounds.push_back(b.as_number());
        }
      }
      if (const serve::Json* counts = h->find("counts")) {
        for (const serve::Json& c : counts->as_array()) {
          s.counts.push_back(static_cast<std::uint64_t>(c.as_number()));
        }
      }
    }
  }
  return s;
}

int run_watch(serve::Client& client, double interval, int count) {
  WatchSample prev = scrape(client);
  for (int tick = 0; count == 0 || tick < count; ++tick) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    const WatchSample cur = scrape(client);

    const double dreq = cur.requests - prev.requests;
    const double qps = interval > 0.0 ? dreq / interval : dreq;
    const double dhits = cur.hits - prev.hits;
    const double dmisses = cur.misses - prev.misses;
    const double hit_rate =
        dhits + dmisses > 0.0 ? 100.0 * dhits / (dhits + dmisses) : 0.0;

    // Latency of this interval: quantiles over the histogram delta.
    double p50 = 0.0, p99 = 0.0;
    if (!cur.bounds.empty() && cur.counts.size() == cur.bounds.size() + 1 &&
        prev.counts.size() == cur.counts.size()) {
      std::vector<std::uint64_t> delta(cur.counts.size(), 0);
      for (std::size_t i = 0; i < delta.size(); ++i) {
        delta[i] = cur.counts[i] >= prev.counts[i]
                       ? cur.counts[i] - prev.counts[i]
                       : 0;
      }
      p50 = obs::histogram_quantile(cur.bounds, delta, 0.50);
      p99 = obs::histogram_quantile(cur.bounds, delta, 0.99);
    } else if (!cur.bounds.empty() &&
               cur.counts.size() == cur.bounds.size() + 1) {
      // First interval against a daemon restarted mid-watch: absolute.
      p50 = obs::histogram_quantile(cur.bounds, cur.counts, 0.50);
      p99 = obs::histogram_quantile(cur.bounds, cur.counts, 0.99);
    }

    std::cout << "qps " << format_double(qps, 1) << "  hit_rate "
              << format_double(hit_rate, 1) << "%  p50 "
              << format_double(p50 * 1e3, 3) << "ms  p99 "
              << format_double(p99 * 1e3, 3) << "ms" << std::endl;
    prev = cur;
  }
  return 0;
}

int run_client(Cli& cli) {
  const int port = cli.get_or("connect", 0);
  const auto script_path = cli.get("script");
  const bool strict = cli.has("strict");
  const auto watch = cli.get("watch");
  const double watch_interval = cli.get_or("watch", 1.0);
  const int watch_count = cli.get_or("watch-count", 0);
  cli.finish();
  HIPO_REQUIRE(port > 0 && port <= 65535,
               "--connect expects the daemon's port");
  HIPO_REQUIRE(script_path.has_value() || watch.has_value(),
               "client mode needs --script FILE (JSONL requests) or "
               "--watch SECS (metrics ticker)");
  HIPO_REQUIRE(!(script_path.has_value() && watch.has_value()),
               "--script and --watch are mutually exclusive");

  serve::Client client(static_cast<std::uint16_t>(port));
  if (watch.has_value()) {
    HIPO_REQUIRE(watch_interval >= 0.0, "--watch must be >= 0 seconds");
    HIPO_REQUIRE(watch_count >= 0, "--watch-count must be >= 0");
    return run_watch(client, watch_interval, watch_count);
  }

  std::istringstream lines(read_file_or_throw(*script_path));
  std::string line;
  std::size_t line_no = 0;
  bool all_as_expected = true;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ClientRequest req;
    try {
      req = prepare_request(serve::parse_json(line));
    } catch (const ConfigError& e) {
      throw ConfigError(*script_path + " line " + std::to_string(line_no) +
                        ": " + e.what());
    }
    const std::string response_text = client.call(req.wire);
    std::cout << response_text << "\n";

    const serve::Json response = serve::parse_json(response_text);
    const serve::Json* ok = response.find("ok");
    const bool succeeded = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (succeeded == req.expect_error) all_as_expected = false;
    if (!req.save_placement.empty()) {
      const serve::Json* text = response.find("placement_text");
      if (text == nullptr) {
        throw ConfigError("line " + std::to_string(line_no) +
                          ": response has no placement_text to save");
      }
      write_file_or_throw(req.save_placement, text->as_string());
    }
  }
  if (strict && !all_as_expected) {
    std::cerr << "hipo_serve client: some responses did not match their "
                 "expectations"
              << std::endl;
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    if (cli.get("connect").has_value()) return run_client(cli);
    return run_daemon(cli);
  } catch (const std::exception& e) {
    std::cerr << "hipo_serve: " << e.what() << std::endl;
    return 1;
  }
}
