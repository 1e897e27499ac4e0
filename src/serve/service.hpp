// Request execution engine of hipo::serve — socket-free, so tests and the
// bench drive it directly; the socket daemon (server.hpp) is a thin framing
// loop around Service::handle.
//
// Request / response schema: docs/FORMATS.md, "Serve wire protocol".
// Seven request types:
//   solve    — by inline scenario text or cached key; cache-miss builds the
//              warm entry (cold pipeline), cache-hit runs the warm
//              select_strategies over the entry's CoverageMatrix. Placement
//              bytes are identical to `hipo_solve` on the same scenario.
//   eval     — utility (+ per-device arrays) of a caller-given placement.
//   delta    — a JSONL delta script (the --deltas schema) applied through
//              opt::DeltaSolver against the cached entry; the entry is
//              re-keyed under the mutated scenario's content hash.
//   stats    — cache/admission/latency counters.
//   metrics  — live point-in-time metrics snapshot (JSON + Prometheus text
//              forms) with derived request-latency percentiles; never
//              pauses serving.
//   flight   — the flight recorder's retained request records (last N).
//   shutdown — flags the daemon to stop accepting and drain.
//
// Admission: solve/eval/delta are compute requests; at most
// `max_inflight` run (queued included) at once — beyond that the request is
// rejected with an explicit `overloaded` error instead of buffering without
// bound. Compute runs as a task on the shared deterministic thread pool;
// the pipeline's chunked reductions make every response bit-identical to a
// single-shot solve regardless of what else is in flight.
//
// Observability (all optional, all write-only — response bytes other than
// the `request_id` envelope field are identical with it on or off):
//   * Every request gets a monotonically derived id ("r1", "r2", ...),
//     echoed as `request_id` in the response envelope and used as the trace
//     correlation track, so `--trace` groups a request's solver phases.
//   * With `options.logger` set, one canonical JSONL record per request
//     (schema: docs/FORMATS.md, "Request log JSONL") is enqueued on the
//     logger's non-blocking ring.
//   * With `options.flight_entries` > 0, the same record lands in an
//     in-memory flight recorder, served by the `flight` request and dumped
//     by the daemon on SIGUSR1.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/log.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/wire.hpp"

namespace hipo::serve {

/// {"error":code,"message":message,"ok":false} — the body of every error
/// response, whether the Service or the Server's connection loop answers.
Json error_response(const std::string& code, const std::string& message);

struct ServiceOptions {
  /// Warm entries kept (LRU beyond this); 0 disables caching (always cold).
  std::size_t cache_entries = 8;
  /// Compute requests admitted concurrently (running + queued on the pool);
  /// further ones get an `overloaded` error. 0 rejects all compute — the
  /// drain-only configuration.
  std::size_t max_inflight = 4;
  /// Shared deterministic pool; required (the daemon owns one).
  parallel::ThreadPool* pool = nullptr;
  /// Extraction options are daemon-wide: they shape the cached artifacts,
  /// so they are part of the server configuration, not the request.
  pdcs::ExtractOptions extract;
  /// Structured request log (optional; must outlive the service). Records
  /// are enqueued non-blocking — a full ring drops, never stalls a request.
  obs::log::Logger* logger = nullptr;
  /// Flight recorder slots (last N request records kept in memory);
  /// 0 disables the recorder.
  std::size_t flight_entries = 0;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t solves_cold = 0;
  std::uint64_t solves_warm = 0;
  std::uint64_t evals = 0;
  std::uint64_t deltas = 0;
  CacheStats cache;
  /// Derived request-latency percentiles (bucket-interpolated estimates
  /// from the serve.request_seconds histogram; 0 when metrics are disabled
  /// or no request has completed).
  double request_p50 = 0.0;
  double request_p90 = 0.0;
  double request_p99 = 0.0;
};

class Service {
 public:
  explicit Service(ServiceOptions options);

  /// Execute one request (a JSON document) and return the response JSON.
  /// Never throws: every failure becomes an `{"ok":false,...}` response.
  std::string handle(std::string_view request_text);

  ServiceStats stats() const;
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// The flight recorder's retained record lines, oldest first (empty when
  /// flight_entries was 0). Safe to call while serving — the daemon's
  /// SIGUSR1 dump path.
  std::vector<std::string> flight_records() const;

 private:
  /// Per-request bookkeeping threaded through dispatch for the log record.
  struct RequestInfo {
    std::string type = "invalid";  // parsed request type, or "invalid"
    /// "bypass" (control request), "admitted", "rejected", or "none"
    /// (failed before admission).
    std::string admission = "none";
  };

  Json dispatch(const Json& request, std::uint64_t rid, RequestInfo& info);
  Json do_solve(const Json& request);
  Json do_eval(const Json& request);
  Json do_delta(const Json& request);
  Json do_stats() const;
  Json do_metrics() const;
  Json do_flight() const;

  /// RAII admission slot; admitted() false means overloaded.
  class AdmissionSlot;

  ServiceOptions options_;
  ScenarioCache cache_;
  std::unique_ptr<obs::log::FlightRecorder> flight_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> solves_cold_{0};
  std::atomic<std::uint64_t> solves_warm_{0};
  std::atomic<std::uint64_t> evals_{0};
  std::atomic<std::uint64_t> deltas_{0};
};

}  // namespace hipo::serve
