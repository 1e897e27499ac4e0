// Shared plumbing of hipo_perfbench: arguments, seeded scenario
// generation, sample statistics, placement digests and the result report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "src/model/scenario.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/wire.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small scenarios and short phases; used by the benchmark's own test.
  bool tiny = false;
  /// Corrupt one produced placement before its check (self-test of the
  /// checks: the run must report it as failed).
  bool corrupt = false;
  /// Where the traced run writes its span file.
  std::string trace_dir = ".bench_build/traces";
};

/// Online CPUs this process may run on. Pool workers plus calling threads
/// are sized so they never exceed it.
std::size_t cpu_count();

/// `model::make_paper_scenario` at constant density: region edge multiplier
/// `scale` s gives a (40·s m)² city with 40·s² devices and 2·s² obstacles
/// (s = 5: the 1k-device, 50-obstacle tier; --tiny runs use s = 1). Sparse
/// budget is the paper default of 18 chargers; dense scales
/// charger_multiplier with s².
hipo::model::Scenario make_city(int scale, bool dense, std::uint64_t seed);

std::string scenario_text(const hipo::model::Scenario& scenario);
std::string placement_text(const hipo::model::Placement& placement);

/// FNV-1a running digest over every placement a run produced, so two
/// commits can be compared byte-for-byte without storing placements.
class Digest {
 public:
  void add(std::string_view bytes);
  std::string hex() const;
  std::size_t count() const { return count_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::size_t count_ = 0;
};

/// Nearest-rank percentile of `samples` (q in (0, 1]).
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
/// Samples strictly above the nearest-rank q-percentile position.
std::size_t samples_beyond(std::size_t n, double q);

/// Run-wide result: counts, metrics in print order, and provenance lines.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);

  void metric(const std::string& name, double value);
  /// Value of a metric set earlier, or 0.
  double value(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }
  /// One provenance field, `json` already encoded.
  void info(const std::string& key, const std::string& json);
  /// A percentile's sample count, printed next to the metrics.
  void samples(const std::string& metric, std::size_t n, double q);

  /// Provenance line, then the result object as the last stdout line with
  /// exactly the metrics `names` (name, unit) in that order; a metric the
  /// workload never set (a layer it does not load) prints as 0.
  void print(const Args& args,
             const std::vector<std::pair<std::string, std::string>>& names)
      const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Run `setup` `reps` times (the last result is kept by the caller's
/// closure) and return the median wall seconds.
double timed_setup(int reps, const std::function<void()>& setup);

/// Peak resident set size so far, in MB.
double peak_rss_mb();

/// The end-to-end metrics every workload prints: `latencies` are the
/// workload's timed operations in seconds, `tail_s` its tail latency,
/// `wall` the measured seconds, `rss_mb` the peak RSS once every distinct
/// input has been through the program once (a fixed amount of work, so the
/// figure does not grow with the number of operations a run fits in).
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& latencies, double tail_s,
                       double wall, double rss_mb);

/// Tail of a workload that cycles a few inputs: the slowest input's median
/// latency (too few samples per run for a high percentile).
double slowest_input_median(const std::vector<double>& latencies,
                            std::size_t inputs);

/// The traced run's own end-to-end numbers (trace.*), to set against the
/// untraced run of the same seed for the tracing overhead.
void report_traced(Report& report, const std::vector<double>& latencies,
                   double tail_s, double wall);

/// Each span name is a per-layer metric name: mean seconds per span.
void report_span_layers(Report& report,
                        const std::map<std::string, spans::Summary>& spans);

/// Per-layer counts (per timed operation) and ratios from the program's
/// own obs counters.
void report_obs_layers(Report& report, const hipo::obs::MetricsSnapshot& snap,
                       double ops);

/// Sum of an obs histogram's samples in a snapshot.
double histogram_sum(const hipo::obs::MetricsSnapshot& snap,
                     std::string_view name);

/// A response's string member, or "" when absent or not a string.
std::string string_field(const hipo::serve::Json& response, const char* key);

/// x / y, or 0 when y is 0.
double ratio(double x, double y);

void run_cold_city(const Args& args, Report& report);
void run_serve_hits(const Args& args, Report& report);
void run_delta_churn(const Args& args, Report& report);

}  // namespace perfbench
