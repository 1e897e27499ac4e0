#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/model/io.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/json.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

std::string quoted(std::string_view s) {
  return "\"" + hipo::obs::json_escape(s) + "\"";
}

/// Sum of an obs counter in a snapshot (0 when never registered).
std::uint64_t counter_value(const hipo::obs::MetricsSnapshot& snap,
                            std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

hipo::model::Scenario make_city(int scale, bool dense, std::uint64_t seed) {
  hipo::model::GenOptions opt;
  opt.region_scale = scale;
  opt.device_multiplier = 4 * scale * scale;
  opt.charger_multiplier = dense ? 3 * scale * scale : 3;
  hipo::Rng rng(hipo::seed_combine(seed, static_cast<std::uint64_t>(scale),
                                   dense ? 1 : 0));
  return hipo::model::make_paper_scenario(opt, rng);
}

std::string scenario_text(const hipo::model::Scenario& scenario) {
  std::ostringstream os;
  hipo::model::write_scenario(os, scenario);
  return os.str();
}

std::string placement_text(const hipo::model::Placement& placement) {
  std::ostringstream os;
  hipo::model::write_placement(os, placement);
  return os.str();
}

void Digest::add(std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  ++count_;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, rank);
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "perfbench: FAILED: " << why << "\n";
}

void Report::metric(const std::string& name, double value) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = value;
      return;
    }
  }
  metrics_.push_back({name, value});
}

double Report::value(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return m.second;
  }
  return 0.0;
}

void Report::info(const std::string& key, const std::string& json) {
  info_.push_back({key, json});
}

void Report::samples(const std::string& metric, std::size_t n, double q) {
  std::ostringstream os;
  os << "{\"n\":" << n << ",\"q\":" << hipo::obs::json_double(q)
     << ",\"beyond\":" << samples_beyond(n, q) << "}";
  info("samples." + metric, os.str());
}

void Report::print(
    const Args& args,
    const std::vector<std::pair<std::string, std::string>>& names) const {
  std::ostringstream prov;
  prov << "{\"workload\":" << quoted(args.workload)
       << ",\"seed\":" << args.seed
       << ",\"seconds\":" << hipo::obs::json_double(args.seconds)
       << ",\"trace\":" << (args.trace ? 1 : 0)
       << ",\"nproc\":" << cpu_count()
       << ",\"build\":" << hipo::obs::build_info_json();
  for (const auto& [key, json] : info_) {
    prov << "," << quoted(key) << ":" << json;
  }
  prov << "}";
  std::cout << prov.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    out << (first ? "" : ",") << quoted(name)
        << ":{\"value\":" << hipo::obs::json_double(value(name))
        << ",\"unit\":" << quoted(unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double timed_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    hipo::obs::Stopwatch watch;
    setup();
    seconds.push_back(watch.seconds());
  }
  return median(seconds);
}

double peak_rss_mb() {
  return static_cast<double>(hipo::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& latencies, double tail_s,
                       double wall, double rss_mb) {
  report.metric("setup_s", setup_s);
  report.metric("p50_ms", median(latencies) * 1e3);
  report.metric("tail_ms", tail_s * 1e3);
  report.metric("ops_per_s",
                ratio(static_cast<double>(latencies.size()), wall));
  report.metric("peak_rss_mb", rss_mb);
  report.samples("p50_ms", latencies.size(), 0.5);
}

double slowest_input_median(const std::vector<double>& latencies,
                            std::size_t inputs) {
  double slowest = 0.0;
  for (std::size_t k = 0; k < inputs; ++k) {
    std::vector<double> own;
    for (std::size_t i = k; i < latencies.size(); i += inputs) {
      own.push_back(latencies[i]);
    }
    slowest = std::max(slowest, median(own));
  }
  return slowest;
}

void report_traced(Report& report, const std::vector<double>& latencies,
                   double tail_s, double wall) {
  report.metric("trace.p50_ms", median(latencies) * 1e3);
  report.metric("trace.tail_ms", tail_s * 1e3);
  report.metric("trace.ops_per_s",
                ratio(static_cast<double>(latencies.size()), wall));
}

void report_span_layers(Report& report,
                        const std::map<std::string, spans::Summary>& spans) {
  for (const auto& [name, s] : spans) {
    report.metric(name, ratio(s.total_s, static_cast<double>(s.count)));
  }
}

void report_obs_layers(Report& report, const hipo::obs::MetricsSnapshot& snap,
                       double ops) {
  const auto c = [&](std::string_view name) {
    return static_cast<double>(counter_value(snap, name));
  };
  report.metric("model.los_hit_ratio",
                ratio(c("los_cache.hits"),
                      c("los_cache.hits") + c("los_cache.misses")));
  report.metric("spatial.segment_queries",
                ratio(c("segment_index.segment_queries"), ops));
  report.metric("spatial.segment_early_out_ratio",
                ratio(c("segment_index.segment_early_outs"),
                      c("segment_index.segment_queries")));
  report.metric("opt.lazy_pops", ratio(c("greedy.lazy_pops"), ops));
  report.metric("opt.reeval_ratio",
                ratio(c("greedy.lazy_reevals"), c("greedy.lazy_pops")));
  report.metric("opt.rows_scanned", ratio(c("coverage.rows_scanned"), ops));
  report.metric("parallel.tasks", ratio(c("pool.tasks"), ops));
  report.metric("parallel.help_steals", ratio(c("pool.help_steals"), ops));
  report.metric("parallel.idle_waits", ratio(c("pool.idle_waits"), ops));
}

double histogram_sum(const hipo::obs::MetricsSnapshot& snap,
                     std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0.0;
}

std::string string_field(const hipo::serve::Json& response, const char* key) {
  const hipo::serve::Json* f = response.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : std::string();
}

double ratio(double x, double y) { return y != 0.0 ? x / y : 0.0; }

}  // namespace perfbench
