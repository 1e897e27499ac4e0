// hipo_perfbench: runs one seeded workload through the program's public
// entry points and prints one JSON result line (see BENCHMARK.json).
//
//   hipo_perfbench --workload cold_city|serve_hits|delta_churn
//                  --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]
//                  [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// the layer calls, enables the program's obs counters and prints the
// per-layer metrics, writing every span to DIR/<workload>-<seed>.json.
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace {

using Names = std::vector<std::pair<std::string, std::string>>;

const Names kEndToEnd = {
    {"setup_s", "s"},   {"p50_ms", "ms"},      {"tail_ms", "ms"},
    {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

// Seconds are mean seconds per call of that layer; counts are per timed
// operation of the workload.
const Names kPerLayer = {
    {"model.read_scenario_s", "s"},
    {"model.scenario_build_s", "s"},
    {"model.placement_utility_s", "s"},
    {"model.exact_eval_s", "s"},
    {"model.los_hit_ratio", "ratio"},
    {"spatial.grid_build_s", "s"},
    {"spatial.segment_queries", "count"},
    {"spatial.segment_early_out_ratio", "ratio"},
    {"pdcs.extract_s", "s"},
    {"pdcs.tasks_s", "s"},
    {"pdcs.task_s_sum", "s"},
    {"pdcs.task_s_max", "s"},
    {"pdcs.positions_s", "s"},
    {"pdcs.point_case_s", "s"},
    {"pdcs.task_filter_s", "s"},
    {"pdcs.replay_coverage", "ratio"},
    {"pdcs.global_filter_s", "s"},
    {"pdcs.positions", "count"},
    {"pdcs.point_case_rows", "count"},
    {"pdcs.task_survivors", "count"},
    {"pdcs.global_survivors", "count"},
    {"pdcs.task_yield", "ratio"},
    {"pdcs.global_yield", "ratio"},
    {"opt.matrix_pack_s", "s"},
    {"opt.select_s", "s"},
    {"opt.greedy_s", "s"},
    {"opt.lazy_pops", "count"},
    {"opt.reeval_ratio", "ratio"},
    {"opt.rows_scanned", "count"},
    {"opt.delta_apply_s", "s"},
    {"opt.delta_task_share", "ratio"},
    {"opt.delta_rows_patched", "count"},
    {"opt.delta_full_rebuilds", "ratio"},
    {"parallel.busy_share", "ratio"},
    {"parallel.tasks", "count"},
    {"parallel.help_steals", "count"},
    {"parallel.idle_waits", "count"},
    {"shard.extract_s", "s"},
    {"shard.worker_s_max", "s"},
    {"shard.imbalance", "ratio"},
    {"shard.merge_s", "s"},
    {"shard.overhead_s", "s"},
    {"shard.rows", "count"},
    {"shard.pool_bytes", "bytes"},
    {"serve.parse_s", "s"},
    {"serve.dump_s", "s"},
    {"serve.hash_s", "s"},
    {"serve.handle_s.solve_key", "s"},
    {"serve.handle_s.solve_inline", "s"},
    {"serve.handle_s.eval", "s"},
    {"serve.handle_s.delta", "s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.request_bytes", "bytes"},
    {"serve.response_bytes", "bytes"},
    {"core.solve_s", "s"},
    {"core.solve_1t_s", "s"},
    {"core.facade_self_s", "s"},
    {"trace.p50_ms", "ms"},
    {"trace.tail_ms", "ms"},
    {"trace.ops_per_s", "1/s"},
};

int usage(const char* why) {
  std::cerr << "hipo_perfbench: " << why
            << "\nusage: hipo_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt] [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--corrupt") {
      args.corrupt = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-dir" && has_value) {
      args.trace_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  void (*run)(const perfbench::Args&, perfbench::Report&) = nullptr;
  if (args.workload == "cold_city") run = perfbench::run_cold_city;
  if (args.workload == "serve_hits") run = perfbench::run_serve_hits;
  if (args.workload == "delta_churn") run = perfbench::run_delta_churn;
  if (run == nullptr) return usage("unknown --workload");

  perfbench::Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    report.attempt();
    report.fail(std::string("exception: ") + e.what());
  }

  const Names& names = args.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : report.metrics()) {
    bool known = false;
    for (const auto& n : names) known = known || n.first == name;
    for (const auto& n : kEndToEnd) known = known || n.first == name;
    if (!known) std::cerr << "hipo_perfbench: unlisted metric " << name << "\n";
  }
  if (args.trace) {
    const std::string path =
        args.trace_dir + "/" + args.workload + "-" +
        std::to_string(args.seed) + ".json";
    ::mkdir(args.trace_dir.c_str(), 0755);
    if (perfbench::spans::write_json(path)) {
      report.info("spans_file", "\"" + path + "\"");
    }
  }
  report.print(args, names);
  return 0;
}
