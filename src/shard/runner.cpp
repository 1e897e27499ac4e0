#include "src/shard/runner.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/util/error.hpp"

namespace hipo::shard {

namespace {

using PerTask = std::vector<std::vector<pdcs::Candidate>>;

/// Per-frame byte limit on the worker pipes.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;
/// Rows per streamed frame (bounds worker serialization buffers).
constexpr std::size_t kRowsPerFrame = 4096;

/// `v` as an index below `bound`. The range and integrality checks precede
/// the cast, so negative, NaN or huge doubles never reach it.
std::size_t as_index(const obs::Json& v, std::size_t bound,
                     const char* what) {
  const double d = v.as_number();
  HIPO_REQUIRE(d >= 0.0 && d < static_cast<double>(bound) &&
                   d == std::floor(d),
               std::string("shard frame: ") + what +
                   " is not an integer below " + std::to_string(bound));
  return static_cast<std::size_t>(d);
}

std::size_t as_count(const obs::Json& v, const char* what) {
  return as_index(v, std::numeric_limits<std::size_t>::max(), what);
}

obs::Json row_json(std::size_t task, const pdcs::Candidate& c) {
  obs::Json r = obs::Json::array();
  r.push(obs::Json::number(static_cast<double>(task)));
  r.push(obs::Json::number(static_cast<double>(c.strategy.type)));
  r.push(obs::Json::number(c.strategy.pos.x));
  r.push(obs::Json::number(c.strategy.pos.y));
  r.push(obs::Json::number(c.strategy.orientation));
  obs::Json cov = obs::Json::array();
  for (std::size_t j : c.covered) {
    cov.push(obs::Json::number(static_cast<double>(j)));
  }
  obs::Json pow = obs::Json::array();
  for (double p : c.powers) pow.push(obs::Json::number(p));
  r.push(std::move(cov));
  r.push(std::move(pow));
  return r;
}

obs::Json stats_json(const ShardStats& st) {
  obs::Json s = obs::Json::object();
  s.set("seconds", obs::Json::number(st.seconds));
  s.set("rows", obs::Json::number(static_cast<double>(st.rows)));
  s.set("peak_bytes",
        obs::Json::number(static_cast<double>(st.peak_bytes)));
  obs::Json ts = obs::Json::array();
  for (double t : st.task_seconds) ts.push(obs::Json::number(t));
  s.set("task_seconds", std::move(ts));
  return s;
}

void parse_stats(const obs::Json& s, ShardStats& st) {
  const auto field = [&](const char* key) -> const obs::Json& {
    const obs::Json* v = s.find(key);
    HIPO_REQUIRE(v != nullptr,
                 std::string("shard stats frame: missing ") + key);
    return *v;
  };
  st.seconds = field("seconds").as_number();
  st.rows = as_count(field("rows"), "stats rows");
  st.peak_bytes = as_count(field("peak_bytes"), "stats peak_bytes");
  st.task_seconds.clear();
  for (const auto& v : field("task_seconds").as_array()) {
    st.task_seconds.push_back(v.as_number());
  }
  st.tasks = st.task_seconds.size();
}

/// Worker body after fork: extract shards worker, worker + procs, ...
/// single-threaded, stream rows and stats over `fd`, then _exit. Never
/// returns; all failures leave through the error frame + _exit(1).
[[noreturn]] void run_worker(int fd, const model::Scenario& scenario,
                             const ShardPlan& plan, const RunnerOptions& opt,
                             std::size_t worker, std::size_t procs) {
  try {
    PerTask per_task(scenario.num_devices());
    for (std::size_t k = worker; k < plan.num_shards(); k += procs) {
      const ShardStats st =
          extract_shard(scenario, plan, k, opt.extract,
                        opt.mem_ceiling_bytes, per_task, /*pool=*/nullptr);
      obs::Json rows = obs::Json::array();
      std::size_t in_frame = 0;
      const auto flush = [&]() {
        if (in_frame == 0) return;
        obs::Json frame = obs::Json::object();
        frame.set("shard",
                  obs::Json::number(static_cast<double>(k)));
        frame.set("rows", std::move(rows));
        obs::write_frame_fd(fd, frame.dump());
        rows = obs::Json::array();
        in_frame = 0;
      };
      for (std::size_t i : plan.shard(k).owned) {
        for (const pdcs::Candidate& c : per_task[i]) {
          rows.push(row_json(i, c));
          if (++in_frame >= kRowsPerFrame) flush();
        }
        per_task[i] = {};
      }
      flush();
      obs::Json frame = obs::Json::object();
      frame.set("shard", obs::Json::number(static_cast<double>(k)));
      frame.set("stats", stats_json(st));
      obs::write_frame_fd(fd, frame.dump());
    }
    ::close(fd);
    ::_exit(0);
  } catch (const std::exception& e) {
    try {
      obs::Json frame = obs::Json::object();
      frame.set("error", obs::Json::string(e.what()));
      obs::write_frame_fd(fd, frame.dump());
    } catch (...) {
    }
    ::close(fd);
    ::_exit(1);
  }
}

/// Decode one frame from worker `worker` of `procs`. A worker's error
/// frame, like any malformed field, throws ConfigError.
void decode_frame(std::string_view payload, std::size_t worker,
                  std::size_t procs, const model::Scenario& scenario,
                  const ShardPlan& plan, PerTask& per_task,
                  std::vector<ShardStats>& stats) {
  const obs::Json frame = obs::parse_json(payload);
  if (const obs::Json* err = frame.find("error")) {
    throw ConfigError(err->as_string());
  }
  const obs::Json* shard_v = frame.find("shard");
  HIPO_REQUIRE(shard_v != nullptr, "shard frame: missing shard id");
  const std::size_t k = as_index(*shard_v, plan.num_shards(), "shard id");
  HIPO_REQUIRE(k % procs == worker,
               "shard frame: shard " + std::to_string(k) +
                   " is not assigned to this worker");
  if (const obs::Json* rows = frame.find("rows")) {
    decode_rows(*rows, k, scenario, plan, per_task);
  } else if (const obs::Json* st = frame.find("stats")) {
    parse_stats(*st, stats[k]);
  }
}

/// Fork min(processes, shards) workers (worker w extracts shards w,
/// w + procs, ...) and decode their frames into `per_task` and `stats`.
/// The first failure stops decoding; every pipe is closed and every child
/// reaped before it rethrows as ConfigError.
void run_processes(const model::Scenario& scenario, const ShardPlan& plan,
                   const RunnerOptions& opt, PerTask& per_task,
                   std::vector<ShardStats>& stats) {
  const std::size_t procs = std::min(opt.processes, plan.num_shards());

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool open = false;
  };
  std::vector<Worker> workers;
  workers.reserve(procs);
  std::string error;
  for (std::size_t w = 0; w < procs; ++w) {
    int pipe_fd[2];
    if (::pipe(pipe_fd) != 0) {
      error = std::string("pipe: ") + std::strerror(errno);
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      error = std::string("fork: ") + std::strerror(errno);
      ::close(pipe_fd[0]);
      ::close(pipe_fd[1]);
      break;
    }
    if (pid == 0) {
      ::close(pipe_fd[0]);
      for (const Worker& prev : workers) ::close(prev.fd);
      run_worker(pipe_fd[1], scenario, plan, opt, w, procs);
    }
    ::close(pipe_fd[1]);
    workers.push_back({pid, pipe_fd[0], true});
  }

  // Drain frames with poll(): a worker stalled on a full pipe never blocks
  // the others' progress. Frames from different workers interleave freely;
  // each task's rows come from one worker in order, so the per-task table
  // is arrival-independent.
  std::string payload;
  std::vector<pollfd> poll_fds;
  while (error.empty()) {
    poll_fds.clear();
    for (const Worker& w : workers) {
      if (w.open) poll_fds.push_back({w.fd, POLLIN, 0});
    }
    if (poll_fds.empty()) break;
    const int rc = ::poll(poll_fds.data(),
                          static_cast<nfds_t>(poll_fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    for (const pollfd& pf : poll_fds) {
      if ((pf.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::size_t w = 0;
      while (w < workers.size() &&
             !(workers[w].open && workers[w].fd == pf.fd)) {
        ++w;
      }
      if (w == workers.size()) continue;
      try {
        if (obs::read_frame_fd(workers[w].fd, kMaxFrameBytes, payload)) {
          decode_frame(payload, w, procs, scenario, plan, per_task, stats);
          continue;
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
      ::close(workers[w].fd);
      workers[w].open = false;
      if (!error.empty()) break;
    }
  }

  // Closing the remaining pipes unblocks any worker stalled on a write, so
  // every child exits and is reaped even after a failure.
  bool dirty_exit = false;
  for (const Worker& w : workers) {
    if (w.open) ::close(w.fd);
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(w.pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r != w.pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      dirty_exit = true;
    }
  }
  if (!error.empty()) {
    throw ConfigError("shard worker failed: " + error);
  }
  HIPO_REQUIRE(!dirty_exit, "shard worker exited abnormally");
}

}  // namespace

void decode_rows(const obs::Json& rows, std::size_t shard_id,
                 const model::Scenario& scenario, const ShardPlan& plan,
                 PerTask& per_task) {
  const std::size_t n = scenario.num_devices();
  HIPO_REQUIRE(per_task.size() == n,
               "shard row frame: per-task table needs one slot per device");
  for (const obs::Json& r : rows.as_array()) {
    const auto& a = r.as_array();
    HIPO_REQUIRE(a.size() == 7, "shard row frame: malformed row");
    const std::size_t task = as_index(a[0], n, "row task");
    HIPO_REQUIRE(plan.owner_of(scenario.device(task).pos) == shard_id,
                 "shard row frame: task " + std::to_string(task) +
                     " is not owned by shard " + std::to_string(shard_id));
    pdcs::Candidate c;
    c.strategy.type =
        as_index(a[1], scenario.num_charger_types(), "row charger type");
    c.strategy.pos = {a[2].as_number(), a[3].as_number()};
    c.strategy.orientation = a[4].as_number();
    const auto& cov = a[5].as_array();
    const auto& pow = a[6].as_array();
    HIPO_REQUIRE(cov.size() == pow.size(),
                 "shard row frame: covered/powers length mismatch");
    c.covered.reserve(cov.size());
    c.powers.reserve(pow.size());
    for (std::size_t e = 0; e < cov.size(); ++e) {
      const std::size_t j = as_index(cov[e], n, "covered device");
      HIPO_REQUIRE(c.covered.empty() || c.covered.back() < j,
                   "shard row frame: covered ids not strictly ascending");
      const double p = pow[e].as_number();
      HIPO_REQUIRE(std::isfinite(p), "shard row frame: non-finite power");
      c.covered.push_back(j);
      c.powers.push_back(p);
    }
    per_task[task].push_back(std::move(c));
  }
}

pdcs::ExtractionResult extract_sharded(const model::Scenario& scenario,
                                       const RunnerOptions& opt,
                                       RunnerStats* stats_out) {
  HIPO_REQUIRE(opt.shards >= 1, "shard runner needs at least one shard");
  const ShardPlan plan(scenario, {.shards = opt.shards});

  PerTask per_task(scenario.num_devices());
  std::vector<ShardStats> stats(plan.num_shards());
  {
    obs::ScopedPhase phase("shard.extract");
    if (opt.processes >= 1) {
      run_processes(scenario, plan, opt, per_task, stats);
    } else {
      for (std::size_t k = 0; k < plan.num_shards(); ++k) {
        stats[k] = extract_shard(scenario, plan, k, opt.extract,
                                 opt.mem_ceiling_bytes, per_task, opt.pool);
      }
    }
  }

  obs::Stopwatch merge_watch;
  pdcs::ExtractionResult result;
  {
    obs::ScopedPhase phase("shard.merge");
    result = pdcs::merge_by_task(scenario, std::move(per_task), opt.extract,
                                 opt.pool);
  }
  result.task_seconds.assign(scenario.num_devices(), 0.0);
  for (std::size_t k = 0; k < plan.num_shards(); ++k) {
    const auto& owned = plan.shard(k).owned;
    HIPO_REQUIRE(stats[k].task_seconds.size() == owned.size(),
                 "shard stats: task count mismatch");
    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.task_seconds[owned[i]] = stats[k].task_seconds[i];
    }
  }

  if (stats_out != nullptr) {
    stats_out->shards = plan.num_shards();
    stats_out->processes = std::min(opt.processes, plan.num_shards());
    stats_out->shard_seconds.clear();
    stats_out->rows = 0;
    stats_out->peak_shard_bytes = 0;
    stats_out->pool_bytes = 0;
    for (const ShardStats& st : stats) {
      stats_out->shard_seconds.push_back(st.seconds);
      stats_out->rows += st.rows;
      stats_out->peak_shard_bytes =
          std::max(stats_out->peak_shard_bytes, st.peak_bytes);
      stats_out->pool_bytes += st.peak_bytes;
    }
    stats_out->merge_seconds = merge_watch.seconds();
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    // Bumped from the collected stats, so a forked run counts what its
    // children extracted.
    for (const ShardStats& st : stats) {
      obs::counter("shard.tasks").bump(st.tasks);
      obs::counter("shard.rows").bump(st.rows);
    }
    obs::counter("shard.runs").bump();
    obs::counter("shard.workers")
        .bump(opt.processes >= 1 ? std::min(opt.processes, plan.num_shards())
                                 : 0);
  }
  return result;
}

}  // namespace hipo::shard
