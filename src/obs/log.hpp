// hipo::obs::log — structured JSONL logging for long-lived processes
// (the hipo_serve daemon), plus the flight recorder that keeps the last N
// request records in memory for post-mortem dumps.
//
// Design constraints (the serve request path must never block on log I/O):
//   * The caller formats the record on its own thread; `write_line` hands
//     the finished line to a bounded lock-free MPSC ring. A dedicated drain
//     thread is the only writer of the sink stream. When the ring is full
//     the record is DROPPED and counted (`LoggerStats::dropped_ring`) — a
//     slow disk back-pressures the log, never the request.
//   * Rate limiting is a coarse per-second window: beyond
//     `rate_limit_per_sec` accepted records in the current window, writes
//     are dropped and counted (`dropped_rate`). 0 disables the limit.
//   * Logging is write-only from the algorithms' point of view — served
//     placements are byte-identical with logging on or off (asserted in
//     tests/test_serve.cpp and the CI serve smoke).
//
// Record schema: docs/FORMATS.md, "Request log JSONL". A record is a flat
// obs::Json object; `stamp` adds the envelope fields and `Json::dump` emits
// the canonical single-line form that round-trips through parse_json.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/obs/wire.hpp"

namespace hipo::obs::log {

enum class Level : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2,
                                  kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* level_name(Level level);
/// Inverse of level_name; ConfigError on an unknown name.
Level parse_level(std::string_view name);

/// Add the envelope fields every emitted record carries: "ts" (unix
/// wall-clock seconds, fractional) and "level". `record` must be an object;
/// existing "ts"/"level" members are replaced.
void stamp(Json& record, Level level);

struct LoggerOptions {
  Level min_level = Level::kInfo;
  /// Ring slots (rounded up to a power of two, minimum 2). Records beyond
  /// a full ring are dropped, not blocked on.
  std::size_t ring_capacity = 4096;
  /// Accepted records per second; beyond this, writes in the same 1 s
  /// window are dropped (`dropped_rate`). 0 = unlimited.
  std::uint64_t rate_limit_per_sec = 0;
  /// Test hook: start with the drain thread frozen, so ring-overflow tests
  /// are deterministic (see set_drain_paused_for_test). Never set in
  /// production.
  bool start_paused = false;
};

struct LoggerStats {
  std::uint64_t accepted = 0;       ///< enqueued for the drain thread
  std::uint64_t written = 0;        ///< drained to the sink
  std::uint64_t dropped_ring = 0;   ///< ring full (slow sink)
  std::uint64_t dropped_rate = 0;   ///< over the per-second budget
  std::uint64_t dropped_level = 0;  ///< below min_level
};

namespace detail {

/// Bounded lock-free MPSC ring (Vyukov bounded-queue cells: per-cell
/// sequence numbers; producers CAS the head, the single consumer owns the
/// tail). push() never blocks — a full ring returns false.
class LineRing {
 public:
  explicit LineRing(std::size_t capacity);
  bool push(std::string&& line);
  bool pop(std::string& out);

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    std::string line;
  };
  std::unique_ptr<Cell[]> cells_;
  std::uint64_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace detail

/// Leveled, rate-limited JSONL logger with a dedicated drain thread. The
/// sink stream is written by the drain thread only; `write` never touches
/// it. Destruction drains everything still queued, flushes, and joins.
class Logger {
 public:
  /// Log to an existing stream (tests, stdout). The stream must outlive
  /// the logger.
  explicit Logger(std::ostream& sink, LoggerOptions options = {});
  /// Log to a file opened in append-less truncate mode; ConfigError when
  /// the path cannot be opened.
  explicit Logger(const std::string& path, LoggerOptions options = {});
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  bool enabled(Level level) const {
    return level >= options_.min_level;
  }

  /// Enqueue an already-stamped complete record line; false when filtered
  /// or dropped. Non-blocking.
  bool write_line(Level level, std::string line);

  /// Block until everything accepted so far has reached the sink and the
  /// sink has been flushed. (Returns immediately once the drain catches
  /// up; do not call while the drain is paused.)
  void flush();

  LoggerStats stats() const;

  /// Test hook: freeze the drain thread so ring-overflow behavior is
  /// deterministic. Production code never pauses.
  void set_drain_paused_for_test(bool paused) {
    paused_.store(paused, std::memory_order_release);
  }

 private:
  void start();
  void drain_loop();

  LoggerOptions options_;
  std::unique_ptr<std::ostream> owned_sink_;
  std::ostream& sink_;
  detail::LineRing ring_;
  std::thread drain_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_ring_{0};
  std::atomic<std::uint64_t> dropped_rate_{0};
  std::atomic<std::uint64_t> dropped_level_{0};

  // Rate-limit window: start time (steady ns) + accepted-in-window count.
  std::atomic<std::int64_t> window_start_ns_{0};
  std::atomic<std::uint64_t> window_count_{0};
};

/// In-memory ring of the last `capacity` record lines — the post-mortem
/// "what were the most recent requests" buffer, dumped by the daemon's
/// `flight` wire request and on SIGUSR1. Writers claim a slot with one
/// atomic increment and swap the line in under that slot's spinlock: no
/// global lock, no allocation beyond the line itself, no I/O — safe on the
/// request path at any thread count. A writer that stalls long enough for
/// the ring to lap it simply loses its slot to the newer record.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  /// Record one line (typically the dump of a stamped record).
  void record(std::string line);

  /// The retained lines, oldest first. Safe to call while writers run;
  /// a slot mid-swap is simply read before or after its newest value.
  std::vector<std::string> dump() const;

  /// Total records ever seen (retained + overwritten).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::uint64_t seq = 0;  // 1-based sequence of the stored record
    std::string line;
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace hipo::obs::log
