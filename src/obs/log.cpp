#include "src/obs/log.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>

#include "src/obs/metrics.hpp"
#include "src/util/error.hpp"

namespace hipo::obs::log {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Unix wall-clock seconds, fractional — the "ts" every record carries.
double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
  }
  return "?";
}

Level parse_level(std::string_view name) {
  if (name == "debug") return Level::kDebug;
  if (name == "info") return Level::kInfo;
  if (name == "warn") return Level::kWarn;
  if (name == "error") return Level::kError;
  throw ConfigError("log level must be debug, info, warn, or error (got \"" +
                    std::string(name) + "\")");
}

void stamp(Json& record, Level level) {
  record.set("ts", Json::number(wall_seconds()));
  record.set("level", Json::string(level_name(level)));
}

namespace detail {

LineRing::LineRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity < 2 ? 2 : capacity);
  cells_ = std::make_unique<Cell[]>(cap);
  mask_ = cap - 1;
  for (std::size_t i = 0; i < cap; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool LineRing::push(std::string&& line) {
  std::uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        cell.line = std::move(line);
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS failed: pos was reloaded; retry with the new head.
    } else if (dif < 0) {
      return false;  // ring full — drop, never block
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool LineRing::pop(std::string& out) {
  const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & mask_];
  const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
  if (seq != pos + 1) return false;  // not yet published
  out = std::move(cell.line);
  cell.line.clear();
  cell.seq.store(pos + mask_ + 1, std::memory_order_release);
  tail_.store(pos + 1, std::memory_order_relaxed);
  return true;
}

}  // namespace detail

Logger::Logger(std::ostream& sink, LoggerOptions options)
    : options_(options), sink_(sink), ring_(options.ring_capacity) {
  start();
}

Logger::Logger(const std::string& path, LoggerOptions options)
    : options_(options),
      owned_sink_(std::make_unique<std::ofstream>(path, std::ios::binary)),
      sink_(*owned_sink_),
      ring_(options.ring_capacity) {
  if (!static_cast<std::ofstream&>(sink_).is_open()) {
    throw ConfigError("cannot open log file " + path);
  }
  start();
}

Logger::~Logger() {
  stop_.store(true, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
  if (drain_.joinable()) drain_.join();
}

void Logger::start() {
  window_start_ns_.store(steady_ns(), std::memory_order_relaxed);
  paused_.store(options_.start_paused, std::memory_order_release);
  drain_ = std::thread([this] { drain_loop(); });
}

bool Logger::write_line(Level level, std::string line) {
  if (!enabled(level)) {
    dropped_level_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (options_.rate_limit_per_sec > 0) {
    const std::int64_t now = steady_ns();
    std::int64_t start = window_start_ns_.load(std::memory_order_acquire);
    if (now - start >= 1'000'000'000) {
      // A new 1 s window: the first thread to move the start resets the
      // count. Concurrent writes racing the reset land in whichever window
      // wins — the budget is a throttle, not an exact quota.
      if (window_start_ns_.compare_exchange_strong(
              start, now, std::memory_order_acq_rel)) {
        window_count_.store(0, std::memory_order_relaxed);
      }
    }
    const std::uint64_t n =
        window_count_.fetch_add(1, std::memory_order_relaxed);
    if (n >= options_.rate_limit_per_sec) {
      dropped_rate_.fetch_add(1, std::memory_order_relaxed);
      counter("log.dropped_rate").add();
      return false;
    }
  }
  if (!ring_.push(std::move(line))) {
    dropped_ring_.fetch_add(1, std::memory_order_relaxed);
    counter("log.dropped_ring").add();
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  counter("log.records").add();
  return true;
}

void Logger::flush() {
  const std::uint64_t target = accepted_.load(std::memory_order_acquire);
  while (written_.load(std::memory_order_acquire) < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

LoggerStats Logger::stats() const {
  LoggerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.written = written_.load(std::memory_order_relaxed);
  s.dropped_ring = dropped_ring_.load(std::memory_order_relaxed);
  s.dropped_rate = dropped_rate_.load(std::memory_order_relaxed);
  s.dropped_level = dropped_level_.load(std::memory_order_relaxed);
  return s;
}

void Logger::drain_loop() {
  std::string line;
  for (;;) {
    if (paused_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    bool wrote = false;
    while (ring_.pop(line)) {
      sink_ << line << '\n';
      written_.fetch_add(1, std::memory_order_release);
      wrote = true;
    }
    if (wrote) {
      sink_.flush();
      continue;  // more may have arrived while flushing
    }
    if (stop_.load(std::memory_order_acquire)) {
      // One final sweep after seeing stop: writes sequenced before the
      // destructor's store are already in the ring.
      while (ring_.pop(line)) {
        sink_ << line << '\n';
        written_.fetch_add(1, std::memory_order_release);
      }
      sink_.flush();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) slots_ = std::make_unique<Slot[]>(capacity_);
}

void FlightRecorder::record(std::string line) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (capacity_ == 0) return;
  Slot& slot = slots_[(seq - 1) % capacity_];
  while (slot.lock.test_and_set(std::memory_order_acquire)) {
    // Another writer owns this slot for the duration of a string swap —
    // nanoseconds, never I/O.
  }
  if (slot.seq < seq) {  // a lapped straggler must not clobber newer data
    slot.seq = seq;
    slot.line = std::move(line);
  }
  slot.lock.clear(std::memory_order_release);
}

std::vector<std::string> FlightRecorder::dump() const {
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  rows.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    while (slot.lock.test_and_set(std::memory_order_acquire)) {
    }
    if (slot.seq > 0) rows.emplace_back(slot.seq, slot.line);
    slot.lock.clear(std::memory_order_release);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (auto& [seq, line] : rows) out.push_back(std::move(line));
  return out;
}

}  // namespace hipo::obs::log
