#include "src/obs/trace.hpp"

#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "src/obs/build_info.hpp"
#include "src/obs/wire.hpp"

namespace hipo::obs {

namespace {

struct TraceEvent {
  const char* name;
  std::string detail;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t track;  // 0 = thread lane; else per-request track lane
};

thread_local std::uint64_t t_current_track = 0;

/// One per thread that ever emitted an event. Owned by TraceState for the
/// process lifetime (a pool worker's events must survive the worker).
/// The mutex serializes the owning thread's appends against a concurrent
/// writer/reset; spans are coarse, so one uncontended lock per span is
/// noise.
struct TraceBuffer {
  std::uint32_t tid = 0;
  std::mutex mutex;
  std::vector<TraceEvent> events;
};

/// Leaked like the metrics registry: thread-local buffer pointers and
/// static Span call sites must never outlive it.
struct TraceState {
  static TraceState& instance() {
    static TraceState* s = new TraceState;
    return *s;
  }

  std::mutex mutex;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::uint32_t next_tid = 0;
};

TraceBuffer& buffer() {
  thread_local TraceBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto& s = TraceState::instance();
    std::lock_guard lock(s.mutex);
    s.buffers.push_back(std::make_unique<TraceBuffer>());
    buf = s.buffers.back().get();
    buf->tid = s.next_tid++;
  }
  return *buf;
}

}  // namespace

namespace detail {

std::int64_t trace_now_ns() {
  const auto& s = TraceState::instance();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - s.epoch)
      .count();
}

void trace_emit(const char* name, std::string&& detail, std::int64_t start_ns,
                std::int64_t end_ns) {
  TraceBuffer& buf = buffer();
  std::lock_guard lock(buf.mutex);
  buf.events.push_back(
      {name, std::move(detail), start_ns, end_ns - start_ns,
       t_current_track});
}

std::uint64_t current_track() { return t_current_track; }

void set_current_track(std::uint64_t track) { t_current_track = track; }

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void reset_trace() {
  auto& s = TraceState::instance();
  std::lock_guard lock(s.mutex);
  for (const auto& buf : s.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    buf->events.clear();
  }
  s.epoch = std::chrono::steady_clock::now();
}

void write_trace_json(std::ostream& os) {
  auto& s = TraceState::instance();
  std::lock_guard lock(s.mutex);
  // The envelope is dumped with an empty "traceEvents" array — its last
  // key in sorted order — and the events stream into the gap between that
  // array's brackets, so a large trace is never held as a second copy.
  Json other = Json::object();
  other.set("build", build_info_object());
  Json envelope = Json::object();
  envelope.set("displayTimeUnit", Json::string("ms"))
      .set("otherData", std::move(other))
      .set("traceEvents", Json::array());
  const std::string text = envelope.dump();
  const std::size_t split = text.size() - 2;  // before the closing "]}"
  os.write(text.data(), static_cast<std::streamsize>(split));
  bool first = true;
  for (const auto& buf : s.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    for (const TraceEvent& e : buf->events) {
      // ts/dur are microseconds (the trace-event unit); sub-µs precision is
      // kept as a fractional part. Correlated spans render on a per-request
      // lane (100000 + track, far above any real thread id); uncorrelated
      // spans keep the thread lane.
      const std::uint64_t tid = e.track != 0 ? 100000 + e.track : buf->tid;
      Json event = Json::object();
      event.set("name", Json::string(e.name))
          .set("cat", Json::string("hipo"))
          .set("ph", Json::string("X"))
          .set("ts", Json::number(static_cast<double>(e.start_ns) * 1e-3))
          .set("dur", Json::number(static_cast<double>(e.dur_ns) * 1e-3))
          .set("pid", Json::number(1))
          .set("tid", Json::number(static_cast<double>(tid)));
      if (!e.detail.empty() || e.track != 0) {
        Json args = Json::object();
        if (!e.detail.empty()) args.set("detail", Json::string(e.detail));
        if (e.track != 0) {
          // "r" + id, spelled as an insert: GCC 12 at -O3 reports a false
          // -Wrestrict overlap when a literal is prepended to a temporary.
          args.set("request_id",
                   Json::string(std::to_string(e.track).insert(0, 1, 'r')));
        }
        event.set("args", std::move(args));
      }
      os << (first ? "\n" : ",\n") << event.dump();
      first = false;
    }
  }
  os << '\n' << text.substr(split) << '\n';
}

}  // namespace hipo::obs
