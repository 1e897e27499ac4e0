#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::spans {

namespace {

struct Record {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t child_ns = 0;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
  std::vector<int> open;  // stack of open record indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
// Buffers outlive their threads so spans of finished workers still count.
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buffer = [] {
    std::lock_guard lock(g_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size());
    return g_buffers.back().get();
  }();
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  Record r;
  r.name = name;
  r.parent = b.open.empty() ? -1 : b.open.back();
  index_ = static_cast<int>(b.records.size());
  b.records.push_back(r);
  b.open.push_back(index_);
  b.records[index_].start_ns = now_ns();
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  Buffer& b = local_buffer();
  Record& r = b.records[index_];
  r.end_ns = end;
  b.open.pop_back();
  if (r.parent >= 0) b.records[r.parent].child_ns += end - r.start_ns;
}

std::map<std::string, Summary> summarize() {
  std::lock_guard lock(g_mutex);
  std::map<std::string, Summary> out;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      if (r.end_ns == 0) continue;  // still open
      Summary& s = out[r.name];
      s.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      ++s.count;
    }
  }
  return out;
}

bool write_json(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard lock(g_mutex);
  os << "{\"spans\":[";
  bool first = true;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      if (r.end_ns == 0) continue;
      os << (first ? "" : ",") << "\n{\"name\":\"" << r.name
         << "\",\"thread\":" << b->thread << ",\"parent\":" << r.parent
         << ",\"start_ns\":" << r.start_ns
         << ",\"dur_ns\":" << (r.end_ns - r.start_ns)
         << ",\"self_ns\":" << (r.end_ns - r.start_ns - r.child_ns) << "}";
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench::spans
