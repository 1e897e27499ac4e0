// In-memory span recorder for the traced run. Spans are opened by the
// benchmark around its own calls into the program's public functions (the
// program itself is not instrumented), kept per thread without locks, and
// written out when the run ends. A span's self time is its duration minus
// the time its child spans on the same thread cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

/// Off by default; a disabled Span costs one relaxed load.
void enable(bool on);
bool enabled();

/// RAII span on the calling thread; nested spans become its children.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

struct Summary {
  double total_s = 0.0;
  std::uint64_t count = 0;
};

/// Per span name, over every thread. Call it, and write_json, only when no
/// other thread is recording spans (the buffers are not locked per span).
std::map<std::string, Summary> summarize();

/// All spans as JSON: {"spans":[{"name","thread","parent","start_ns",
/// "dur_ns","self_ns"}...]}. Returns false when the file cannot be written.
bool write_json(const std::string& path);

}  // namespace perfbench::spans
