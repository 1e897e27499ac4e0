// Low-overhead metrics registry: counters, gauges, accumulators, and
// fixed-bucket histograms, named at registration and aggregated on demand.
//
// Design constraints (the pipeline is deterministic and parallel):
//   * Observation never feeds back into computation — metrics are
//     write-only from the algorithms' point of view, so solver output is
//     bit-identical with metrics on or off.
//   * Writes go to a thread-local shard (relaxed atomics, no contention on
//     the hot path); aggregation sums all shards at snapshot time. Shards
//     are recycled when threads exit, so thread-pool churn does not grow
//     memory, and retired shards keep their values until `reset_metrics`.
//   * The disabled path costs one relaxed atomic-bool load and a branch —
//     cheap enough to leave instrumentation in the LOS/coverage hot path.
//
// Handles returned by `counter()` / `gauge()` / `accum()` / `histogram()`
// are stable for the process lifetime; registration takes a mutex and is
// meant for call-site statics, not per-observation lookup.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/wire.hpp"

namespace hipo::obs {

namespace detail {

inline std::atomic<bool> g_metrics_enabled{false};

/// Fixed shard capacity. Metrics are registered at call-site statics, so the
/// census is small and known; registration past the cap throws
/// InvariantError rather than resizing under concurrent writers.
constexpr std::size_t kU64Slots = 1024;
constexpr std::size_t kF64Slots = 256;

struct Shard {
  std::array<std::atomic<std::uint64_t>, kU64Slots> u64{};
  std::array<std::atomic<double>, kF64Slots> f64{};
};

/// The calling thread's shard (acquired on first use, recycled on thread
/// exit with values preserved for aggregation).
Shard& shard();

inline void f64_add(std::atomic<double>& slot, double v) {
  slot.fetch_add(v, std::memory_order_relaxed);
}

}  // namespace detail

inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on);

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (metrics_enabled()) bump(n);
  }
  /// Unguarded increment for call sites behind their own
  /// `metrics_enabled()` check (lets one branch guard several counters).
  void bump(std::uint64_t n = 1) {
    detail::shard().u64[slot_].fetch_add(n, std::memory_order_relaxed);
  }
  /// Aggregate over all shards (takes the registry lock; not for hot paths).
  std::uint64_t value() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  std::string name_;
  std::uint32_t slot_ = 0;
};

/// Last-set value (worker count, final utility, ...). Not sharded: sets are
/// rare and "last write wins" is the wanted semantics.
class Gauge {
 public:
  void set(double v) {
    if (metrics_enabled()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Sum + count of double samples (phase wall times, per-task seconds).
class Accum {
 public:
  void add(double v) {
    if (!metrics_enabled()) return;
    auto& s = detail::shard();
    s.u64[count_slot_].fetch_add(1, std::memory_order_relaxed);
    detail::f64_add(s.f64[sum_slot_], v);
  }
  double sum() const;
  std::uint64_t count() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  std::string name_;
  std::uint32_t count_slot_ = 0;
  std::uint32_t sum_slot_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts samples with
/// x <= bounds[i] (upper-inclusive, first matching bound wins); one extra
/// overflow bucket counts x > bounds.back(). Bounds are fixed at
/// registration; re-registering an existing name returns the existing
/// histogram (bounds must match).
class Histogram {
 public:
  void observe(double x);
  const std::vector<double>& bounds() const { return bounds_; }
  /// Aggregated per-bucket counts, size bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  std::string name_;
  std::vector<double> bounds_;
  std::uint32_t first_bucket_slot_ = 0;  // bounds_.size() + 1 u64 slots
  std::uint32_t sum_slot_ = 0;
};

/// Find-or-create by name. A name registered as one kind and requested as
/// another throws InvariantError. Thread-safe.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Accum& accum(std::string_view name);
Histogram& histogram(std::string_view name, std::span<const double> bounds);

/// Zero every metric (all shards, gauges included). Handles stay valid.
void reset_metrics();

/// Point-in-time aggregate of every registered metric, name-sorted.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct AccumValue {
    std::string name;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, overflow last
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<AccumValue> accums;
  std::vector<HistogramValue> histograms;
};

MetricsSnapshot metrics_snapshot();

/// Estimated q-quantile (q in [0,1]) of a histogram given its upper-
/// inclusive bucket bounds and per-bucket counts (`counts` has one extra
/// overflow bucket, bounds.size() + 1 entries total). Prometheus-style:
/// linear interpolation inside the target bucket, with the overflow bucket
/// clamped to the last finite bound. Returns 0 when the histogram is empty.
double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> counts, double q);

/// The snapshot as a JSON object:
/// {"accums":{...},"counters":{...},"gauges":{...},"histograms":{...}}.
/// Embeddable in larger documents (the serve `metrics` response, bench
/// JSON); `write_metrics_json` in report.hpp wraps it with schema + build
/// provenance.
Json metrics_json(const MetricsSnapshot& snapshot);

}  // namespace hipo::obs
