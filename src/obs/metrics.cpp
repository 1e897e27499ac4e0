#include "src/obs/metrics.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "src/util/error.hpp"

namespace hipo::obs {

namespace {

enum class Kind { kCounter, kGauge, kAccum, kHistogram };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kAccum: return "accum";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

/// Global metric registry. Deliberately leaked (never destroyed): metric
/// handles live in function-local statics across many TUs and thread-exit
/// hooks return shards here, so the registry must outlive every other
/// static — a leak is the only ordering-proof lifetime.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry;
    return *r;
  }

  Counter& get_counter(std::string_view name) {
    std::lock_guard lock(mutex_);
    if (const std::size_t i = find(name, Kind::kCounter)) {
      return counters_[i - 1];
    }
    Counter c;
    c.name_ = std::string(name);
    c.slot_ = alloc_u64(1);
    counters_.push_back(std::move(c));
    remember(name, Kind::kCounter, counters_.size() - 1);
    return counters_.back();
  }

  Gauge& get_gauge(std::string_view name) {
    std::lock_guard lock(mutex_);
    if (const std::size_t i = find(name, Kind::kGauge)) {
      return gauges_[i - 1];
    }
    gauges_.emplace_back();
    gauges_.back().name_ = std::string(name);
    remember(name, Kind::kGauge, gauges_.size() - 1);
    return gauges_.back();
  }

  Accum& get_accum(std::string_view name) {
    std::lock_guard lock(mutex_);
    if (const std::size_t i = find(name, Kind::kAccum)) {
      return accums_[i - 1];
    }
    Accum a;
    a.name_ = std::string(name);
    a.count_slot_ = alloc_u64(1);
    a.sum_slot_ = alloc_f64(1);
    accums_.push_back(std::move(a));
    remember(name, Kind::kAccum, accums_.size() - 1);
    return accums_.back();
  }

  Histogram& get_histogram(std::string_view name,
                           std::span<const double> bounds) {
    std::lock_guard lock(mutex_);
    if (const std::size_t i = find(name, Kind::kHistogram)) {
      Histogram& h = histograms_[i - 1];
      HIPO_ASSERT_MSG(std::equal(bounds.begin(), bounds.end(),
                                 h.bounds_.begin(), h.bounds_.end()),
                      "obs: histogram '" + std::string(name) +
                          "' re-registered with different bounds");
      return h;
    }
    HIPO_ASSERT_MSG(!bounds.empty(),
                    "obs: histogram needs at least one bound");
    HIPO_ASSERT_MSG(std::is_sorted(bounds.begin(), bounds.end()) &&
                        std::adjacent_find(bounds.begin(), bounds.end()) ==
                            bounds.end(),
                    "obs: histogram bounds must be strictly ascending");
    Histogram h;
    h.name_ = std::string(name);
    h.bounds_.assign(bounds.begin(), bounds.end());
    h.first_bucket_slot_ = alloc_u64(bounds.size() + 1);
    h.sum_slot_ = alloc_f64(1);
    histograms_.push_back(std::move(h));
    remember(name, Kind::kHistogram, histograms_.size() - 1);
    return histograms_.back();
  }

  detail::Shard* acquire_shard() {
    std::lock_guard lock(mutex_);
    if (!free_shards_.empty()) {
      detail::Shard* s = free_shards_.back();
      free_shards_.pop_back();
      return s;
    }
    shards_.push_back(std::make_unique<detail::Shard>());
    return shards_.back().get();
  }

  void release_shard(detail::Shard* s) {
    std::lock_guard lock(mutex_);
    free_shards_.push_back(s);
  }

  std::uint64_t counter_value(const Counter& c) {
    std::lock_guard lock(mutex_);
    return sum_u64(c.slot_);
  }
  double accum_sum(const Accum& a) {
    std::lock_guard lock(mutex_);
    return sum_f64(a.sum_slot_);
  }
  std::uint64_t accum_count(const Accum& a) {
    std::lock_guard lock(mutex_);
    return sum_u64(a.count_slot_);
  }
  std::vector<std::uint64_t> histogram_counts(const Histogram& h) {
    std::lock_guard lock(mutex_);
    std::vector<std::uint64_t> counts(h.bounds_.size() + 1, 0);
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] =
          sum_u64(h.first_bucket_slot_ + static_cast<std::uint32_t>(b));
    }
    return counts;
  }
  double histogram_sum(const Histogram& h) {
    std::lock_guard lock(mutex_);
    return sum_f64(h.sum_slot_);
  }

  void reset() {
    std::lock_guard lock(mutex_);
    for (const auto& s : shards_) {
      for (auto& slot : s->u64) slot.store(0, std::memory_order_relaxed);
      for (auto& slot : s->f64) slot.store(0.0, std::memory_order_relaxed);
    }
    for (auto& g : gauges_) g.value_.store(0.0, std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() {
    std::lock_guard lock(mutex_);
    MetricsSnapshot snap;
    for (const auto& c : counters_) {
      snap.counters.push_back({c.name_, sum_u64(c.slot_)});
    }
    for (const auto& g : gauges_) {
      snap.gauges.push_back(
          {g.name_, g.value_.load(std::memory_order_relaxed)});
    }
    for (const auto& a : accums_) {
      snap.accums.push_back(
          {a.name_, sum_f64(a.sum_slot_), sum_u64(a.count_slot_)});
    }
    for (const auto& h : histograms_) {
      MetricsSnapshot::HistogramValue hv;
      hv.name = h.name_;
      hv.bounds = h.bounds_;
      hv.counts.resize(h.bounds_.size() + 1, 0);
      for (std::size_t b = 0; b < hv.counts.size(); ++b) {
        hv.counts[b] =
            sum_u64(h.first_bucket_slot_ + static_cast<std::uint32_t>(b));
        hv.count += hv.counts[b];
      }
      hv.sum = sum_f64(h.sum_slot_);
      snap.histograms.push_back(std::move(hv));
    }
    const auto by_name = [](const auto& a, const auto& b) {
      return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), by_name);
    std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
    std::sort(snap.accums.begin(), snap.accums.end(), by_name);
    std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
    return snap;
  }

 private:
  std::uint32_t alloc_u64(std::size_t n) {
    HIPO_ASSERT_MSG(next_u64_ + n <= detail::kU64Slots,
                    "obs: metric u64 slot capacity exceeded");
    const std::uint32_t slot = next_u64_;
    next_u64_ += static_cast<std::uint32_t>(n);
    return slot;
  }
  std::uint32_t alloc_f64(std::size_t n) {
    HIPO_ASSERT_MSG(next_f64_ + n <= detail::kF64Slots,
                    "obs: metric f64 slot capacity exceeded");
    const std::uint32_t slot = next_f64_;
    next_f64_ += static_cast<std::uint32_t>(n);
    return slot;
  }

  /// Index+1 of an existing metric of this kind; 0 if absent; throws on a
  /// kind mismatch (the same name used as two different metric types).
  std::size_t find(std::string_view name, Kind kind) {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return 0;
    HIPO_ASSERT_MSG(it->second.first == kind,
                    "obs: metric '" + std::string(name) + "' registered as " +
                        kind_name(it->second.first) + ", requested as " +
                        kind_name(kind));
    return it->second.second + 1;
  }

  void remember(std::string_view name, Kind kind, std::size_t index) {
    by_name_.emplace(std::string(name), std::pair{kind, index});
  }

  std::uint64_t sum_u64(std::uint32_t slot) const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s->u64[slot].load(std::memory_order_relaxed);
    }
    return total;
  }
  double sum_f64(std::uint32_t slot) const {
    double total = 0.0;
    for (const auto& s : shards_) {
      total += s->f64[slot].load(std::memory_order_relaxed);
    }
    return total;
  }

  std::mutex mutex_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Accum> accums_;
  std::deque<Histogram> histograms_;
  std::map<std::string, std::pair<Kind, std::size_t>, std::less<>> by_name_;
  std::vector<std::unique_ptr<detail::Shard>> shards_;
  std::vector<detail::Shard*> free_shards_;
  std::uint32_t next_u64_ = 0;
  std::uint32_t next_f64_ = 0;
};

namespace detail {

namespace {

/// Thread-exit hook: hand the shard back for reuse (values are preserved —
/// the registry owns the allocation and keeps aggregating it).
struct ShardLease {
  Shard* s = nullptr;
  ~ShardLease() {
    if (s != nullptr) Registry::instance().release_shard(s);
  }
};

}  // namespace

Shard& shard() {
  thread_local ShardLease lease;
  if (lease.s == nullptr) lease.s = Registry::instance().acquire_shard();
  return *lease.s;
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  return Registry::instance().get_counter(name);
}

Gauge& gauge(std::string_view name) {
  return Registry::instance().get_gauge(name);
}

Accum& accum(std::string_view name) {
  return Registry::instance().get_accum(name);
}

Histogram& histogram(std::string_view name, std::span<const double> bounds) {
  return Registry::instance().get_histogram(name, bounds);
}

std::uint64_t Counter::value() const {
  return Registry::instance().counter_value(*this);
}

double Accum::sum() const { return Registry::instance().accum_sum(*this); }

std::uint64_t Accum::count() const {
  return Registry::instance().accum_count(*this);
}

void Histogram::observe(double x) {
  if (!metrics_enabled()) return;
  // Upper-inclusive buckets: the first bound >= x wins; past the last bound
  // the sample lands in the overflow bucket.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  auto& s = detail::shard();
  s.u64[first_bucket_slot_ + bucket].fetch_add(1, std::memory_order_relaxed);
  detail::f64_add(s.f64[sum_slot_], x);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  return Registry::instance().histogram_counts(*this);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : bucket_counts()) total += c;
  return total;
}

double Histogram::sum() const {
  return Registry::instance().histogram_sum(*this);
}

void reset_metrics() { Registry::instance().reset(); }

MetricsSnapshot metrics_snapshot() { return Registry::instance().snapshot(); }

double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> counts, double q) {
  HIPO_ASSERT_MSG(counts.size() == bounds.size() + 1,
                  "obs: histogram_quantile needs bounds.size()+1 counts");
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; ceil so q=0.5 over 10 samples
  // lands on the 5th, matching the "at least q of the mass at or below"
  // reading Prometheus uses.
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds.size()) return bounds.back();  // overflow: clamp
    const double hi = bounds[i];
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double frac =
        counts[i] == 0
            ? 1.0
            : (target - static_cast<double>(before)) /
                  static_cast<double>(counts[i]);
    return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac);
  }
  return bounds.back();
}

Json metrics_json(const MetricsSnapshot& snapshot) {
  Json counters = Json::object();
  for (const auto& c : snapshot.counters) {
    counters.set(c.name, Json::number(c.value));
  }
  Json gauges = Json::object();
  for (const auto& g : snapshot.gauges) {
    gauges.set(g.name, Json::number(g.value));
  }
  Json accums = Json::object();
  for (const auto& a : snapshot.accums) {
    Json accum = Json::object();
    accum.set("sum", Json::number(a.sum)).set("count", Json::number(a.count));
    accums.set(a.name, std::move(accum));
  }
  Json histograms = Json::object();
  for (const auto& h : snapshot.histograms) {
    Json bounds = Json::array();
    for (const double b : h.bounds) bounds.push(Json::number(b));
    Json counts = Json::array();
    for (const std::uint64_t n : h.counts) counts.push(Json::number(n));
    Json histogram = Json::object();
    histogram.set("bounds", std::move(bounds))
        .set("counts", std::move(counts))
        .set("sum", Json::number(h.sum))
        .set("count", Json::number(h.count));
    histograms.set(h.name, std::move(histogram));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("accums", std::move(accums))
      .set("histograms", std::move(histograms));
  return out;
}

}  // namespace hipo::obs
