#include "src/obs/report.hpp"

#include <ostream>
#include <string>

#include "src/obs/build_info.hpp"
#include "src/obs/json.hpp"
#include "src/util/table.hpp"

namespace hipo::obs {

namespace {

constexpr const char* kPhasePrefix = "phase.";
constexpr const char* kPhaseSuffix = ".seconds";

/// "phase.extract.seconds" -> "extract"; empty if not a phase accum.
std::string phase_name(const std::string& accum_name) {
  const std::string prefix = kPhasePrefix;
  const std::string suffix = kPhaseSuffix;
  if (accum_name.size() <= prefix.size() + suffix.size()) return {};
  if (accum_name.compare(0, prefix.size(), prefix) != 0) return {};
  if (accum_name.compare(accum_name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
    return {};
  }
  return accum_name.substr(prefix.size(),
                           accum_name.size() - prefix.size() - suffix.size());
}

}  // namespace

void print_report(const MetricsSnapshot& snapshot, std::ostream& os) {
  // Phase wall times. Shares are relative to the "solve" phase (the whole
  // pipeline) when it was recorded; nested phases overlap, so shares do not
  // sum to 100%.
  double solve_seconds = 0.0;
  for (const auto& a : snapshot.accums) {
    if (phase_name(a.name) == "solve") solve_seconds = a.sum;
  }
  Table phases({"phase", "seconds", "calls", "% of solve"});
  bool any_phase = false;
  for (const auto& a : snapshot.accums) {
    const std::string name = phase_name(a.name);
    if (name.empty()) continue;
    any_phase = true;
    phases.row().add(name).add(a.sum, 6).add(a.count);
    if (solve_seconds > 0.0) {
      phases.add(100.0 * a.sum / solve_seconds, 1);
    } else {
      phases.add(std::string("-"));
    }
  }
  if (any_phase) {
    os << "phases:\n";
    phases.print(os);
  }

  if (!snapshot.counters.empty()) {
    Table counters({"counter", "value"});
    for (const auto& c : snapshot.counters) {
      counters.row().add(c.name).add(c.value);
    }
    os << "counters:\n";
    counters.print(os);
  }

  // Obstacle-index effectiveness, derived from the run's own counters.
  std::uint64_t seg_q = 0, seg_eo = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "segment_index.segment_queries") seg_q = c.value;
    if (c.name == "segment_index.segment_early_outs") seg_eo = c.value;
  }
  if (seg_q > 0) {
    os << "segment_index early-out rate: "
       << format_double(100.0 * static_cast<double>(seg_eo) /
                            static_cast<double>(seg_q),
                        1)
       << "% (" << seg_eo << "/" << seg_q << ")\n";
  }

  // The extraction candidate funnel: candidate positions → per-position
  // maximal sets (point-case rows) → per-task survivors → global survivors.
  std::uint64_t positions = 0, rows = 0, raw = 0, kept = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "extract.positions") positions = c.value;
    if (c.name == "extract.point_case_rows") rows = c.value;
    if (c.name == "extract.candidates_raw") raw = c.value;
    if (c.name == "extract.candidates_kept") kept = c.value;
  }
  if (positions > 0) {
    os << "extract funnel: " << positions << " positions -> " << rows
       << " point-case rows -> " << raw << " task survivors -> " << kept
       << " kept\n";
  }

  // The exact-evaluation funnel: (charger, device) pairs the device grid
  // handed to the Eq. (1) gate -> pairs it passed.
  std::uint64_t pairs_tested = 0, pairs_covered = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "exact_eval.pairs_tested") pairs_tested = c.value;
    if (c.name == "exact_eval.pairs_covered") pairs_covered = c.value;
  }
  if (pairs_tested > 0) {
    os << "exact-eval funnel: " << pairs_tested << " pairs tested -> "
       << pairs_covered << " covered\n";
  }

  // Derived dirty-gain cache effectiveness (the flat-CSR incremental
  // greedy): share of gain evaluations served from the cache instead of
  // recomputed — the fraction of argmax work the dirty set eliminated.
  std::uint64_t recomputes = 0, avoided = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "coverage.gain_recomputes") recomputes = c.value;
    if (c.name == "coverage.reevals_avoided") avoided = c.value;
  }
  if (recomputes + avoided > 0) {
    os << "gain cache hit rate: "
       << format_double(100.0 * static_cast<double>(avoided) /
                            static_cast<double>(recomputes + avoided),
                        1)
       << "% (" << avoided << "/" << (recomputes + avoided) << ")\n";
  }

  if (!snapshot.gauges.empty()) {
    Table gauges({"gauge", "value"});
    for (const auto& g : snapshot.gauges) {
      gauges.row().add(g.name).add(g.value, 4);
    }
    os << "gauges:\n";
    gauges.print(os);
  }

  for (const auto& h : snapshot.histograms) {
    os << "histogram " << h.name << ": count " << h.count;
    if (h.count > 0) {
      os << ", mean "
         << format_double(h.sum / static_cast<double>(h.count), 4);
      // Derived tail summary (bucket-interpolated, so an estimate — the
      // bounds are log-spaced, see histogram_quantile).
      os << ", p50 " << format_double(histogram_quantile(h.bounds, h.counts, 0.50), 4)
         << ", p90 " << format_double(histogram_quantile(h.bounds, h.counts, 0.90), 4)
         << ", p99 " << format_double(histogram_quantile(h.bounds, h.counts, 0.99), 4);
    }
    os << "\n  ";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) os << "  ";
      if (i < h.bounds.size()) {
        os << "<=" << format_double(h.bounds[i], 3);
      } else {
        os << ">" << format_double(h.bounds.back(), 3);
      }
      os << ": " << h.counts[i];
    }
    os << "\n";
  }
}

void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& os) {
  os << "{\"schema\":\"hipo-metrics-v1\",\"build\":" << build_info_json()
     << ",\"metrics\":" << metrics_json(snapshot) << "}\n";
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots and anything
/// else exotic become '_'; the "hipo_" prefix namespaces the exposition.
std::string prom_name(const std::string& name) {
  std::string out = "hipo_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus floats: plain decimal or scientific both parse; reuse the
/// canonical JSON double (non-finite never reaches here — gauges are set
/// from finite computation outputs).
std::string prom_double(double v) { return json_double(v); }

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string n = prom_name(c.name) + "_total";
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string n = prom_name(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_double(g.value) + "\n";
  }
  for (const auto& a : snapshot.accums) {
    // An accum is a summary with no quantiles: _sum + _count.
    const std::string n = prom_name(a.name);
    out += "# TYPE " + n + " summary\n";
    out += n + "_sum " + prom_double(a.sum) + "\n";
    out += n + "_count " + std::to_string(a.count) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string n = prom_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      const std::string le =
          i < h.bounds.size() ? prom_double(h.bounds[i]) : "+Inf";
      out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    out += n + "_sum " + prom_double(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace hipo::obs
