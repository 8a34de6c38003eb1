#pragma once

// Shared types of the one-command benchmark suite (README.md in this
// directory): the metric catalogue, the per-run report, run settings, and
// the small statistics helpers every workload uses.
//
// The suite measures each layer from outside only: it times its own calls
// into public library functions and reads public result counters.  Nothing
// under src/ is instrumented for it.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace paralagg::suite {

class Tracer;

/// Every workload runs on exactly this many rank threads.
inline constexpr int kRanks = 4;

/// One metric the suite can emit.  `end_to_end` metrics are what a user of
/// the system sees (and what BENCHMARK.json bounds); the rest are per-layer
/// diagnostics read from the traced rep.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool end_to_end = false;
};

/// The full catalogue, in report order.  BENCHMARK.json must declare
/// exactly these names and units; the smoke test checks that it does.
std::span<const MetricDef> metric_catalogue();

struct MetricValue {
  double value = std::numeric_limits<double>::quiet_NaN();  // NaN = not emitted
  std::size_t n = 0;            // samples behind the value
  std::vector<double> samples;  // per-rep samples (timed end-to-end metrics only)
};

/// What one workload run produced.  Per-layer metrics start at 0 (a layer
/// the workload does not exercise reads 0); end-to-end metrics start unset
/// and every workload must fill them.
class Report {
 public:
  Report();

  void set(std::string_view name, double value, std::size_t n = 1);
  /// Median of `samples`, keeping the samples for the results file.
  void set_median(std::string_view name, std::vector<double> samples);

  [[nodiscard]] const MetricValue& get(std::string_view name) const;
  [[nodiscard]] const std::vector<MetricValue>& values() const { return values_; }

  std::uint64_t attempted = 0;  // reps (batch) or service operations (serving)
  std::uint64_t failed = 0;     // aborted, or disagreed with the verified result
  bool oracle_ok = false;       // the verified result matched the reference oracle
  std::string note;             // human-readable oracle / failure detail

  [[nodiscard]] bool correct() const { return oracle_ok && failed == 0 && attempted > 0; }

 private:
  [[nodiscard]] std::size_t index(std::string_view name) const;
  std::vector<MetricValue> values_;  // parallel to metric_catalogue()
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;   // measured phase length
  bool smoke = false;    // tiny inputs, for the self-check
  Tracer* tracer = nullptr;  // non-null: add one traced rep
};

struct Workload {
  std::string_view name;
  std::string_view why;
  Report (*run)(const RunConfig&);
};

std::span<const Workload> workloads();

// -- statistics ----------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p);
/// First and third quartile as Python's statistics.quantiles(v, n=4) gives
/// them (the default "exclusive" method); needs at least two values.
std::pair<double, double> quartiles(std::vector<double> v);
/// (q3 - q1) / median, 0 for fewer than two values.
double relative_spread(const std::vector<double>& v);
/// a / b, or 0 when b is 0 (ratios of counters a workload may not touch).
double ratio(double a, double b);
double mib(double bytes);
/// Peak resident set of this process, MiB.
double peak_rss_mib();

}  // namespace paralagg::suite
