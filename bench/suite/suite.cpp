#include "suite.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include <sys/resource.h>

namespace paralagg::suite {

namespace {

// Per-layer names are prefixed with the module they measure.  README.md
// maps each layer metric to the end-to-end metric it should move.
constexpr MetricDef kCatalogue[] = {
    // end to end
    {"fixpoint_s", "s", true},
    {"remote_mib", "MiB", true},
    {"setup_s", "s", true},
    {"peak_rss_mib", "MiB", true},
    // storage/btree
    {"btree.insert_cmp_per_tuple", "cmp/tuple"},
    {"btree.probe_cmp_per_probe", "cmp/probe"},
    {"btree.load_s", "s"},
    // core/relation
    {"relation.dedup_agg_s", "s"},
    {"relation.useful_frac", "fraction"},
    {"relation.mib", "MiB"},
    {"relation.intra_bucket_s", "s"},
    {"relation.intra_bucket_mib", "MiB"},
    // core/ra_op
    {"ra_op.s", "s"},
    {"ra_op.probes", "count"},
    {"ra_op.seeks_per_probe", "seeks/probe"},
    {"ra_op.max_over_mean", "ratio"},
    // core/exchange_router
    {"exchange_router.s", "s"},
    {"exchange_router.mib", "MiB"},
    {"exchange_router.rounds", "count"},
    {"exchange_router.wait_s", "s"},
    // core/engine, join_planner, balancer, profile
    {"engine.iterations", "count"},
    {"engine.other_s", "s"},
    {"join_planner.s", "s"},
    {"join_planner.bytes", "B"},
    {"balancer.s", "s"},
    {"balancer.mib", "MiB"},
    {"cost_model.projected_s", "s"},
    // vmpi
    {"vmpi.steps", "count"},
    {"vmpi.collective_calls", "count"},
    {"vmpi.wait_s", "s"},
    {"vmpi.rank_mib_max_over_mean", "ratio"},
    {"vmpi.p2p_messages", "count"},
    {"vmpi.bytes_per_p2p_msg", "B/msg"},
    // async
    {"async_engine.rounds", "count"},
    {"async_engine.messages", "count"},
    {"async_engine.probe_rows_sent", "count"},
    {"async_engine.stage_rows_sent", "count"},
    {"async_engine.blocked_s", "s"},
    {"async_engine.collective_calls_in_loop", "count"},
    {"termination.token_probes", "count"},
    // vmpi/reliable + vmpi/fault
    {"reliable.retransmits", "count"},
    {"reliable.nacks", "count"},
    {"reliable.acks_per_data_frame", "ratio"},
    {"reliable.dups_discarded", "count"},
    {"reliable.heal_s", "s"},
    {"fault.injected", "count"},
    // serving
    {"serving.freshness_p50_ms", "ms"},
    {"serving.freshness_p99_ms", "ms"},
    {"serving.lookups_per_s", "keys/s"},
    {"serving.updates_per_s", "mutations/s"},
    {"serving.apply_p50_ms", "ms"},
    {"serving.apply_p99_ms", "ms"},
    {"serving.queue_wait_p99_ms", "ms"},
    {"serving.batch_rows_mean", "rows"},
    {"serving.tuples_derived_per_mutation", "tuples/mutation"},
    {"serving.recovered_over_retracted", "ratio"},
    {"serving.tail_iterations_mean", "count"},
    {"serving.kib_per_mutation", "KiB"},
    {"serving.lookup_us_per_key", "us"},
    {"serving.start_s", "s"},
    // set-up and the tracer itself
    {"graph.gen_s", "s"},
    {"trace_overhead_frac", "fraction"},
};

}  // namespace

std::span<const MetricDef> metric_catalogue() { return kCatalogue; }

Report::Report() : values_(std::size(kCatalogue)) {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!kCatalogue[i].end_to_end) values_[i].value = 0;
  }
}

std::size_t Report::index(std::string_view name) const {
  for (std::size_t i = 0; i < std::size(kCatalogue); ++i) {
    if (kCatalogue[i].name == name) return i;
  }
  throw std::logic_error("unknown metric " + std::string(name));
}

void Report::set(std::string_view name, double value, std::size_t n) {
  auto& m = values_[index(name)];
  m.value = value;
  m.n = n;
}

void Report::set_median(std::string_view name, std::vector<double> samples) {
  auto& m = values_[index(name)];
  m.value = median(samples);
  m.n = samples.size();
  m.samples = std::move(samples);
}

const MetricValue& Report::get(std::string_view name) const { return values_[index(name)]; }

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const auto q = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4;
  };
  return {q(1), q(3)};
}

double relative_spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  const auto [q1, q3] = quartiles(v);
  return ratio(q3 - q1, median(v));
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace paralagg::suite
