#pragma once

// Per-rank, per-iteration phase profiling.
//
// The paper's figures break running time into phases (Fig. 2: balancing,
// join planning, intra-bucket communication, local join, all-to-all
// "comm", deduplication/aggregation) and per-iteration series (Fig. 7).
// This profiler reproduces both views.
//
// Because this reproduction runs all ranks on one physical core, wall
// clock cannot separate the ranks; instead each rank measures its own
// *thread CPU time* per phase (CLOCK_THREAD_CPUTIME_ID — time actually
// spent computing in that rank, excluding time blocked in collectives),
// plus abstract work counters (probes, tuples, bytes).  The harness then
// reports the BSP critical-path model:
//
//   modelled time(phase) = Σ over iterations of max over ranks of
//                          cpu_seconds(rank, iteration, phase)
//
// which is exactly what an ideally overlapped distributed run would pay,
// and reproduces the *shape* of the paper's strong-scaling curves.

#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace paralagg::vmpi {
class Comm;
}

namespace paralagg::core {

enum class Phase : std::uint8_t {
  kBalance = 0,    // spatial load balancing (sub-bucket reshuffle)
  kPlan,           // dynamic join planning vote (Algorithm 1)
  kIntraBucket,    // outer-relation serialization + intra-bucket exchange
  kLocalJoin,      // B-tree probing and output construction
  kAllToAll,       // distributing newly generated tuples ("comm" in Fig. 2)
  kDedupAgg,       // fused deduplication / local aggregation
  kOther,          // termination detection, bookkeeping
  kCount,
};

constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

constexpr std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kBalance: return "balance";
    case Phase::kPlan: return "plan";
    case Phase::kIntraBucket: return "intra-bucket";
    case Phase::kLocalJoin: return "local-join";
    case Phase::kAllToAll: return "all-to-all";
    case Phase::kDedupAgg: return "dedup/agg";
    case Phase::kOther: return "other";
    case Phase::kCount: break;
  }
  return "?";
}

/// One iteration's phase totals for one rank.
struct IterationRecord {
  std::array<double, kPhaseCount> cpu_seconds{};
  std::array<std::uint64_t, kPhaseCount> work{};
  std::array<std::uint64_t, kPhaseCount> bytes{};      // remote bytes sent in phase
  /// Subset of `bytes` that crossed a node boundary under the configured
  /// vmpi::Topology (flat topology: equal to `bytes`).  The split is what
  /// the hierarchical exchange moves.
  std::array<std::uint64_t, kPhaseCount> cross_bytes{};
  std::array<std::uint64_t, kPhaseCount> exchanges{};  // collective exchange rounds in phase
  /// Schedule steps (latency-bearing rounds) the collectives in this phase
  /// took: ceil(log2 n) per allreduce / allgather, 1 per dense alltoallv,
  /// 3 for a hierarchical flush.  Steps x latency is the sync term of the
  /// modelled parallel time.
  std::array<std::uint64_t, kPhaseCount> steps{};
  /// Wall seconds parked in blocking communication during the phase
  /// (CommStats::wait_seconds deltas).  The thread-CPU clock cannot see
  /// blocked time, so this is the only per-phase window into exposed
  /// exchange latency.
  std::array<double, kPhaseCount> wait_seconds{};
  /// Reliable-transport healing this iteration (CommStats deltas): frames
  /// retransmitted and wall seconds spent between a frame's first send and
  /// its cumulative acknowledgement, counting only frames that needed at
  /// least one retransmit.  Not split by phase — a retransmit timer can
  /// fire while servicing any wait — so these are iteration scalars.
  std::uint64_t retransmits = 0;
  double heal_seconds = 0;

  IterationRecord& operator+=(const IterationRecord& o) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      cpu_seconds[i] += o.cpu_seconds[i];
      work[i] += o.work[i];
      bytes[i] += o.bytes[i];
      cross_bytes[i] += o.cross_bytes[i];
      exchanges[i] += o.exchanges[i];
      steps[i] += o.steps[i];
      wait_seconds[i] += o.wait_seconds[i];
    }
    retransmits += o.retransmits;
    heal_seconds += o.heal_seconds;
    return *this;
  }
};

/// Accumulates one rank's profile; owned by that rank's engine instance.
class RankProfile {
 public:
  void add_seconds(Phase p, double s) { current_.cpu_seconds[idx(p)] += s; }
  void add_work(Phase p, std::uint64_t w) { current_.work[idx(p)] += w; }
  void add_bytes(Phase p, std::uint64_t b) { current_.bytes[idx(p)] += b; }
  void add_cross_bytes(Phase p, std::uint64_t b) { current_.cross_bytes[idx(p)] += b; }
  void add_exchanges(Phase p, std::uint64_t n) { current_.exchanges[idx(p)] += n; }
  void add_steps(Phase p, std::uint64_t n) { current_.steps[idx(p)] += n; }
  void add_wait(Phase p, double s) { current_.wait_seconds[idx(p)] += s; }
  void add_heal(std::uint64_t retransmits, double seconds) {
    current_.retransmits += retransmits;
    current_.heal_seconds += seconds;
  }

  /// Close the current iteration and append it to the history.
  void end_iteration() {
    history_.push_back(current_);
    current_ = IterationRecord{};
  }

  [[nodiscard]] const std::vector<IterationRecord>& history() const { return history_; }
  [[nodiscard]] const IterationRecord& current() const { return current_; }

 private:
  static std::size_t idx(Phase p) { return static_cast<std::size_t>(p); }
  IterationRecord current_;
  std::vector<IterationRecord> history_;
};

/// RAII phase timer over the calling thread's CPU clock.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(RankProfile& profile, Phase phase)
      : profile_(&profile), phase_(phase), start_(thread_cpu_seconds()) {}
  ~ScopedPhaseTimer() { profile_->add_seconds(phase_, thread_cpu_seconds() - start_); }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

  /// CPU time consumed by the calling thread, in seconds.
  static double thread_cpu_seconds();

 private:
  RankProfile* profile_;
  Phase phase_;
  double start_;
};

/// Cross-rank view assembled after a run (on every rank, deterministic).
struct ProfileSummary {
  std::size_t iterations = 0;
  int ranks = 0;

  /// Σ_iter max_ranks cpu_seconds — the BSP critical-path model.
  std::array<double, kPhaseCount> modelled_seconds{};
  /// Σ over ranks and iterations — total CPU burned.
  std::array<double, kPhaseCount> total_cpu_seconds{};
  /// Σ over ranks and iterations of remote bytes per phase.
  std::array<std::uint64_t, kPhaseCount> total_bytes{};
  /// Σ over ranks and iterations of cross-node bytes per phase (subset of
  /// total_bytes; equal to it under a flat topology).
  std::array<std::uint64_t, kPhaseCount> total_cross_bytes{};
  /// Σ over iterations of max-over-ranks collective exchange rounds per
  /// phase.  Every rank participates in every collective, so ranks agree
  /// on the count; the max guards against divergence bugs.  This is how
  /// the fused router's R+1-vs-2R reduction is *observed* rather than
  /// asserted.
  std::array<std::uint64_t, kPhaseCount> total_exchanges{};
  /// Σ over iterations of max-over-ranks schedule steps per phase — the
  /// latency-bearing round count (ceil(log2 n) per symmetric collective).
  /// Same max-guard rationale as total_exchanges.
  std::array<std::uint64_t, kPhaseCount> total_steps{};
  /// Σ over ranks and iterations of wall seconds parked in blocking
  /// communication per phase — the exposed exchange latency (kAllToAll's
  /// share is the suite's exchange_router.wait_s row).
  std::array<double, kPhaseCount> total_wait_seconds{};
  /// Σ over ranks and iterations of reliable-transport retransmits / wall
  /// seconds spent healing (time from a damaged frame's first send to its
  /// cumulative ACK).  Zero on a clean run or when retry is disabled.
  std::uint64_t total_retransmits = 0;
  double total_heal_seconds = 0;
  /// Per-iteration critical-path seconds per phase (Fig. 7 series).
  std::vector<std::array<double, kPhaseCount>> per_iteration_max;
  /// Per-iteration max-over-ranks remote bytes sent (feeds CostModel).
  std::vector<std::uint64_t> per_iteration_max_bytes;
  /// Per-iteration max-over-ranks cross-node bytes (feeds project_topology).
  std::vector<std::uint64_t> per_iteration_max_cross_bytes;
  /// Per-iteration max-over-ranks exchange rounds, all phases combined.
  std::vector<std::uint64_t> per_iteration_exchanges;
  /// Per-iteration max-over-ranks schedule steps, all phases combined.
  std::vector<std::uint64_t> per_iteration_steps;
  /// Per-iteration sum-over-ranks retransmits — which iterations healed.
  std::vector<std::uint64_t> per_iteration_retransmits;

  [[nodiscard]] double modelled_total() const {
    double s = 0;
    for (double v : modelled_seconds) s += v;
    return s;
  }
  [[nodiscard]] std::uint64_t bytes_total() const {
    std::uint64_t s = 0;
    for (auto v : total_bytes) s += v;
    return s;
  }
  [[nodiscard]] std::uint64_t exchanges_total() const {
    std::uint64_t s = 0;
    for (auto v : total_exchanges) s += v;
    return s;
  }
  [[nodiscard]] std::uint64_t cross_bytes_total() const {
    std::uint64_t s = 0;
    for (auto v : total_cross_bytes) s += v;
    return s;
  }
  [[nodiscard]] std::uint64_t steps_total() const {
    std::uint64_t s = 0;
    for (auto v : total_steps) s += v;
    return s;
  }
};

/// Collective: every rank contributes its history; all ranks receive the
/// same summary.  Instrumentation traffic is excluded from CommStats.
ProfileSummary summarize_profiles(vmpi::Comm& comm, const RankProfile& mine);

/// Projects a profile onto a target cluster: BSP per iteration, the
/// critical path pays the slowest rank's compute plus its communication at
/// the modelled link bandwidth, plus a per-iteration synchronization cost
/// that grows logarithmically with rank count (tree collectives).  This is
/// the model behind the scaling figures' "projected" columns: it makes the
/// top-of-sweep saturation (tiny deltas, fixed sync costs — the paper's
/// §V-D analysis) quantitative instead of anecdotal.
struct CostModel {
  double bytes_per_second = 1.0e9;      // effective per-link bandwidth
  double collective_latency = 5.0e-6;   // one tree round
  double collectives_per_iteration = 8; // plan + exchanges + termination
  /// How much dearer a cross-node byte is than an intra-node one on the
  /// modelled interconnect (matches vmpi::Topology::cross_cost_ratio).
  double cross_node_cost_ratio = 4.0;

  /// Projected seconds for the whole run on `ranks` ranks.
  [[nodiscard]] double project(const ProfileSummary& p, int ranks) const {
    double total = 0;
    for (std::size_t it = 0; it < p.per_iteration_max.size(); ++it) {
      double cpu = 0;
      for (double v : p.per_iteration_max[it]) cpu += v;
      const double comm =
          it < p.per_iteration_max_bytes.size()
              ? static_cast<double>(p.per_iteration_max_bytes[it]) / bytes_per_second
              : 0.0;
      total += cpu + comm;
    }
    const double sync = collective_latency * collectives_per_iteration *
                        std::log2(static_cast<double>(ranks < 2 ? 2 : ranks)) *
                        static_cast<double>(p.iterations);
    return total + sync;
  }

  /// Topology-aware projection.  Two refinements over project(): the
  /// bandwidth term splits the measured volume by locality — a cross-node
  /// byte costs cross_node_cost_ratio link-bytes, an intra-node byte one —
  /// and the synchronization term charges the *measured* schedule steps
  /// one collective_latency each instead of assuming a fixed collective
  /// count per iteration.  This is the number the log-step collectives and
  /// the hierarchical exchange are designed to shrink.
  [[nodiscard]] double project_topology(const ProfileSummary& p) const {
    double total = 0;
    std::uint64_t steps = 0;
    for (std::size_t it = 0; it < p.per_iteration_max.size(); ++it) {
      double cpu = 0;
      for (double v : p.per_iteration_max[it]) cpu += v;
      const std::uint64_t all =
          it < p.per_iteration_max_bytes.size() ? p.per_iteration_max_bytes[it] : 0;
      const std::uint64_t cross =
          it < p.per_iteration_max_cross_bytes.size() ? p.per_iteration_max_cross_bytes[it] : 0;
      // Maxima are per metric, so all >= cross holds rank-by-rank.
      const double link_bytes = static_cast<double>(all - cross) +
                                cross_node_cost_ratio * static_cast<double>(cross);
      total += cpu + link_bytes / bytes_per_second;
      if (it < p.per_iteration_steps.size()) steps += p.per_iteration_steps[it];
    }
    return total + collective_latency * static_cast<double>(steps);
  }
};

}  // namespace paralagg::core
