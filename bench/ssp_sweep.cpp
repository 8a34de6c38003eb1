// Staleness sweep: what the stale-synchronous protocol buys and what it
// never gives up.
//
// Runs PageRank on a skewed RMAT graph at staleness windows s ∈ {0, 1, 2,
// 4, 8} against the BSP engine, charting per leg:
//
//   rounds   — epochs folded (identical on every leg by construction: the
//              staleness window is flow control, not semantics)
//   wall_s   — end-to-end seconds (best of 3)
//   wait_s   — exposed wait: max-over-ranks CommStats::wait_seconds, the
//              time some rank sat parked (barrier/allreduce for BSP, recv
//              starvation for SSP); best of 3.  This is the number the
//              epoch pipeline exists to shrink — s >= 1 lets a fast rank
//              scan ahead instead of waiting for the slowest peer's round
//   outcome  — "exact" iff bit-identical to the BSP oracle
//
// The exposed-wait comparison runs under a deterministic straggler (one
// rank stalled for a fixed slice mid-run, FaultPlan::stall_*): on a clean
// single-core substrate both engines' waits are scheduling noise, but a
// straggler is exactly the condition stale synchrony exists for — BSP
// peers park at the next collective for the whole stall, SSP peers spend
// the stall scanning up to s epochs ahead, so their exposed wait drops by
// the work the window let them overlap.
//
// --verdict turns the chart into a gate (exit 0/1):
//   (a) every staleness setting reaches the BSP fixpoint bit-identically
//       (clean AND straggler legs), and
//   (b) a dup+reorder fault leg stays bit-identical AND folds each
//       (source, epoch) partial exactly once (the reliable channel really
//       discards the injected duplicates, and the ledger never rejects a
//       frame).
// It also prints, as advice only, (c): whether some staleness setting
// showed lower exposed wait than BSP under the straggler, with the margin.
// Wall seconds only advise: a window can overlap at most one PageRank
// epoch's scan with the stall (epoch e + 1 scans the fold of epoch e) —
// a few ms against a 0.25 s stall — and the SSP side is the best of 15
// runs against BSP's 3, so (c) passed about half the time either way.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace paralagg::bench {
namespace {

struct Leg {
  std::string name;
  std::uint64_t rounds = 0;
  double wall_s = 0;
  double wait_s = 0;  // max over ranks of exposed wait
  bool aborted = false;
  std::string what;
  std::vector<core::Tuple> rows;
};

Leg run_pagerank_leg(const graph::Graph& g, int ranks, std::size_t rounds,
                     bool ssp, std::size_t staleness,
                     const vmpi::FaultPlan* fault = nullptr, double watchdog = 0) {
  Leg leg;
  vmpi::RunOptions options;
  if (fault != nullptr) options.fault = *fault;
  options.watchdog_seconds = watchdog;
  std::vector<vmpi::CommStats> per_rank;
  vmpi::run_collect(
      ranks, options,
      [&](vmpi::Comm& comm) {
        queries::PagerankOptions opts;
        opts.rounds = rounds;
        opts.collect_ranks = true;
        if (ssp) {
          opts.tuning.use_async = true;
          opts.tuning.async.ssp = true;
          opts.tuning.async.ssp_staleness = staleness;
        }
        const auto r = run_pagerank(comm, g, opts);
        if (comm.rank() == 0) {
          leg.rows = r.ranks;
          leg.rounds = r.rounds;
          leg.wall_s = r.run.wall_seconds;
          leg.aborted = r.run.aborted_fault;
          leg.what = r.run.fault_what;
        }
      },
      per_rank);
  for (const auto& s : per_rank) leg.wait_s = std::max(leg.wait_s, s.wait_seconds);
  return leg;
}

/// Best-of-N: the run with the smallest exposed wait (one-core timesharing
/// makes single runs noisy; the minimum is the schedule's intrinsic cost).
Leg best_of(int n, const graph::Graph& g, int ranks, std::size_t rounds, bool ssp,
            std::size_t staleness, const vmpi::FaultPlan* fault = nullptr,
            double watchdog = 0) {
  Leg best = run_pagerank_leg(g, ranks, rounds, ssp, staleness, fault, watchdog);
  for (int i = 1; i < n; ++i) {
    Leg next = run_pagerank_leg(g, ranks, rounds, ssp, staleness, fault, watchdog);
    if (next.wait_s < best.wait_s) best = std::move(next);
  }
  return best;
}

/// Exactly-once probe: a $SUM kRefresh walk-count program run directly on
/// the AsyncEngine under dup+reorder injection, so the per-rank fold
/// counters are visible.  Returns true iff every rank folded exactly
/// nranks partials per epoch without aborting — the ledger turns a second
/// frame for a (source, epoch) into a typed abort, so no abort means zero
/// ledger rejections — and the reliable channel discarded at least one
/// injected duplicate somewhere.
bool fold_counts_exact_under_dup(const graph::Graph& g, int ranks,
                                 std::size_t epochs, double watchdog) {
  vmpi::RunOptions options;
  options.fault.seed = 202;
  options.fault.dup_prob = 0.10;
  options.fault.delay_prob = 0.08;
  options.watchdog_seconds = watchdog;
  std::vector<int> ok(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> dups(static_cast<std::size_t>(ranks), 0);
  vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    auto* seed = program.relation({.name = "seed", .arity = 1, .jcc = 1});
    auto* paths = program.relation({.name = "paths",
                                    .arity = 2,
                                    .jcc = 1,
                                    .dep_arity = 1,
                                    .aggregator = core::make_sum_aggregator(),
                                    .agg_mode = core::AggMode::kRefresh});
    auto& s = program.stratum();
    s.fixpoint = false;
    s.max_rounds = epochs;
    s.loop_rules.push_back(core::CopyRule{
        .src = seed,
        .version = core::Version::kFull,
        .out = {.target = paths, .cols = {core::Expr::col_a(0), core::Expr::constant(1)}},
    });
    s.loop_rules.push_back(core::JoinRule{
        .a = paths,
        .a_version = core::Version::kFull,
        .b = edge,
        .b_version = core::Version::kFull,
        .out = {.target = paths, .cols = {core::Expr::col_b(1), core::Expr::col_a(1)}},
    });
    edge->load_facts(queries::edge_slice(comm, g, /*weighted=*/false));
    std::vector<core::Tuple> seeds;
    if (comm.rank() == 0) seeds.push_back(core::Tuple{0});
    seed->load_facts(seeds);

    async::AsyncConfig cfg;
    cfg.ssp = true;
    cfg.ssp_staleness = 2;
    async::AsyncEngine engine(comm, cfg);
    const auto run = engine.run(program);
    const auto& ls = engine.loop_stats();
    const auto me = static_cast<std::size_t>(comm.rank());
    ok[me] = !run.aborted_fault && ls.ssp_epochs == epochs &&
             ls.ssp_partials_folded ==
                 static_cast<std::uint64_t>(ranks) * epochs;
    dups[me] = comm.stats().reliable_dups_discarded;
  });
  std::uint64_t dups_total = 0;
  for (const auto d : dups) dups_total += d;
  for (const int o : ok) {
    if (o == 0) return false;
  }
  return dups_total > 0;  // the injection must actually have been caught
}

void emit(const Leg& l, const char* outcome) {
  std::printf("%-14s  %6llu  %8.3fs  %8.3fs  %s\n", l.name.c_str(),
              static_cast<unsigned long long>(l.rounds), l.wall_s, l.wait_s, outcome);
}

}  // namespace
}  // namespace paralagg::bench

int main(int argc, char** argv) {
  using namespace paralagg;
  using namespace paralagg::bench;

  bool verdict = false;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verdict") == 0) {
      verdict = true;
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  const int ranks = positional.size() > 0 ? positional[0] : 6;
  const int scale = positional.size() > 1 ? positional[1] : 12;
  const std::size_t rounds = positional.size() > 2 ? static_cast<std::size_t>(positional[2]) : 10;

  banner("staleness sweep: SSP PageRank vs BSP, exactness and exposed wait",
         "n/a (bounded staleness is this repo's extension; the paper runs PageRank on BSP only)",
         "PageRank per staleness window; every leg must stay bit-identical to the BSP oracle");

  // Skewed RMAT: hub-heavy degree distribution is what makes BSP ranks wait
  // for the slowest peer every round.
  const auto g = graph::make_rmat({.scale = scale, .edge_factor = 8, .seed = 7});
  std::printf("graph rmat-s%d (skewed), %d ranks, %zu rounds, best of 3\n\n", scale,
              ranks, rounds);

  std::printf("%-14s  %6s  %9s  %9s  %s\n", "engine", "rounds", "wall", "wait(max)",
              "outcome");
  rule(56);

  Leg oracle = best_of(3, g, ranks, rounds, /*ssp=*/false, 0);
  oracle.name = "bsp";
  if (oracle.aborted || oracle.rows.empty()) {
    std::printf("BSP oracle run failed: %s\n", oracle.what.c_str());
    return 1;
  }
  emit(oracle, "oracle");

  const std::size_t kWindows[] = {0, 1, 2, 4, 8};
  bool all_exact = true;
  for (const std::size_t s : kWindows) {
    Leg leg = best_of(3, g, ranks, rounds, /*ssp=*/true, s);
    leg.name = "ssp s=" + std::to_string(s);
    const bool exact = !leg.aborted && leg.rows == oracle.rows;
    all_exact &= exact;
    emit(leg, exact ? "exact" : (leg.aborted ? "ABORTED" : "WRONG FIXPOINT"));
  }

  // Straggler legs: stall one rank for a fixed slice mid-run.  BSP peers
  // eat the whole stall at the next collective; an s-epoch window lets SSP
  // peers overlap s epochs of scan work with it.
  vmpi::FaultPlan straggler;
  straggler.stall_rank = 1;
  straggler.stall_epoch = 3;
  straggler.stall_seconds = 0.25;
  rule(56);
  Leg slow_bsp = best_of(3, g, ranks, rounds, /*ssp=*/false, 0, &straggler, 30.0);
  slow_bsp.name = "bsp+stall";
  all_exact &= !slow_bsp.aborted && slow_bsp.rows == oracle.rows;
  emit(slow_bsp, slow_bsp.rows == oracle.rows ? "exact" : "WRONG FIXPOINT");
  double best_ssp_wait = -1;
  std::string best_ssp_name;
  for (const std::size_t s : kWindows) {
    Leg leg = best_of(3, g, ranks, rounds, /*ssp=*/true, s, &straggler, 30.0);
    leg.name = "ssp+stall s=" + std::to_string(s);
    const bool exact = !leg.aborted && leg.rows == oracle.rows;
    all_exact &= exact;
    emit(leg, exact ? "exact" : (leg.aborted ? "ABORTED" : "WRONG FIXPOINT"));
    if (best_ssp_wait < 0 || leg.wait_s < best_ssp_wait) {
      best_ssp_wait = leg.wait_s;
      best_ssp_name = leg.name;
    }
  }
  rule(56);

  // Fault leg: exactness must survive an adversarial network too.
  vmpi::FaultPlan dup_reorder;
  dup_reorder.seed = 201;
  dup_reorder.dup_prob = 0.10;
  dup_reorder.delay_prob = 0.08;
  Leg faulted = run_pagerank_leg(g, ranks, rounds, /*ssp=*/true, 2, &dup_reorder,
                                 /*watchdog=*/10.0);
  faulted.name = "ssp+dup";
  const bool fault_exact = !faulted.aborted && faulted.rows == oracle.rows;
  emit(faulted, fault_exact ? "exact" : (faulted.aborted ? "ABORTED" : "WRONG FIXPOINT"));

  const bool folds_exact = fold_counts_exact_under_dup(g, ranks, rounds, 10.0);
  const bool wait_improves = best_ssp_wait >= 0 && best_ssp_wait < slow_bsp.wait_s;

  rule(56);
  std::printf("\nexactly-once fold counts under injected dup/reorder: %s\n",
              folds_exact ? "exact" : "VIOLATED");
  std::printf("exposed wait under straggler (advice, not gated): best %s %.3fs vs "
              "bsp+stall %.3fs, margin %+.3fs%s\n",
              best_ssp_name.c_str(), best_ssp_wait, slow_bsp.wait_s,
              slow_bsp.wait_s - best_ssp_wait,
              wait_improves ? "" : " (no window beat bsp+stall)");

  if (!verdict) return 0;
  const bool pass = all_exact && fault_exact && folds_exact;
  std::printf("\nverdict: %s (exact=%d fault_exact=%d folds_exact=%d; advice: "
              "wait_improves=%d)\n",
              pass ? "PASS" : "FAIL", all_exact, fault_exact, folds_exact, wait_improves);
  return pass ? 0 : 1;
}
