// Fault sweep: cost and outcome of running the engines under an adversarial
// (but seeded, replayable) network.
//
// Sweeps injected drop/dup/reorder/corrupt rates and a rank kill over SSSP
// on both engines (BSP on its default dense exchange and the async
// delta-propagation loop; the reliable channel guards every row frame
// either engine sends, while fact loads and collective relays stay off
// it), then over PageRank in stale-synchronous mode at two staleness
// windows.  Every fault point runs twice: once under the default retry
// budget ("healed" — the reliable channel retransmits until the fixpoint is
// bit-identical) and once with the budget zeroed ("legacy" — the channel
// still sequences, CRC-checks and deduplicates every frame, but the first
// damaged frame aborts: the fail-stop contract).  Reports, per leg, the
// outcome and its price:
//
//   outcome   — "exact" (bit-identical fixpoint) or "abort:<what>" (typed
//               FaultError); anything else is a bug and exits nonzero
//   wall_s    — end-to-end seconds (aborted legs pay the watchdog deadline)
//   injected  — faults the plan actually fired, summed over ranks
//   retrans   — data frames the reliable channel re-sent, summed over ranks,
//               then split by trigger: gap (a gap NACK's SACK evidence),
//               corrupt (a corrupt NACK) and timer (a lost tail frame)
//   dominated — rows the dominance filter kept off the wire, summed over
//               ranks (RunResult::router): the router's on BSP legs, the
//               STAGE path's on async legs; 0 for SSP's SUM and for aborts
//
// A fault that escapes a rank instead of ending its run typed (a peer
// reached the poisoned world) prints as "abort: escaped ..." and still
// fails the verdict's healed legs; it never kills the sweep.
//
// Also measures the checkpoint tax: the same clean run with a manifest
// written every iteration, so the overhead column prices `--checkpoint-every`.
//
// With --verdict the sweep turns into a gate: every drop and corrupt leg
// must inject at least one fault (a leg that fired nothing checked
// nothing), low-rate drop and corrupt legs must heal bit-identically with
// retransmits > 0, the kill legs must still abort typed (a dead rank is not
// healable), and the legacy drop legs must keep their fail-stop abort.  The
// drop and corrupt seeds fault a frame within the first four on some edges,
// so every engine's legs fire at the default size (6 ranks, RMAT scale 10).
// ctest runs this as fault_sweep_verdict.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace paralagg::bench {
namespace {

struct Leg {
  std::string engine;
  std::string fault;
  std::string mode;  // "healed" (default retry budget) or "legacy" (retry=0)
  std::string outcome;
  double wall_s = 0;
  std::uint64_t injected = 0;
  std::uint64_t dups_discarded = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t retransmits_gap = 0;
  std::uint64_t retransmits_corrupt = 0;
  std::uint64_t retransmits_timer = 0;
  std::uint64_t dominated = 0;
};

/// Sum the fault and heal counters over ranks into `leg`.
void tally(Leg& leg, const std::vector<vmpi::CommStats>& per_rank) {
  for (const auto& s : per_rank) {
    leg.injected += s.faults_dropped + s.faults_duplicated + s.faults_delayed +
                    s.faults_corrupted;
    leg.dups_discarded += s.dup_frames_discarded;
    leg.retransmits += s.retransmits;
    leg.retransmits_gap += s.retransmits_gap;
    leg.retransmits_corrupt += s.retransmits_corrupt;
    leg.retransmits_timer += s.retransmits_timer;
  }
}

struct SweepPoint {
  const char* name;
  vmpi::FaultPlan plan;
};

/// Run one leg's ranks.  Returns the text of a fault that escaped a rank,
/// empty when none did; `per_rank` stays empty then.
std::string launch(int ranks, const vmpi::RunOptions& options,
                   const std::function<void(vmpi::Comm&)>& body,
                   std::vector<vmpi::CommStats>& per_rank) {
  try {
    vmpi::run_collect(ranks, options, body, per_rank);
  } catch (const vmpi::FaultError& e) {
    return e.what();
  } catch (const vmpi::WorldAborted& e) {
    return e.what();
  }
  return {};
}

/// "exact", "abort: <what>" or the forbidden "WRONG FIXPOINT".
std::string outcome(bool aborted, const std::string& what,
                    const std::vector<core::Tuple>& rows,
                    const std::vector<core::Tuple>& reference) {
  if (aborted) return "abort: " + what.substr(0, 48);
  if (!reference.empty() && rows != reference) return "WRONG FIXPOINT";
  return "exact";
}

vmpi::RetryPolicy legacy_policy() {
  vmpi::RetryPolicy p;
  p.max_attempts = 0;
  return p;
}

Leg run_once(const graph::Graph& g, int ranks, bool use_async,
             const SweepPoint& point, const vmpi::RetryPolicy& retry,
             double watchdog, const std::vector<core::Tuple>& reference,
             std::size_t checkpoint_every = 0) {
  Leg leg;
  leg.engine = use_async ? "async" : "bsp";
  leg.fault = point.name;
  leg.mode = retry.max_attempts > 0 ? "healed" : "legacy";

  vmpi::RunOptions options;
  options.fault = point.plan;
  options.retry = retry;
  options.watchdog_seconds = watchdog;

  std::vector<core::Tuple> rows;
  bool aborted = false;
  std::string what;
  double wall = 0;
  std::vector<vmpi::CommStats> per_rank;
  const std::string ckpt_path = "/tmp/paralagg_fault_sweep_manifest.bin";
  const std::string escaped = launch(
      ranks, options,
      [&](vmpi::Comm& comm) {
        queries::SsspOptions opts;
        opts.sources = {0};
        opts.collect_distances = true;
        opts.tuning.use_async = use_async;
        if (checkpoint_every > 0) {
          opts.tuning.engine.checkpoint_every = checkpoint_every;
          opts.tuning.engine.checkpoint_path = ckpt_path;
        }
        const auto r = run_sssp(comm, g, opts);
        if (comm.rank() == 0) {
          rows = r.distances;
          aborted = r.run.aborted_fault;
          what = r.run.fault_what;
          wall = r.run.wall_seconds;
          leg.dominated = r.run.router.rows_dominated;
        }
      },
      per_rank);
  if (checkpoint_every > 0) std::remove(ckpt_path.c_str());
  if (!escaped.empty()) {
    aborted = true;
    what = "escaped " + escaped;
  }

  leg.wall_s = wall;
  tally(leg, per_rank);
  leg.outcome = outcome(aborted, what, rows, reference);
  return leg;
}

// Stale-synchronous legs ride PageRank, not SSSP: SSP accepts only
// bounded-round ($SUM refresh) strata, and its exactness claim is the
// stronger one — bit-identity to the *BSP* oracle, with the channel's dedup
// and the epoch ledger (not lattice idempotence) absorbing duplicated and
// reordered frames.
Leg run_ssp_pagerank(const graph::Graph& g, int ranks, std::size_t staleness,
                     const SweepPoint& point, const vmpi::RetryPolicy& retry,
                     double watchdog,
                     const std::vector<core::Tuple>& reference) {
  Leg leg;
  leg.engine = "ssp s=" + std::to_string(staleness);
  leg.fault = point.name;
  leg.mode = retry.max_attempts > 0 ? "healed" : "legacy";

  vmpi::RunOptions options;
  options.fault = point.plan;
  options.retry = retry;
  options.watchdog_seconds = watchdog;

  std::vector<core::Tuple> rows;
  bool aborted = false;
  std::string what;
  std::vector<vmpi::CommStats> per_rank;
  const std::string escaped = launch(
      ranks, options,
      [&](vmpi::Comm& comm) {
        queries::PagerankOptions opts;
        opts.rounds = 8;
        opts.collect_ranks = true;
        opts.tuning.use_async = true;
        opts.tuning.async.ssp = true;
        opts.tuning.async.ssp_staleness = staleness;
        const auto r = run_pagerank(comm, g, opts);
        if (comm.rank() == 0) {
          rows = r.ranks;
          aborted = r.run.aborted_fault;
          what = r.run.fault_what;
          leg.wall_s = r.run.wall_seconds;
          leg.dominated = r.run.router.rows_dominated;
        }
      },
      per_rank);
  if (!escaped.empty()) {
    aborted = true;
    what = "escaped " + escaped;
  }
  tally(leg, per_rank);
  leg.outcome = outcome(aborted, what, rows, reference);
  return leg;
}

void emit(const Leg& l) {
  std::printf("%-10s  %-12s  %-6s  %8.3fs  %7llu  %7llu  %4llu %4llu %4llu  %7llu  %9llu"
              "  %s\n",
              l.engine.c_str(), l.fault.c_str(), l.mode.c_str(), l.wall_s,
              static_cast<unsigned long long>(l.injected),
              static_cast<unsigned long long>(l.retransmits),
              static_cast<unsigned long long>(l.retransmits_gap),
              static_cast<unsigned long long>(l.retransmits_corrupt),
              static_cast<unsigned long long>(l.retransmits_timer),
              static_cast<unsigned long long>(l.dups_discarded),
              static_cast<unsigned long long>(l.dominated), l.outcome.c_str());
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace
}  // namespace paralagg::bench

int main(int argc, char** argv) {
  using namespace paralagg;
  using namespace paralagg::bench;

  bool verdict = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verdict") == 0) {
      verdict = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int ranks = positional.size() > 0 ? std::atoi(positional[0]) : 6;
  const int scale = positional.size() > 1 ? std::atoi(positional[1]) : 10;
  const double watchdog = positional.size() > 2 ? std::atof(positional[2]) : 3.0;

  banner("fault sweep: outcome and cost under an adversarial network",
         "n/a (the paper assumes a perfect interconnect; this prices dropping that assumption)",
         "SSSP per (engine, fault, mode) leg; every leg must end 'exact' or 'abort', never wrong/hung");

  const auto g = graph::make_rmat({.scale = scale, .edge_factor = 6, .seed = 77});

  SweepPoint clean{"clean", {}};
  SweepPoint drop{"drop 0.5%", {}};
  drop.plan.seed = 211;
  drop.plan.drop_prob = 0.005;
  SweepPoint dup{"dup 5%", {}};
  dup.plan.seed = 102;
  dup.plan.dup_prob = 0.05;
  SweepPoint reorder{"reorder 5%", {}};
  reorder.plan.seed = 103;
  reorder.plan.delay_prob = 0.05;
  reorder.plan.max_delay_msgs = 4;
  SweepPoint corrupt{"corrupt 1%", {}};
  corrupt.plan.seed = 104;
  corrupt.plan.corrupt_prob = 0.01;
  SweepPoint kill{"kill r1@e2", {}};
  kill.plan.kill_rank = 1;
  kill.plan.kill_epoch = 2;

  const vmpi::RetryPolicy healed{};
  const vmpi::RetryPolicy legacy = legacy_policy();

  std::printf("%-10s  %-12s  %-6s  %9s  %7s  %7s  %4s %4s %4s  %7s  %9s  %s\n", "engine",
              "fault", "mode", "wall", "injected", "retrans", "gap", "corr", "tmr",
              "deduped", "dominated", "outcome");
  rule(106);

  bool violated = false;
  std::vector<Leg> legs;
  for (const bool use_async : {false, true}) {
    // Clean reference for this engine (fixpoints agree across engines, but
    // wall-clock baselines do not).
    const auto base =
        run_once(g, ranks, use_async, clean, healed, /*watchdog=*/0, {});
    if (base.outcome != "exact") {
      std::printf("clean %s run failed: %s\n", base.engine.c_str(),
                  base.outcome.c_str());
      return 1;
    }
    emit(base);

    // Reference rows for exactness checks.
    std::vector<core::Tuple> reference;
    {
      vmpi::run(ranks, [&](vmpi::Comm& comm) {
        queries::SsspOptions opts;
        opts.sources = {0};
        opts.collect_distances = true;
        opts.tuning.use_async = use_async;
        const auto r = run_sssp(comm, g, opts);
        if (comm.rank() == 0) reference = r.distances;
      });
    }

    if (!use_async) {
      auto ckpt = run_once(g, ranks, use_async, clean, healed, 0, reference,
                           /*checkpoint_every=*/1);
      ckpt.fault = "ckpt every=1";
      emit(ckpt);
      violated |= ckpt.outcome != "exact";
    }

    for (const auto& point : {drop, dup, reorder, corrupt, kill}) {
      for (const auto& retry : {healed, legacy}) {
        const auto leg =
            run_once(g, ranks, use_async, point, retry, watchdog, reference);
        emit(leg);
        violated |= leg.outcome == "WRONG FIXPOINT";
        legs.push_back(leg);
      }
    }
  }

  // Stale-synchronous matrix: PageRank under the same fault points, at two
  // staleness windows, against the BSP engine's fixpoint.  The kill point is
  // skipped here — rank death is engine-independent and already priced above.
  std::vector<core::Tuple> pr_reference;
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    queries::PagerankOptions opts;
    opts.rounds = 8;
    opts.collect_ranks = true;
    const auto r = run_pagerank(comm, g, opts);
    if (comm.rank() == 0) pr_reference = r.ranks;
  });
  if (pr_reference.empty()) {
    std::printf("BSP pagerank reference failed\n");
    return 1;
  }
  for (const std::size_t s : {std::size_t{1}, std::size_t{4}}) {
    const auto base =
        run_ssp_pagerank(g, ranks, s, clean, healed, 0, pr_reference);
    emit(base);
    violated |= base.outcome != "exact";
    for (const auto& point : {drop, dup, reorder, corrupt}) {
      for (const auto& retry : {healed, legacy}) {
        const auto leg = run_ssp_pagerank(g, ranks, s, point, retry, watchdog,
                                          pr_reference);
        emit(leg);
        violated |= leg.outcome == "WRONG FIXPOINT";
        legs.push_back(leg);
        // Dup and reorder need no retransmit: the channel's dedup and the
        // epoch ledger keep them exact in both modes.
        if (point.plan.dup_prob > 0 || point.plan.delay_prob > 0) {
          violated |= leg.outcome != "exact";
        }
      }
    }
  }

  rule(106);
  std::printf("\nhealed legs ride the reliable channel: drop and corrupt retransmit to a\n");
  std::printf("bit-identical fixpoint (retrans column, split gap / corrupt / timer: a\n");
  std::printf("dropped frame heals on its receiver's gap NACK, a dropped tail frame on\n");
  std::printf("the backoff timer); dup/reorder stay exact via the channel's sequence\n");
  std::printf("dedup (deduped column) in both modes.\n");
  std::printf("legacy legs (retry=0) still run every frame through the channel's sequence,\n");
  std::printf("CRC and dedup checks but heal nothing: drop aborts typed within the %.1fs\n",
              watchdog);
  std::printf("watchdog, corrupt aborts typed on its first NACK; a killed rank aborts typed\n");
  std::printf("in either mode.\n");
  std::printf("dominated counts rows the dominance filter kept off the wire (BSP: router\n");
  std::printf("buckets; async: STAGE buffers), so each completed async leg shows the\n");
  std::printf("filter ran under its fault point.\n");

  if (verdict) {
    int failures = 0;
    const auto fail = [&](const Leg& l, const char* why) {
      std::printf(
          "VERDICT FAIL: %s / %s / %s — %s (outcome: %s, retransmits: %llu)\n",
          l.engine.c_str(), l.fault.c_str(), l.mode.c_str(), why,
          l.outcome.c_str(), static_cast<unsigned long long>(l.retransmits));
      ++failures;
    };
    for (const auto& l : legs) {
      const bool is_drop = starts_with(l.fault, "drop");
      const bool is_corrupt = starts_with(l.fault, "corrupt");
      const bool is_kill = starts_with(l.fault, "kill");
      if (is_kill) {
        // A dead rank is not healable; the retry budget must not convert
        // rank death into a hang or a wrong answer.
        if (!starts_with(l.outcome, "abort")) {
          fail(l, "kill must abort typed in every mode");
        }
        continue;
      }
      if ((is_drop || is_corrupt) && l.injected == 0) {
        fail(l, "drop/corrupt leg injected nothing, so it checked nothing");
        continue;
      }
      if (l.mode == "healed" && (is_drop || is_corrupt)) {
        if (l.outcome != "exact") {
          fail(l, "low-rate drop/corrupt must heal bit-identically");
        } else if (l.retransmits == 0) {
          fail(l, "healed leg recorded no retransmits — channel not engaged");
        }
      }
      if (l.mode == "legacy" && is_drop && !starts_with(l.outcome, "abort")) {
        fail(l, "retry=0 drop must keep the fail-stop abort");
      }
    }
    if (failures > 0 || violated) {
      std::printf("\nVERDICT: FAIL (%d gate failure(s)%s)\n", failures,
                  violated ? ", plus a wrong fixpoint" : "");
      return 1;
    }
    std::printf("\nVERDICT: PASS — drop/corrupt heal with retransmits, kill aborts typed,\n");
    std::printf("retry=0 fail-stop preserved.\n");
    return 0;
  }

  if (violated) {
    std::printf("INVARIANT VIOLATED: some leg produced a wrong fixpoint.\n");
    return 1;
  }
  return 0;
}
