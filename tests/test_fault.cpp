// Deterministic fault injection, hang-free failure detection, and
// checkpoint/restart.
//
// The sweep's contract (DESIGN.md §8, §14): under any seeded message-fault
// schedule a run either reaches the bit-identical reference fixpoint or
// fails with a typed vmpi::FaultError on every rank — never a hang, never
// a silently wrong answer.  Under the default retry budget the reliable
// channel upgrades the per-class guarantees: drops and corruption are
// *healed* (ack/retransmit; the run completes bit-identically with
// retransmits > 0), duplication and bounded reorder are absorbed, and
// every schedule replays exactly from its seed.  With retry disabled
// (max_attempts = 0) the channel still checks every frame but heals
// nothing — the fail-stop contract: drops and corruption abort typed.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "core/checkpoint.hpp"
#include "core/relation.hpp"
#include "queries/cc.hpp"
#include "queries/common.hpp"
#include "queries/pagerank.hpp"
#include "queries/sssp.hpp"
#include "queries/tc.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::Tuple;
using core::value_t;

// Generous enough that sanitizer builds never trip it on a healthy run,
// short enough that a starved wait fails the leg instead of the runner.
constexpr double kWatchdog = 4.0;

graph::Graph sweep_graph() {
  return graph::make_rmat({.scale = 6, .edge_factor = 4, .seed = 33});
}

enum class Query { kSssp, kCc, kTc };
const char* query_name(Query q) {
  switch (q) {
    case Query::kSssp: return "sssp";
    case Query::kCc: return "cc";
    case Query::kTc: return "tc";
  }
  return "?";
}

/// One rank's view of a faulted run: the typed-abort flag plus the rows it
/// gathered (root only, and only when the run completed).
struct LegOutcome {
  std::vector<int> aborted;             // per rank: run.aborted_fault
  std::vector<std::string> fault_what;  // per rank
  std::vector<Tuple> rows;              // root's gather when not aborted
  std::vector<std::uint64_t> retransmits;  // per rank: frames healed on the wire
  std::vector<std::uint64_t> gap_retransmits;  // per rank: the gap-NACK-triggered share
  std::vector<std::uint64_t> nacks;        // per rank: corrupt frames bounced
  std::vector<std::uint64_t> dups;         // per rank: wire duplicates discarded
  /// RunResult::router.rows_dominated (summed over ranks) when the run
  /// completed: rows the dominance filter kept off the wire.
  std::uint64_t dominated = 0;
  [[nodiscard]] bool any_aborted() const {
    for (const int a : aborted) {
      if (a != 0) return true;
    }
    return false;
  }
  [[nodiscard]] bool all_aborted() const {
    for (const int a : aborted) {
      if (a == 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t total_retransmits() const {
    std::uint64_t s = 0;
    for (const auto r : retransmits) s += r;
    return s;
  }
  [[nodiscard]] std::uint64_t total_gap_retransmits() const {
    std::uint64_t s = 0;
    for (const auto r : gap_retransmits) s += r;
    return s;
  }
  [[nodiscard]] std::uint64_t total_dups() const {
    std::uint64_t s = 0;
    for (const auto d : dups) s += d;
    return s;
  }
};

/// RunOptions with retransmission disabled: the channel still sequences,
/// CRC-checks and deduplicates, but the first damaged frame aborts.
vmpi::RunOptions legacy_options() {
  vmpi::RunOptions options;
  options.retry.max_attempts = 0;
  return options;
}

/// Run `query` on `ranks` ranks under `options`, using the BSP engine on
/// its default dense exchange (whose row frames ride the faultable path)
/// unless `tuning_fn` overrides it.  Collects per-rank abort flags without
/// any cross-rank communication — a faulted world cannot run collectives.
template <typename TuningFn>
LegOutcome run_leg(Query query, int ranks, const vmpi::RunOptions& options,
                   const graph::Graph& g, TuningFn&& tuning_fn) {
  LegOutcome out;
  out.aborted.assign(static_cast<std::size_t>(ranks), 0);
  out.fault_what.resize(static_cast<std::size_t>(ranks));
  out.retransmits.assign(static_cast<std::size_t>(ranks), 0);
  out.gap_retransmits.assign(static_cast<std::size_t>(ranks), 0);
  out.nacks.assign(static_cast<std::size_t>(ranks), 0);
  out.dups.assign(static_cast<std::size_t>(ranks), 0);
  vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
    queries::QueryTuning tuning;
    tuning_fn(tuning);
    core::RunResult run;
    switch (query) {
      case Query::kSssp: {
        queries::SsspOptions opts;
        opts.sources = {0};
        opts.tuning = tuning;
        opts.collect_distances = true;
        auto r = run_sssp(comm, g, opts);
        run = r.run;
        if (comm.rank() == 0) out.rows = std::move(r.distances);
        break;
      }
      case Query::kCc: {
        queries::CcOptions opts;
        opts.tuning = tuning;
        opts.collect_labels = true;
        auto r = run_cc(comm, g, opts);
        run = r.run;
        if (comm.rank() == 0) out.rows = std::move(r.labels);
        break;
      }
      case Query::kTc: {
        queries::TcOptions opts;
        opts.tuning = tuning;
        opts.collect_pairs = true;
        auto r = run_tc(comm, g, opts);
        run = r.run;
        if (comm.rank() == 0) out.rows = std::move(r.pairs);
        break;
      }
    }
    const auto me = static_cast<std::size_t>(comm.rank());
    out.aborted[me] = run.aborted_fault ? 1 : 0;
    out.fault_what[me] = run.fault_what;
    if (comm.rank() == 0 && !run.aborted_fault) out.dominated = run.router.rows_dominated;
    out.retransmits[me] = comm.stats().retransmits;
    out.gap_retransmits[me] = comm.stats().retransmits_gap;
    out.nacks[me] = comm.stats().nacks_sent;
    out.dups[me] = comm.stats().reliable_dups_discarded;
  });
  return out;
}

LegOutcome run_leg(Query query, int ranks, const vmpi::RunOptions& options,
                   const graph::Graph& g) {
  return run_leg(query, ranks, options, g, [](queries::QueryTuning&) {});
}

/// Typed aborts must be unanimous: one rank detecting a fault poisons the
/// world, so a half-aborted outcome would mean some rank kept computing on
/// a dead world (or worse, hung).
void expect_unanimous(const LegOutcome& leg) {
  EXPECT_EQ(leg.any_aborted(), leg.all_aborted())
      << "fault abort was not unanimous across ranks";
}

TEST(FaultSweep, DropDupReorderAcrossQueriesAndRankCounts) {
  const auto g = sweep_graph();

  // Clean references, one per query (fixpoints are rank-count invariant,
  // so one reference serves both rank counts).
  std::vector<Tuple> reference[3];
  for (const Query q : {Query::kSssp, Query::kCc, Query::kTc}) {
    const auto leg = run_leg(q, 4, vmpi::RunOptions{}, g);
    ASSERT_FALSE(leg.any_aborted()) << query_name(q) << " clean run aborted";
    ASSERT_FALSE(leg.rows.empty());
    reference[static_cast<int>(q)] = leg.rows;
  }

  struct FaultKind {
    const char* name;
    vmpi::FaultPlan plan;
    bool expect_heal;  // drops must show retransmits > 0; dup/reorder need none
  };
  vmpi::FaultPlan drop;
  drop.seed = 41;
  drop.drop_prob = 0.02;
  vmpi::FaultPlan dup;
  dup.seed = 42;
  dup.dup_prob = 0.10;
  vmpi::FaultPlan reorder;
  reorder.seed = 43;
  reorder.delay_prob = 0.10;
  reorder.max_delay_msgs = 3;
  const FaultKind kinds[] = {
      {"drop", drop, /*expect_heal=*/true},
      {"dup", dup, /*expect_heal=*/false},
      {"reorder", reorder, /*expect_heal=*/false},
  };

  for (const auto& kind : kinds) {
    for (const Query q : {Query::kSssp, Query::kCc, Query::kTc}) {
      for (const int ranks : {4, 7}) {
        SCOPED_TRACE(std::string(kind.name) + " x " + query_name(q) + " x " +
                     std::to_string(ranks) + " ranks");
        vmpi::RunOptions options;
        options.fault = kind.plan;
        options.watchdog_seconds = kWatchdog;
        const auto leg = run_leg(q, ranks, options, g);
        expect_unanimous(leg);
        // Under the default retry budget every class heals or is absorbed:
        // the run completes and the fixpoint is bit-identical.  Drops must
        // really have exercised the ack/retransmit machinery.
        EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
        EXPECT_EQ(leg.rows, reference[static_cast<int>(q)]);
        if (kind.expect_heal) {
          EXPECT_GT(leg.total_retransmits(), 0u)
              << "drops healed without a single retransmit?";
        }
        // A bounded reorder never holds kDupThresh later frames ahead of a
        // late one at a service-pass boundary, so no gap NACK resends it.
        if (kind.plan.delay_prob > 0) {
          EXPECT_EQ(leg.total_gap_retransmits(), 0u) << "spurious gap retransmit";
        }
      }
    }
  }

  // retry=0: the channel checks every frame, and a drop starves into the
  // watchdog abort — a typed abort on every rank.
  for (const Query q : {Query::kSssp, Query::kCc, Query::kTc}) {
    SCOPED_TRACE(std::string("legacy drop x ") + query_name(q));
    auto options = legacy_options();
    options.fault = drop;
    options.watchdog_seconds = 2.0;  // abort arrives via timeout; keep it short
    const auto leg = run_leg(q, 4, options, g);
    expect_unanimous(leg);
    EXPECT_TRUE(leg.all_aborted());
    EXPECT_FALSE(leg.fault_what[0].empty());
    EXPECT_EQ(leg.total_retransmits(), 0u) << "legacy mode must never retransmit";
  }

  // retry=0 still absorbs duplication and reorder: the channel discards
  // duplicates by sequence and reorders delays, so BSP and async reach the
  // exact fixpoint.  A 1 ms backoff makes a retransmit timer firing on a
  // merely late frame visible as a retransmit (or an abort).
  for (const auto* kind : {&kinds[1], &kinds[2]}) {
    for (const Query q : {Query::kSssp, Query::kCc, Query::kTc}) {
      for (const bool use_async : {false, true}) {
        if (use_async && q != Query::kSssp) continue;
        SCOPED_TRACE(std::string("legacy ") + kind->name + " x " + query_name(q) +
                     (use_async ? " (async)" : " (bsp)"));
        auto options = legacy_options();
        options.retry.base_backoff = 0.001;
        options.fault = kind->plan;
        options.watchdog_seconds = kWatchdog;
        const auto leg = run_leg(q, 4, options, g, [&](queries::QueryTuning& t) {
          t.use_async = use_async;
        });
        EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
        EXPECT_EQ(leg.rows, reference[static_cast<int>(q)]);
        if (kind->plan.dup_prob > 0) {
          EXPECT_GT(leg.total_dups(), 0u) << "the injected duplicates were never caught";
        }
        EXPECT_EQ(leg.total_retransmits(), 0u) << "legacy mode must never retransmit";
      }
    }
  }
}

TEST(FaultSweep, CorruptFramesAbortTypedWithoutRetryBudget) {
  // Both router exchanges — the default dense alltoallv and the two-level
  // exchange (member->leader up-frames, the leaders' alltoallv,
  // leader->member down-frames) — ride the faultable mailbox path, so
  // every row frame carries the reliable channel's CRC envelope, empty
  // frames included.  With max_attempts = 0 a flipped byte is caught and NACKed,
  // and the NACK escalates at once: the abort is unanimous and typed,
  // never a retransmit and never a wrong fixpoint.
  const auto g = sweep_graph();
  struct Leg {
    const char* name;
    vmpi::Topology topology;
    core::ExchangeAlgorithm exchange;
  };
  const Leg legs[] = {
      {"dense", vmpi::Topology{}, core::ExchangeAlgorithm::kDense},
      {"hierarchical", vmpi::Topology::grouped(4, 2), core::ExchangeAlgorithm::kHierarchical},
  };
  for (const auto& cfg : legs) {
    SCOPED_TRACE(cfg.name);
    const auto tune = [&](queries::QueryTuning& t) { t.engine.exchange = cfg.exchange; };
    vmpi::RunOptions base;
    base.topology = cfg.topology;
    const auto clean = run_leg(Query::kSssp, 4, base, g, tune);
    ASSERT_FALSE(clean.any_aborted());

    auto options = legacy_options();
    options.topology = cfg.topology;
    options.fault.seed = 44;
    options.fault.corrupt_prob = 0.05;
    options.watchdog_seconds = kWatchdog;
    const auto leg = run_leg(Query::kSssp, 4, options, g, tune);
    expect_unanimous(leg);
    EXPECT_TRUE(leg.all_aborted());
    EXPECT_FALSE(leg.fault_what[0].empty());
    std::uint64_t nacks = 0;
    for (const auto n : leg.nacks) nacks += n;
    EXPECT_GT(nacks, 0u) << "the channel's CRC check never fired";
    EXPECT_EQ(leg.total_retransmits(), 0u) << "max_attempts = 0 must never retransmit";
  }
}

/// Rank `src`'s buffer for rank `dst` in wave `wave` of the relay leg:
/// 0-3 words, so some buffers are empty.
vmpi::Bytes relay_payload(int src, int dst, std::uint64_t wave) {
  vmpi::BufferWriter w;
  for (std::uint64_t i = 0; i < (static_cast<std::uint64_t>(src + dst) + wave) % 4; ++i) {
    w.put<std::uint64_t>(wave * 10000 + static_cast<std::uint64_t>(src * 100 + dst * 10) + i);
  }
  return w.take();
}

TEST(FaultSweep, BruckRelayHealsCorruptAndDropInjection) {
  // The Bruck dissemination relays other ranks' buffers inside its own
  // envelopes over the faultable mailbox path, so injection must reach it
  // — and the reliable channel must heal it: a dropped relay frame
  // retransmits, a flipped byte fails the envelope CRC and is NACKed back
  // for retransmission.  Either way every buffer arrives as sent.  With
  // retry disabled a dropped relay frame starves a round into a unanimous
  // typed abort.
  constexpr int kRanks = 4;
  struct Plan {
    std::uint64_t seed;
    double drop;
    double corrupt;
    std::uint32_t max_attempts;
  };
  for (const Plan p : {Plan{48, 0.10, 0, 5}, Plan{49, 0, 0.05, 5}, Plan{48, 0.10, 0, 0}}) {
    SCOPED_TRACE("seed " + std::to_string(p.seed) + " retry " +
                 std::to_string(p.max_attempts));
    vmpi::RunOptions options;
    options.fault.seed = p.seed;
    options.fault.drop_prob = p.drop;
    options.fault.corrupt_prob = p.corrupt;
    options.retry.max_attempts = p.max_attempts;
    options.watchdog_seconds = p.max_attempts > 0 ? kWatchdog : 2.0;
    LegOutcome leg;
    leg.aborted.assign(kRanks, 0);
    leg.fault_what.resize(kRanks);
    leg.retransmits.assign(kRanks, 0);
    vmpi::run(kRanks, options, [&](vmpi::Comm& comm) {
      const int me = comm.rank();
      try {
        for (std::uint64_t wave = 0; wave < 16; ++wave) {
          std::vector<vmpi::Bytes> send;
          for (int d = 0; d < kRanks; ++d) send.push_back(relay_payload(me, d, wave));
          const auto got = comm.alltoallv_bruck(std::move(send));
          for (int s = 0; s < kRanks; ++s) {
            EXPECT_EQ(got[static_cast<std::size_t>(s)], relay_payload(s, me, wave))
                << "wave " << wave << " from " << s;
          }
        }
      } catch (const vmpi::FaultError& e) {
        leg.aborted[static_cast<std::size_t>(me)] = 1;
        leg.fault_what[static_cast<std::size_t>(me)] = e.what();
      }
      leg.retransmits[static_cast<std::size_t>(me)] = comm.stats().retransmits;
    });
    if (p.max_attempts > 0) {
      EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
      EXPECT_GT(leg.total_retransmits(), 0u);
    } else {
      EXPECT_TRUE(leg.all_aborted());
      EXPECT_FALSE(leg.fault_what[0].empty());
      EXPECT_EQ(leg.total_retransmits(), 0u) << "max_attempts = 0 must never retransmit";
    }
  }
}

TEST(FaultSweep, FactLoadsStayOffTheChannelWhileRowFramesRideIt) {
  // The fault scope: a running engine's row frames ride the reliable
  // channel, one-shot moves such as fact loads do not.  Every frame on
  // edge 0->1 that reaches the faultable path vanishes and nothing heals
  // it, so a fact load on that path would starve into a watchdog timeout
  // thrown out of the load itself, past the engine's catch site.
  vmpi::RunOptions options = legacy_options();
  options.fault.seed = 52;
  options.fault.drop_prob = 1.0;
  options.fault.only_src = 0;
  options.fault.only_dst = 1;
  options.watchdog_seconds = 1.0;
  const auto g = sweep_graph();
  std::vector<std::uint64_t> dropped_by_load(4, 1), loaded(4, 0), aborted(4, 0);
  vmpi::run(4, options, [&](vmpi::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    core::Relation facts(comm, {.name = "facts", .arity = 2, .jcc = 1});
    std::vector<Tuple> slice;
    for (value_t i = 0; i < 64; ++i) slice.push_back(Tuple{me * 1000 + i, i});
    facts.load_facts(slice);
    dropped_by_load[me] = comm.stats().faults_dropped;
    loaded[me] = facts.global_size(core::Version::kFull);
    queries::SsspOptions opts;
    opts.sources = {0};
    aborted[me] = run_sssp(comm, g, opts).run.aborted_fault ? 1 : 0;
  });
  EXPECT_EQ(dropped_by_load, std::vector<std::uint64_t>(4, 0)) << "a fact-load frame was injected";
  EXPECT_EQ(loaded, std::vector<std::uint64_t>(4, 256));
  EXPECT_EQ(aborted, std::vector<std::uint64_t>(4, 1)) << "the row frames escaped the plan";
}

TEST(FaultSweep, HierarchicalExchangeHealsCorruptAndDropInjection) {
  // The two-level exchange moves tuples over three legs — member->leader
  // up-frames, the leaders-only mailbox alltoallv, and leader->member
  // down-frames — all on the faultable mailbox path, so all three legs
  // ride the reliable channel: a drop retransmits after backoff, a corrupt
  // byte is NACKed and resent, and the fixpoint stays bit-identical.  With
  // retry disabled a drop starves a blocking receive into the legacy
  // unanimous typed abort.
  const auto g = sweep_graph();
  const auto hier = [](queries::QueryTuning& t) {
    t.engine.exchange = core::ExchangeAlgorithm::kHierarchical;
  };
  vmpi::RunOptions base;
  base.topology = vmpi::Topology::grouped(4, 2);
  const auto clean = run_leg(Query::kSssp, 4, base, g, hier);
  ASSERT_FALSE(clean.any_aborted());
  ASSERT_FALSE(clean.rows.empty());

  {
    auto options = base;
    options.fault.seed = 50;
    options.fault.drop_prob = 0.02;
    options.watchdog_seconds = kWatchdog;
    const auto leg = run_leg(Query::kSssp, 4, options, g, hier);
    expect_unanimous(leg);
    EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
    EXPECT_EQ(leg.rows, clean.rows);
    EXPECT_GT(leg.total_retransmits(), 0u);
  }
  {
    auto options = base;
    options.fault.seed = 51;
    options.fault.corrupt_prob = 0.05;
    options.watchdog_seconds = kWatchdog;
    const auto leg = run_leg(Query::kSssp, 4, options, g, hier);
    expect_unanimous(leg);
    EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
    EXPECT_EQ(leg.rows, clean.rows);
    EXPECT_GT(leg.total_retransmits(), 0u);
  }
  {
    auto options = base;
    options.retry.max_attempts = 0;
    options.fault.seed = 50;
    options.fault.drop_prob = 0.02;
    options.watchdog_seconds = 2.0;
    const auto leg = run_leg(Query::kSssp, 4, options, g, hier);
    expect_unanimous(leg);
    EXPECT_TRUE(leg.all_aborted());
    EXPECT_FALSE(leg.fault_what[0].empty());
  }
}

TEST(FaultSweep, ScheduleReplaysExactlyFromSeed) {
  // Retry pinned off: retransmit timers fire on wall-clock backoff, so a
  // healing run's *physical* send schedule (and therefore its per-send
  // fault rolls) is timing-dependent.  The logical replay guarantee for
  // healing runs is covered by test_reliable's counter-determinism test;
  // here we pin the legacy transport and demand exact physical replay.
  const auto g = sweep_graph();
  auto options = legacy_options();
  options.fault.seed = 45;
  options.fault.dup_prob = 0.08;
  options.fault.delay_prob = 0.08;
  options.watchdog_seconds = kWatchdog;

  auto counters = [&](std::vector<vmpi::CommStats>& per_rank) {
    std::vector<Tuple> rows;
    vmpi::run_collect(
        4, options,
        [&](vmpi::Comm& comm) {
          queries::SsspOptions opts;
          opts.sources = {0};
          opts.collect_distances = true;
          auto r = run_sssp(comm, g, opts);
          ASSERT_FALSE(r.run.aborted_fault) << r.run.fault_what;
          if (comm.rank() == 0) rows = std::move(r.distances);
        },
        per_rank);
    return rows;
  };

  std::vector<vmpi::CommStats> first_stats;
  std::vector<vmpi::CommStats> second_stats;
  const auto first_rows = counters(first_stats);
  const auto second_rows = counters(second_stats);

  EXPECT_EQ(first_rows, second_rows);
  ASSERT_EQ(first_stats.size(), second_stats.size());
  std::uint64_t total_faults = 0;
  for (std::size_t r = 0; r < first_stats.size(); ++r) {
    // The BSP schedule is SPMD-deterministic, so the same seed must
    // reproduce the exact same fault decisions message for message.
    EXPECT_EQ(first_stats[r].faults_duplicated, second_stats[r].faults_duplicated);
    EXPECT_EQ(first_stats[r].faults_delayed, second_stats[r].faults_delayed);
    EXPECT_EQ(first_stats[r].dup_frames_discarded, second_stats[r].dup_frames_discarded);
    total_faults += first_stats[r].faults_duplicated + first_stats[r].faults_delayed;
  }
  EXPECT_GT(total_faults, 0u) << "fault plan injected nothing; the sweep tested nothing";
}

// ---- hang-free detection ----------------------------------------------------

TEST(Watchdog, InjectedRankDeathAbortsEveryPeerTyped) {
  const auto g = sweep_graph();
  vmpi::RunOptions options;
  options.fault.kill_rank = 1;
  options.fault.kill_epoch = 2;
  options.watchdog_seconds = kWatchdog;
  const auto leg = run_leg(Query::kSssp, 4, options, g);
  EXPECT_TRUE(leg.all_aborted());
  // The victim reports its injected death; peers report the starvation it
  // caused.  Both are typed (FaultError), so callers need one catch site.
  EXPECT_NE(leg.fault_what[1].find("injected death"), std::string::npos)
      << leg.fault_what[1];
}

TEST(Watchdog, StalledRankDelaysButDoesNotFailTheRun) {
  const auto g = sweep_graph();
  vmpi::RunOptions options;
  options.fault.stall_rank = 2;
  options.fault.stall_epoch = 1;
  options.fault.stall_seconds = 0.3;  // well under the watchdog
  options.watchdog_seconds = kWatchdog;
  const auto clean = run_leg(Query::kSssp, 4, vmpi::RunOptions{}, g);
  const auto leg = run_leg(Query::kSssp, 4, options, g);
  EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
  EXPECT_EQ(leg.rows, clean.rows);
}

TEST(Watchdog, BareRecvStarvationRaisesTimeoutWithStatsSnapshot) {
  vmpi::RunOptions options;
  options.watchdog_seconds = 0.4;
  EXPECT_THROW(
      vmpi::run(2, options,
                [&](vmpi::Comm& comm) {
                  if (comm.rank() == 0) {
                    try {
                      (void)comm.recv(1, 7);  // rank 1 never sends
                    } catch (const vmpi::TimeoutError& e) {
                      // Rank 1's own barrier watchdog may fire first and
                      // poison the world, so accept either recv flavour.
                      EXPECT_EQ(e.where.rfind("recv", 0), 0u) << e.where;
                      EXPECT_DOUBLE_EQ(e.deadline_seconds, 0.4);
                      throw;
                    }
                  } else {
                    // Poisoned by rank 0's timeout: the barrier must not
                    // hang.  Depending on who wakes us first we see the
                    // fault poisoning (TimeoutError) or the runtime's
                    // peer-abort (WorldAborted) — either is a typed,
                    // hang-free outcome.
                    EXPECT_ANY_THROW(comm.barrier());
                  }
                }),
      vmpi::TimeoutError);
}

TEST(Watchdog, PeerFaultDuringTheRunSummaryEndsTyped) {
  // The run summary after the last stratum is collective too.  A peer that
  // poisons the world while this rank waits there must end this rank's
  // run with a typed abort, not an exception out of the engine.  The
  // FaultPlan's kill and stall epochs fire only inside a loop, which every
  // rank leaves through a collective or token pass of the faulted one, so
  // the peer poisons the world directly; a program without strata makes
  // the summary the run's first collective.
  for (const bool use_async : {false, true}) {
    SCOPED_TRACE(use_async ? "async" : "bsp");
    vmpi::RunOptions options;
    options.watchdog_seconds = kWatchdog;
    std::vector<int> aborted(2, 0);
    vmpi::run(2, options, [&](vmpi::Comm& comm) {
      if (comm.rank() == 1) {
        comm.world().fault_abort();
        return;
      }
      core::Program program(comm);
      const auto run = use_async ? async::AsyncEngine(comm).run(program)
                                 : core::Engine(comm).run(program);
      aborted[0] = run.aborted_fault ? 1 : 0;
      EXPECT_FALSE(run.fault_what.empty());
    });
    EXPECT_EQ(aborted[0], 1);
  }
}

// ---- async engine under faults ---------------------------------------------

LegOutcome run_async(Query query, int ranks, const vmpi::RunOptions& options,
                     const graph::Graph& g) {
  return run_leg(query, ranks, options, g,
                 [](queries::QueryTuning& t) { t.use_async = true; });
}

/// Run SSSP and CC on the async engine under `plan` (default retry budget)
/// at 4 and 7 ranks: each must reach its fault-free fixpoint with the STAGE
/// dominance filter dropping rows, healing with retransmits when asked.
void expect_async_heals(const vmpi::FaultPlan& plan, bool expect_retransmits) {
  const auto g = sweep_graph();
  for (const Query q : {Query::kSssp, Query::kCc}) {
    const auto clean = run_async(q, 4, vmpi::RunOptions{}, g);
    ASSERT_FALSE(clean.any_aborted()) << clean.fault_what[0];
    for (const int ranks : {4, 7}) {
      SCOPED_TRACE(std::string(query_name(q)) + " at " + std::to_string(ranks) + " ranks");
      vmpi::RunOptions options;
      options.fault = plan;
      options.watchdog_seconds = kWatchdog;
      const auto leg = run_async(q, ranks, options, g);
      expect_unanimous(leg);
      EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
      EXPECT_EQ(leg.rows, clean.rows);
      // A row is dropped only against a value already queued for the same
      // owner, which the channel delivers exactly once, however late.
      EXPECT_GT(leg.dominated, 0u);
      if (expect_retransmits) {
        EXPECT_GT(leg.total_retransmits(), 0u);
      }
    }
  }
}

TEST(AsyncFaults, DupAndReorderReachBitIdenticalFixpoint) {
  // Injected duplicates must be invisible: the reliable channel drops
  // them before the Safra counters see them, so termination still fires
  // and the lattice fixpoint is exact.
  vmpi::FaultPlan plan;
  plan.seed = 46;
  plan.dup_prob = 0.10;
  plan.delay_prob = 0.10;
  expect_async_heals(plan, /*expect_retransmits=*/false);
}

TEST(AsyncFaults, DroppedDeltasHealToExactFixpoint) {
  // Async deltas and the Safra token ride the same reliable channel as
  // BSP frames: a dropped delta retransmits, the Safra counters stay
  // balanced, and termination fires on the bit-identical lattice
  // fixpoint — with real healing traffic on the wire.
  vmpi::FaultPlan plan;
  plan.seed = 47;
  plan.drop_prob = 0.05;
  expect_async_heals(plan, /*expect_retransmits=*/true);
}

TEST(AsyncFaults, CorruptDeltasHealToExactFixpoint) {
  // A corrupted frame is NACKed and resent; a row dropped against the
  // value it carried waits for the resend, never for a different answer.
  vmpi::FaultPlan plan;
  plan.seed = 49;
  plan.corrupt_prob = 0.05;
  expect_async_heals(plan, /*expect_retransmits=*/true);
}

TEST(AsyncFaults, LegacyDroppedDeltasStarveTerminationIntoTypedAbort) {
  const auto g = sweep_graph();
  auto options = legacy_options();
  options.fault.seed = 47;
  options.fault.drop_prob = 0.05;
  options.watchdog_seconds = 2.0;
  const auto leg = run_async(Query::kSssp, 4, options, g);
  expect_unanimous(leg);
  // With retry disabled, a dropped delta unbalances the Safra counters
  // forever: tokens keep circulating (so per-recv watchdogs see traffic)
  // but no app progress happens — the progress watchdog must turn that
  // livelock into a typed abort.
  EXPECT_TRUE(leg.all_aborted());
  EXPECT_FALSE(leg.fault_what[0].empty());
}

TEST(AsyncFaults, RankDeathStarvesTokenRingIntoTypedAbort) {
  const auto g = sweep_graph();
  vmpi::RunOptions options;
  options.fault.kill_rank = 2;
  options.fault.kill_epoch = 1;
  options.watchdog_seconds = 2.0;
  const auto leg = run_async(Query::kSssp, 4, options, g);
  EXPECT_TRUE(leg.all_aborted());
  EXPECT_NE(leg.fault_what[2].find("injected death"), std::string::npos)
      << leg.fault_what[2];
}

// ---- stale-synchronous mode under faults ------------------------------------
//
// SSP's exactly-once contract is precisely a fault-tolerance claim: the
// reliable channel discards injected duplicates, and the per-source epoch
// ledger absorbs bounded reorder *before* the fold, so every (source,
// epoch) partial is folded exactly once and the fixpoint stays
// bit-identical to the BSP oracle.  Without a retry budget drops still
// abort typed — a missing partial starves the epoch pipeline, never
// fabricates a wrong sum.

template <typename TuningFn>
LegOutcome run_pagerank_leg(int ranks, const vmpi::RunOptions& options,
                            const graph::Graph& g, TuningFn&& tuning_fn) {
  LegOutcome out;
  out.aborted.assign(static_cast<std::size_t>(ranks), 0);
  out.fault_what.resize(static_cast<std::size_t>(ranks));
  vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
    queries::PagerankOptions opts;
    opts.rounds = 6;
    opts.collect_ranks = true;
    tuning_fn(opts.tuning);
    auto r = run_pagerank(comm, g, opts);
    if (comm.rank() == 0) out.rows = std::move(r.ranks);
    const auto me = static_cast<std::size_t>(comm.rank());
    out.aborted[me] = r.run.aborted_fault ? 1 : 0;
    out.fault_what[me] = r.run.fault_what;
  });
  return out;
}

/// SSP SUM-reachability (walk counting, kRefresh $SUM) run directly on the
/// AsyncEngine so the per-rank exactly-once counters stay visible.
struct SspWalkOutcome {
  LegOutcome leg;
  std::vector<std::uint64_t> epochs_folded;     // per rank
  std::vector<std::uint64_t> partials_folded;   // per rank
  std::vector<std::uint64_t> wire_dups;         // per rank: reliable-layer discards
  [[nodiscard]] std::uint64_t wire_dups_total() const {
    std::uint64_t s = 0;
    for (const auto d : wire_dups) s += d;
    return s;
  }
};

SspWalkOutcome run_ssp_walk(int ranks, const vmpi::RunOptions& options,
                            const graph::Graph& g, std::size_t epochs) {
  SspWalkOutcome out;
  out.leg.aborted.assign(static_cast<std::size_t>(ranks), 0);
  out.leg.fault_what.resize(static_cast<std::size_t>(ranks));
  out.epochs_folded.assign(static_cast<std::size_t>(ranks), 0);
  out.partials_folded.assign(static_cast<std::size_t>(ranks), 0);
  out.wire_dups.assign(static_cast<std::size_t>(ranks), 0);
  out.leg.retransmits.assign(static_cast<std::size_t>(ranks), 0);
  out.leg.nacks.assign(static_cast<std::size_t>(ranks), 0);
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
    std::vector<Tuple> seeds;
    if (comm.rank() == 0) {
      seeds.push_back(Tuple{0});
      seeds.push_back(Tuple{1});
    }
    seed->load_facts(seeds);

    async::AsyncConfig cfg;
    cfg.ssp = true;
    cfg.ssp_staleness = 2;
    async::AsyncEngine engine(comm, cfg);
    const auto run = engine.run(program);

    const auto me = static_cast<std::size_t>(comm.rank());
    out.leg.aborted[me] = run.aborted_fault ? 1 : 0;
    out.leg.fault_what[me] = run.fault_what;
    const auto& ls = engine.loop_stats();
    out.epochs_folded[me] = ls.ssp_epochs;
    out.partials_folded[me] = ls.ssp_partials_folded;
    out.wire_dups[me] = comm.stats().reliable_dups_discarded;
    out.leg.retransmits[me] = comm.stats().retransmits;
    out.leg.nacks[me] = comm.stats().nacks_sent;
    if (!run.aborted_fault) {
      auto rows = paths->gather_to_root(0);
      if (comm.rank() == 0) out.leg.rows = std::move(rows);
    }
  });
  return out;
}

TEST(SspFaults, DupAndReorderReachBitIdenticalPagerank) {
  const auto g = sweep_graph();
  // BSP oracle: the fixpoint SSP must reproduce bit-for-bit.
  const auto oracle = run_pagerank_leg(4, vmpi::RunOptions{}, g,
                                       [](queries::QueryTuning&) {});
  ASSERT_FALSE(oracle.any_aborted());
  ASSERT_FALSE(oracle.rows.empty());

  for (const int ranks : {4, 7}) {
    SCOPED_TRACE("ssp pagerank dup+reorder at " + std::to_string(ranks) + " ranks");
    vmpi::RunOptions options;
    options.fault.seed = 48;
    options.fault.dup_prob = 0.10;
    options.fault.delay_prob = 0.10;
    options.watchdog_seconds = kWatchdog;
    const auto leg = run_pagerank_leg(ranks, options, g, [](queries::QueryTuning& t) {
      t.use_async = true;
      t.async.ssp = true;
      t.async.ssp_staleness = 2;
    });
    EXPECT_FALSE(leg.any_aborted()) << leg.fault_what[0];
    EXPECT_EQ(leg.rows, oracle.rows);
  }
}

TEST(SspFaults, DupAndReorderFoldEachSourceEpochExactlyOnce) {
  const auto g = sweep_graph();
  constexpr std::size_t kEpochs = 5;
  const auto clean = run_ssp_walk(4, vmpi::RunOptions{}, g, kEpochs);
  ASSERT_FALSE(clean.leg.any_aborted()) << clean.leg.fault_what[0];
  ASSERT_FALSE(clean.leg.rows.empty());

  for (const bool legacy : {false, true}) {
    for (const int ranks : {4, 7}) {
      SCOPED_TRACE(std::string(legacy ? "legacy" : "reliable") +
                   " ssp walk dup+reorder at " + std::to_string(ranks) + " ranks");
      vmpi::RunOptions options;
      if (legacy) options.retry.max_attempts = 0;
      options.fault.seed = 49;
      options.fault.dup_prob = 0.15;
      options.fault.delay_prob = 0.10;
      options.watchdog_seconds = kWatchdog;
      const auto out = run_ssp_walk(ranks, options, g, kEpochs);
      EXPECT_FALSE(out.leg.any_aborted()) << out.leg.fault_what[0];
      EXPECT_EQ(out.leg.rows, clean.leg.rows);  // $SUM survived duplication exactly

      for (int r = 0; r < ranks; ++r) {
        // The exactly-once invariant, per rank: every epoch folded once,
        // with exactly one partial per source rank — no matter what the
        // fault plan injected or which transport absorbed it.
        EXPECT_EQ(out.epochs_folded[static_cast<std::size_t>(r)], kEpochs) << "rank " << r;
        EXPECT_EQ(out.partials_folded[static_cast<std::size_t>(r)],
                  static_cast<std::uint64_t>(ranks) * kEpochs)
            << "rank " << r;
      }
      // In both modes the reliable channel's sequence dedup discards the
      // wire duplicates before the ledger sees them; it must really have
      // fired (otherwise this test proves nothing).
      EXPECT_GT(out.wire_dups_total(), 0u);
    }
  }
}

TEST(SspFaults, DroppedFramesHealToExactSums) {
  // SSP partials and probes ride the reliable channel too: a dropped
  // partial retransmits, the fold gate opens on schedule, and every epoch
  // still folds exactly once with the exact $SUM — healing must never
  // manufacture a duplicate fold.
  const auto g = sweep_graph();
  constexpr std::size_t kEpochs = 5;
  const auto clean = run_ssp_walk(4, vmpi::RunOptions{}, g, kEpochs);
  ASSERT_FALSE(clean.leg.any_aborted()) << clean.leg.fault_what[0];

  for (const int ranks : {4, 7}) {
    SCOPED_TRACE("ssp drop heal at " + std::to_string(ranks) + " ranks");
    vmpi::RunOptions options;
    options.fault.seed = 50;
    options.fault.drop_prob = 0.05;
    options.watchdog_seconds = kWatchdog;
    const auto out = run_ssp_walk(ranks, options, g, kEpochs);
    expect_unanimous(out.leg);
    EXPECT_FALSE(out.leg.any_aborted()) << out.leg.fault_what[0];
    EXPECT_EQ(out.leg.rows, clean.leg.rows);
    EXPECT_GT(out.leg.total_retransmits(), 0u);
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(out.epochs_folded[static_cast<std::size_t>(r)], kEpochs) << "rank " << r;
      EXPECT_EQ(out.partials_folded[static_cast<std::size_t>(r)],
                static_cast<std::uint64_t>(ranks) * kEpochs)
          << "rank " << r;
    }
  }
}

TEST(SspFaults, LegacyDroppedFramesStarveEpochPipelineIntoTypedAbort) {
  const auto g = sweep_graph();
  auto options = legacy_options();
  options.fault.seed = 50;
  options.fault.drop_prob = 0.05;
  options.watchdog_seconds = 2.0;
  const auto out = run_ssp_walk(4, options, g, /*epochs=*/5);
  expect_unanimous(out.leg);
  // With retry disabled, a dropped probe or partial leaves an epoch's
  // ledger permanently short: the fold gate never opens, tokens keep
  // circulating without app progress, and the progress watchdog must
  // convert the starved pipeline into a typed abort — never a partial
  // (wrong) sum.
  EXPECT_TRUE(out.leg.all_aborted());
  EXPECT_FALSE(out.leg.fault_what[0].empty());
}

// ---- checkpoint / restart ---------------------------------------------------

/// Kill a rank mid-run with checkpointing on, then resume from the
/// manifest at `resume_ranks` and compare against the clean fixpoint.
template <typename RunFn>
void kill_and_resume(const char* tag, const std::string& path, RunFn&& leg,
                     std::uint64_t kill_epoch) {
  // Clean reference at 4 ranks.
  std::vector<Tuple> reference;
  {
    queries::QueryTuning tuning;
    vmpi::run(4, [&](vmpi::Comm& comm) {
      auto rows = leg(comm, tuning);
      if (comm.rank() == 0) reference = std::move(rows);
    });
    ASSERT_FALSE(reference.empty()) << tag;
  }

  // Faulted run: checkpoint every iteration, kill rank 1 at `kill_epoch`.
  {
    vmpi::RunOptions options;
    options.fault.kill_rank = 1;
    options.fault.kill_epoch = kill_epoch;
    options.watchdog_seconds = kWatchdog;
    std::vector<int> aborted(4, 0);
    vmpi::run(4, options, [&](vmpi::Comm& comm) {
      queries::QueryTuning tuning;
      tuning.engine.checkpoint_every = 1;
      tuning.engine.checkpoint_path = path;
      (void)leg(comm, tuning);
      aborted[static_cast<std::size_t>(comm.rank())] = 1;  // returned, no hang
    });
    for (const int a : aborted) EXPECT_EQ(a, 1) << tag;
  }

  // Resume at the same and at a coprime rank count: both must finish the
  // run and land on the bit-identical fixpoint.
  for (const int ranks : {4, 7}) {
    SCOPED_TRACE(std::string(tag) + ": resume at " + std::to_string(ranks) + " ranks");
    queries::QueryTuning tuning;
    tuning.resume_manifest = path;
    std::vector<Tuple> resumed;
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      auto rows = leg(comm, tuning);
      if (comm.rank() == 0) resumed = std::move(rows);
    });
    EXPECT_EQ(resumed, reference);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestart, SsspKillAndResumeBitIdentical) {
  const auto g = graph::make_chain(48);
  kill_and_resume(
      "sssp", testing::TempDir() + "/paralagg_resume_sssp.bin",
      [&](vmpi::Comm& comm, const queries::QueryTuning& tuning) {
        queries::SsspOptions opts;
        opts.sources = {0};
        opts.tuning = tuning;
        opts.collect_distances = true;
        auto r = run_sssp(comm, g, opts);
        EXPECT_FALSE(r.run.aborted_fault && tuning.engine.checkpoint_every == 0);
        return std::move(r.distances);
      },
      /*kill_epoch=*/5);
}

TEST(CheckpointRestart, CcKillAndResumeBitIdentical) {
  const auto g = graph::make_chain(48);
  kill_and_resume(
      "cc", testing::TempDir() + "/paralagg_resume_cc.bin",
      [&](vmpi::Comm& comm, const queries::QueryTuning& tuning) {
        queries::CcOptions opts;
        opts.tuning = tuning;
        opts.collect_labels = true;
        auto r = run_cc(comm, g, opts);
        return std::move(r.labels);
      },
      /*kill_epoch=*/5);
}

TEST(CheckpointRestart, TcKillAndResumeBitIdentical) {
  const auto g = graph::make_chain(24);
  kill_and_resume(
      "tc", testing::TempDir() + "/paralagg_resume_tc.bin",
      [&](vmpi::Comm& comm, const queries::QueryTuning& tuning) {
        queries::TcOptions opts;
        opts.tuning = tuning;
        opts.collect_pairs = true;
        auto r = run_tc(comm, g, opts);
        return std::move(r.pairs);
      },
      /*kill_epoch=*/5);
}

TEST(CheckpointRestart, PagerankKillAndResumeBitIdentical) {
  const auto g = sweep_graph();
  kill_and_resume(
      "pagerank", testing::TempDir() + "/paralagg_resume_pagerank.bin",
      [&](vmpi::Comm& comm, const queries::QueryTuning& tuning) {
        queries::PagerankOptions opts;
        opts.rounds = 8;
        opts.tuning = tuning;
        opts.collect_ranks = true;
        auto r = run_pagerank(comm, g, opts);
        return std::move(r.ranks);
      },
      /*kill_epoch=*/4);
}

}  // namespace
}  // namespace paralagg
