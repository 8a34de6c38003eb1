// Self-healing transport: retransmit triggers, retry-budget escalation,
// healing-counter determinism, and serving batch rollback.
//
// The contract under test (DESIGN.md §14): the reliable channel heals
// injected drops and corruption by ack/retransmit within a bounded retry
// budget — a mid-stream drop on its receiver's gap NACK, a corrupt frame on
// its corrupt NACK, a dropped tail frame on the backoff timer; when the
// budget is exhausted the failure escalates to the typed abort on every
// rank (never a hang), with the healing counters in the error text; the
// counters themselves replay exactly from the fault seed; and a serving
// batch that aborts mid-flight rolls back to the pre-batch fixpoint and the
// engine keeps serving.

#include "vmpi/reliable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "queries/programs.hpp"
#include "queries/sssp.hpp"
#include "serving/serving_engine.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::Tuple;
using core::value_t;

constexpr double kWatchdog = 4.0;

// A tight budget keeps the exhaustion tests fast: 3 attempts at 10ms base
// backoff fail within ~150ms instead of the default policy's seconds.
vmpi::RetryPolicy tight_retry() {
  vmpi::RetryPolicy r;
  r.max_attempts = 3;
  r.base_backoff = 0.01;
  r.deadline = 2.0;
  return r;
}

// A timer that never fires within a test: base_backoff far beyond the
// watchdog, so any retransmit must have been NACK-triggered.
vmpi::RetryPolicy parked_timer() {
  vmpi::RetryPolicy r = tight_retry();
  r.base_backoff = 10.0;
  return r;
}

/// One directed-edge fault leg over bare vmpi: rank 1 sends `frames` frames
/// (frame i carries the word i) to rank 2, everyone meets at a barrier.
/// Under a total directed fault the sends can never be delivered intact;
/// the sender must exhaust its budget into a typed abort that poisons
/// every rank.  Under a single drop the counters show which trigger healed
/// it.
struct DirectedLeg {
  std::vector<int> aborted;
  std::vector<std::string> what;
  std::vector<vmpi::CommStats> stats;
  std::vector<std::uint64_t> received;  // rank 2's frames, in arrival order
  double wall_seconds = 0;
};

DirectedLeg run_directed_leg(const vmpi::FaultPlan& plan, const vmpi::RetryPolicy& retry,
                             std::uint64_t frames = 1, double watchdog = kWatchdog) {
  constexpr int kRanks = 3;
  DirectedLeg out;
  out.aborted.assign(kRanks, 0);
  out.what.resize(kRanks);
  out.stats.resize(kRanks);
  vmpi::RunOptions options;
  options.fault = plan;
  options.retry = retry;
  options.watchdog_seconds = watchdog;
  const auto t0 = std::chrono::steady_clock::now();
  vmpi::run(kRanks, options, [&](vmpi::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    try {
      for (std::uint64_t i = 0; i < frames; ++i) {
        if (comm.rank() == 1) {
          std::byte payload[sizeof i];
          std::memcpy(payload, &i, sizeof i);
          comm.isend(2, 7, payload);
        }
        if (comm.rank() == 2) {
          const auto got = comm.recv(1, 7);
          std::uint64_t v = 0;
          std::memcpy(&v, got.data(), std::min(got.size(), sizeof v));
          out.received.push_back(v);
        }
      }
      comm.barrier();
    } catch (const vmpi::FaultError& e) {
      out.aborted[me] = 1;
      out.what[me] = e.what();
    }
    out.stats[me] = comm.stats();
  });
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

/// The first seed under which, of the first `sends` physical sends on edge
/// 1->2, exactly the one numbered `dropped` is dropped.  fault_decide is a
/// pure function, so the chosen schedule replays exactly; scanning for it
/// keeps the case independent of any one hash constant.
vmpi::FaultPlan plan_dropping(std::uint64_t dropped, std::uint64_t sends) {
  vmpi::FaultPlan plan;
  plan.drop_prob = 0.25;
  plan.only_src = 1;
  plan.only_dst = 2;
  for (plan.seed = 1;; ++plan.seed) {
    bool match = true;
    for (std::uint64_t s = 0; s < sends && match; ++s) {
      const bool drop =
          vmpi::fault_decide(plan, 1, 2, s).action == vmpi::FaultAction::kDrop;
      match = drop == (s == dropped);
    }
    if (match) return plan;
  }
}

std::vector<std::uint64_t> iota_frames(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(Reliable, DirectedDropExhaustsRetryBudgetIntoTypedAbort) {
  // Every copy of edge 1->2 vanishes, including every retransmit: the
  // sender must burn exactly max_attempts retransmits (no NACKs — nothing
  // arrives to be NACKed) and then escalate to a typed abort everywhere.
  vmpi::FaultPlan plan;
  plan.seed = 61;
  plan.drop_prob = 1.0;
  plan.only_src = 1;
  plan.only_dst = 2;
  const auto retry = tight_retry();
  const auto leg = run_directed_leg(plan, retry);

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(leg.aborted[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
  EXPECT_EQ(leg.stats[1].retransmits, retry.max_attempts);
  EXPECT_EQ(leg.stats[1].retransmits_timer, retry.max_attempts);
  EXPECT_EQ(leg.stats[0].retransmits + leg.stats[2].retransmits, 0u);
  EXPECT_EQ(leg.stats[0].nacks_sent + leg.stats[1].nacks_sent + leg.stats[2].nacks_sent, 0u);
  // S1: the sender's abort names the edge and embeds the heal counters.
  EXPECT_NE(leg.what[1].find("reliable delivery to rank 2"), std::string::npos)
      << leg.what[1];
  EXPECT_NE(leg.what[1].find("healing attempted"), std::string::npos) << leg.what[1];
  EXPECT_NE(leg.what[1].find("retransmits"), std::string::npos) << leg.what[1];
}

TEST(Reliable, DirectedCorruptExhaustsBudgetWithNacksAndRepliesExactly) {
  // Every copy of edge 1->2 is corrupted: each arrival fails the envelope
  // CRC and bounces a corrupt NACK, each NACK triggers one retransmit of
  // the ring front (nothing is SACKed), and the budget caps the exchange at
  // max_attempts retransmits and max_attempts + 1 corrupt arrivals — all
  // deterministic from the seed.  The timer is parked so that no retransmit
  // can race a NACK: every one must be corrupt-triggered.
  vmpi::FaultPlan plan;
  plan.seed = 62;
  plan.corrupt_prob = 1.0;
  plan.only_src = 1;
  plan.only_dst = 2;
  const auto retry = parked_timer();

  const auto first = run_directed_leg(plan, retry);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(first.aborted[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
  EXPECT_EQ(first.stats[1].retransmits, retry.max_attempts);
  EXPECT_EQ(first.stats[1].retransmits_corrupt, retry.max_attempts);
  // Receiver NACKed the initial copy plus every retransmitted copy.
  EXPECT_EQ(first.stats[2].nacks_sent, static_cast<std::uint64_t>(retry.max_attempts) + 1);

  // S3: replaying the identical schedule reproduces the healing counters
  // bit-for-bit — the fault decisions and the budget arithmetic are both
  // pure functions of the seed.
  const auto second = run_directed_leg(plan, retry);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(first.stats[r].retransmits, second.stats[r].retransmits) << "rank " << r;
    EXPECT_EQ(first.stats[r].nacks_sent, second.stats[r].nacks_sent) << "rank " << r;
  }
  EXPECT_EQ(first.aborted, second.aborted);
}

TEST(Reliable, MidStreamDropHealsOnGapNackNotTimer) {
  // Frame 2 of 8 vanishes on edge 1->2 and the timer is parked at 10 s.
  // Frames 3..5 land beyond the hole, the receiver's gap NACK SACKs them,
  // and the sender resends frame 2 at once — one gap retransmit, no timer
  // and no corrupt one, long before the backoff (or the 4 s watchdog) could
  // fire.  Only the first copy is dropped: every other send, the resend
  // included, is delivered.
  constexpr std::uint64_t kFrames = 8;
  const auto plan = plan_dropping(/*dropped=*/2, /*sends=*/kFrames + 4);
  const auto leg = run_directed_leg(plan, parked_timer(), kFrames);

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(leg.aborted[static_cast<std::size_t>(r)], 0)
        << "rank " << r << ": " << leg.what[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(leg.stats[1].faults_dropped, 1u);
  EXPECT_EQ(leg.stats[1].retransmits, 1u);
  EXPECT_EQ(leg.stats[1].retransmits_gap, 1u);
  EXPECT_EQ(leg.stats[1].retransmits_timer, 0u);
  EXPECT_EQ(leg.stats[1].retransmits_corrupt, 0u);
  EXPECT_GE(leg.stats[2].nacks_sent, 1u);
  EXPECT_LT(leg.wall_seconds, 1.0) << "healed by the parked timer, not the gap NACK?";
  // Every frame reached the application exactly once.
  auto sorted = leg.received;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, iota_frames(kFrames));
}

TEST(Reliable, DroppedTailFrameHealsByTimerOnly) {
  // The last of 8 frames vanishes: nothing lands behind it, so the
  // receiver sees no gap and sends no NACK, and only the backoff timer can
  // heal it.
  constexpr std::uint64_t kFrames = 8;
  const auto plan = plan_dropping(/*dropped=*/kFrames - 1, /*sends=*/kFrames + 6);
  const auto leg = run_directed_leg(plan, vmpi::RetryPolicy{}, kFrames);

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(leg.aborted[static_cast<std::size_t>(r)], 0)
        << "rank " << r << ": " << leg.what[static_cast<std::size_t>(r)];
  }
  EXPECT_GE(leg.stats[1].retransmits_timer, 1u);
  EXPECT_EQ(leg.stats[1].retransmits, leg.stats[1].retransmits_timer);
  EXPECT_EQ(leg.stats[2].nacks_sent, 0u);
  EXPECT_EQ(leg.received, iota_frames(kFrames));
}

TEST(Reliable, NoGapNackAtZeroRetryBudget) {
  // The mid-stream drop above under max_attempts = 0: the channel still
  // sequences and SACKs, but sends no gap NACK and resends nothing, so the
  // hole starves the receiver into the watchdog's typed abort on every
  // rank.
  constexpr std::uint64_t kFrames = 8;
  const auto plan = plan_dropping(/*dropped=*/2, /*sends=*/kFrames + 4);
  vmpi::RetryPolicy fail_stop;
  fail_stop.max_attempts = 0;
  const auto leg = run_directed_leg(plan, fail_stop, kFrames, /*watchdog=*/1.0);

  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(leg.aborted[r], 1) << "rank " << r;
    EXPECT_EQ(leg.stats[r].nacks_sent, 0u) << "rank " << r;
    EXPECT_EQ(leg.stats[r].retransmits, 0u) << "rank " << r;
  }
  EXPECT_NE(leg.what[2].find("watchdog timeout"), std::string::npos) << leg.what[2];
}

// ---------------------------------------------------------------------------
// Serving under the reliable transport
// ---------------------------------------------------------------------------

/// From-scratch SSSP fixpoint — the oracle incremental serving must match.
std::vector<Tuple> fresh_sssp(const graph::Graph& g) {
  std::vector<Tuple> rows;
  vmpi::run(3, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = {0};
    opts.collect_distances = true;
    auto r = queries::run_sssp(comm, g, opts);
    if (comm.rank() == 0) rows = std::move(r.distances);
  });
  return rows;
}

/// This rank's share of one edge-relation batch.
serving::UpdateBatch edge_batch(const vmpi::Comm& comm, std::span<const Tuple> inserts,
                                std::span<const Tuple> deletes) {
  serving::RelationDelta d;
  d.relation = "edge";
  const auto n = static_cast<std::size_t>(comm.size());
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < inserts.size(); i += n) {
    d.inserts.push_back(inserts[i]);
  }
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < deletes.size(); i += n) {
    d.deletes.push_back(deletes[i]);
  }
  serving::UpdateBatch b;
  b.push_back(std::move(d));
  return b;
}

TEST(Reliable, ServingMutationFramesHealUnderDrop) {
  // Serving's own mutation traffic rides vmpi::exchange_rows' faultable
  // entry, so injected drops must be healed by
  // the reliable channel: the batch completes, the fixpoint matches the
  // from-scratch oracle, and real retransmits happened on the wire.
  const auto g = graph::make_chain(32, /*max_weight=*/3);
  const Tuple removed{g.edges[5].src, g.edges[5].dst, g.edges[5].weight};
  const std::vector<Tuple> inserts{Tuple{2, 20, 1}};
  const std::vector<Tuple> deletes{removed};

  graph::Graph mutated = g;
  std::erase(mutated.edges, graph::Edge{removed[0], removed[1], removed[2]});
  mutated.edges.push_back(graph::Edge{2, 20, 1});
  const auto oracle = fresh_sssp(mutated);

  vmpi::RunOptions options;
  options.fault.seed = 63;
  options.fault.drop_prob = 0.08;
  options.watchdog_seconds = kWatchdog;
  const int ranks = 4;
  std::vector<int> aborted(ranks, 1);
  std::vector<std::uint64_t> retransmits(ranks, 0);
  std::vector<std::vector<Tuple>> rows(ranks);
  vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    const auto res = srv.apply_updates(edge_batch(comm, inserts, deletes));
    const auto me = static_cast<std::size_t>(comm.rank());
    aborted[me] = res.aborted_fault ? 1 : 0;
    rows[me] = srv.lookup("spath", {});
    retransmits[me] = comm.stats().retransmits;
  });

  std::uint64_t total_retransmits = 0;
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(aborted[static_cast<std::size_t>(r)], 0) << "rank " << r;
    EXPECT_EQ(rows[static_cast<std::size_t>(r)], oracle) << "rank " << r;
    total_retransmits += retransmits[static_cast<std::size_t>(r)];
  }
  EXPECT_GT(total_retransmits, 0u) << "drops healed without a single retransmit?";
}

TEST(Reliable, KilledRankDuringBatchRollsBackAndKeepsServing) {
  // A rank killed mid-batch aborts the batch on every rank; with rollback
  // enabled the batch is undone (typed UpdateResult, rolled_back set), the
  // pre-batch fixpoint still answers lookups, and — the kill being
  // one-shot — re-applying the same batch succeeds and converges to the
  // oracle.  Graceful degradation instead of a dead service.
  const auto g = graph::make_chain(48, /*max_weight=*/1);
  const Tuple reweighted{g.edges[10].src, g.edges[10].dst, g.edges[10].weight};
  const std::vector<Tuple> inserts{Tuple{reweighted[0], reweighted[1], reweighted[2] + 1}};
  const std::vector<Tuple> deletes{reweighted};

  graph::Graph mutated = g;
  std::erase(mutated.edges, graph::Edge{reweighted[0], reweighted[1], reweighted[2]});
  mutated.edges.push_back(graph::Edge{inserts[0][0], inserts[0][1], inserts[0][2]});
  const auto oracle = fresh_sssp(mutated);
  const auto pre_batch = fresh_sssp(g);

  // Measuring leg: locate the batch tail on the epoch axis.
  std::size_t start_iters = 0, tail = 0;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    const auto rr = srv.start();
    const auto res = srv.apply_updates(edge_batch(comm, inserts, deletes));
    if (comm.rank() == 0) {
      start_iters = rr.total_iterations;
      tail = res.tail_iterations;
    }
  });
  ASSERT_GE(tail, 8u) << "batch tail too short to land a kill in reliably";

  const int ranks = 4;
  vmpi::RunOptions options;
  options.fault.kill_rank = 1;
  options.fault.kill_epoch = static_cast<std::uint64_t>(start_iters + tail / 2);
  options.watchdog_seconds = kWatchdog;
  std::vector<int> first_aborted(ranks, 0);
  std::vector<int> first_rolled_back(ranks, 0);
  std::vector<int> second_aborted(ranks, 1);
  std::vector<std::vector<Tuple>> between(ranks);
  std::vector<std::vector<Tuple>> after(ranks);
  vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    const auto me = static_cast<std::size_t>(comm.rank());

    const auto res = srv.apply_updates(edge_batch(comm, inserts, deletes));
    first_aborted[me] = res.aborted_fault ? 1 : 0;
    first_rolled_back[me] = res.rolled_back ? 1 : 0;
    if (!res.rolled_back) return;  // engine stopped serving; test will fail below

    // The rolled-back service still answers, at the pre-batch fixpoint.
    between[me] = srv.lookup("spath", {});

    // The kill was one-shot; the retry must go through cleanly.
    const auto res2 = srv.apply_updates(edge_batch(comm, inserts, deletes));
    second_aborted[me] = res2.aborted_fault ? 1 : 0;
    after[me] = srv.lookup("spath", {});
  });

  for (int r = 0; r < ranks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(first_aborted[static_cast<std::size_t>(r)], 1);
    EXPECT_EQ(first_rolled_back[static_cast<std::size_t>(r)], 1);
    EXPECT_EQ(between[static_cast<std::size_t>(r)], pre_batch);
    EXPECT_EQ(second_aborted[static_cast<std::size_t>(r)], 0);
    EXPECT_EQ(after[static_cast<std::size_t>(r)], oracle);
  }
}

}  // namespace
}  // namespace paralagg
