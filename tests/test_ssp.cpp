// Stale-synchronous mode harness: bounded-round Jacobi strata (PageRank,
// SUM-reachability walk counts) run under the epoch-pipelined exactly-once
// protocol and must reach fixpoints BIT-IDENTICAL to the BSP core::Engine's
// — across rank counts and every staleness window, including the honest
// lockstep s = 0.  Plus the structural invariants the protocol promises:
// each (source, epoch) partial folds exactly once, the loop stays
// collective-free, and quiescence consumes every send.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "async/async_engine.hpp"
#include "queries/pagerank.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::Expr;
using queries::Tuple;

// SUM-reachability as walk counting: paths(y, $SUM(c)) counts directed
// walks from a seed set, refreshed each epoch (Jacobi shape):
//
//   paths(s, 1)        <- seed(s).                       [re-injected base]
//   paths(y, $SUM(c))  <- paths(x, c), edge(x, y).       [K epochs]
//
// Values can exceed 64 bits for large K; u64 wraparound is deterministic
// and identical on both engines, so bit-identity still holds.
struct WalkProgram {
  core::Relation* edge;
  core::Relation* seed;
  core::Relation* paths;
};

WalkProgram build_walk_program(core::Program& program, std::size_t epochs) {
  WalkProgram p{};
  p.edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
  p.seed = program.relation({.name = "seed", .arity = 1, .jcc = 1});
  p.paths = program.relation({.name = "paths",
                              .arity = 2,
                              .jcc = 1,
                              .dep_arity = 1,
                              .aggregator = core::make_sum_aggregator(),
                              .agg_mode = core::AggMode::kRefresh});
  auto& s = program.stratum();
  s.fixpoint = false;
  s.max_rounds = epochs;
  s.loop_rules.push_back(core::CopyRule{
      .src = p.seed,
      .version = core::Version::kFull,
      .out = {.target = p.paths, .cols = {Expr::col_a(0), Expr::constant(1)}},
  });
  s.loop_rules.push_back(core::JoinRule{
      .a = p.paths,
      .a_version = core::Version::kFull,
      .b = p.edge,
      .b_version = core::Version::kFull,
      .out = {.target = p.paths, .cols = {Expr::col_b(1), Expr::col_a(1)}},
  });
  return p;
}

void load_walk_facts(vmpi::Comm& comm, const WalkProgram& p, const graph::Graph& g,
                     const std::vector<core::value_t>& sources) {
  p.edge->load_facts(queries::edge_slice(comm, g, /*weighted=*/false));
  std::vector<Tuple> seeds;
  if (comm.rank() == 0) {
    for (const core::value_t s : sources) seeds.push_back(Tuple{s});
  }
  p.seed->load_facts(seeds);
}

TEST(SspEquivalence, PagerankBitIdenticalToBspAcrossRanksAndStaleness) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 41});

  // BSP oracle at 4 ranks.
  std::vector<Tuple> reference;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::PagerankOptions opts;
    opts.rounds = 8;
    opts.collect_ranks = true;
    const auto r = run_pagerank(comm, g, opts);
    if (comm.rank() == 0) reference = r.ranks;
  });
  ASSERT_FALSE(reference.empty());

  for (const int ranks : {4, 7}) {
    for (const std::size_t s : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      vmpi::run(ranks, [&](vmpi::Comm& comm) {
        queries::PagerankOptions opts;
        opts.rounds = 8;
        opts.collect_ranks = true;
        opts.tuning.use_async = true;
        opts.tuning.async.ssp = true;
        opts.tuning.async.ssp_staleness = s;
        const auto r = run_pagerank(comm, g, opts);
        EXPECT_EQ(r.rounds, 8u) << "ranks=" << ranks << " s=" << s;
        EXPECT_EQ(r.ranked_nodes, g.num_nodes) << "ranks=" << ranks << " s=" << s;
        // SUM under kRefresh re-folds every partial: nothing is dominated.
        EXPECT_EQ(r.run.router.rows_dominated, 0u) << "ranks=" << ranks << " s=" << s;
        if (comm.rank() == 0) {
          EXPECT_EQ(r.ranks, reference) << "ranks=" << ranks << " s=" << s;
        }
      });
    }
  }
}

TEST(SspEquivalence, SumReachabilityWalkCountsBitIdentical) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 42});
  const auto sources = g.pick_sources(3);
  constexpr std::size_t kEpochs = 6;

  std::vector<Tuple> reference;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    const auto p = build_walk_program(program, kEpochs);
    load_walk_facts(comm, p, g, sources);
    run_engine(comm, program, queries::QueryTuning{});  // BSP
    const auto gathered = p.paths->gather_to_root(0);
    if (comm.rank() == 0) reference = gathered;
  });
  ASSERT_FALSE(reference.empty());

  for (const int ranks : {4, 7}) {
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      core::Program program(comm);
      const auto p = build_walk_program(program, kEpochs);
      load_walk_facts(comm, p, g, sources);
      queries::QueryTuning tuning;
      tuning.use_async = true;
      tuning.async.ssp = true;
      run_engine(comm, program, tuning);
      const auto gathered = p.paths->gather_to_root(0);
      if (comm.rank() == 0) {
        EXPECT_EQ(gathered, reference) << "ranks=" << ranks;
      }
    });
  }
}

// Direct-engine run: the exactly-once ledger invariants.  Every rank folds
// every epoch once; every epoch folds one partial frame per source rank —
// no more (duplicates would inflate $SUM), no fewer (the fold gate waits
// for all of them).  And the loop itself stays collective-free.
TEST(SspEngine, FoldCountsAreExactlyOncePerSourceEpoch) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 43});
  const auto sources = g.pick_sources(2);
  constexpr std::size_t kEpochs = 5;
  constexpr int kRanks = 4;
  vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    const auto p = build_walk_program(program, kEpochs);
    load_walk_facts(comm, p, g, sources);

    async::AsyncConfig cfg;
    cfg.ssp = true;
    async::AsyncEngine engine(comm, cfg);
    const auto run = engine.run(program);
    EXPECT_TRUE(run.strata.at(0).reached_fixpoint);
    EXPECT_GT(p.paths->global_size(core::Version::kFull), sources.size());

    const auto& ls = engine.loop_stats();
    EXPECT_EQ(ls.ssp_epochs, kEpochs);
    EXPECT_EQ(ls.ssp_partials_folded, static_cast<std::uint64_t>(kRanks) * kEpochs);
    EXPECT_EQ(ls.collective_calls_in_loop, 0u);

    const auto total_sent =
        comm.allreduce<std::uint64_t>(ls.messages_sent, vmpi::ReduceOp::kSum);
    const auto total_recv =
        comm.allreduce<std::uint64_t>(ls.messages_received, vmpi::ReduceOp::kSum);
    EXPECT_GT(total_sent, 0u);
    EXPECT_EQ(total_recv, total_sent);  // quiescence = every send consumed
  });
}

// Degenerate ring: one rank, nobody to exchange watermarks with.  The
// single-rank termination shortcut must still wait for the local watermark
// to reach the required epoch count.
TEST(SspEngine, SingleRankDegenerateRing) {
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 3, .seed = 44});
  const auto sources = g.pick_sources(2);
  constexpr std::size_t kEpochs = 4;
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    const auto p = build_walk_program(program, kEpochs);
    load_walk_facts(comm, p, g, sources);

    async::AsyncConfig cfg;
    cfg.ssp = true;
    cfg.ssp_staleness = 0;  // lockstep is trivially satisfied alone
    async::AsyncEngine engine(comm, cfg);
    engine.run(program);
    const auto& ls = engine.loop_stats();
    EXPECT_EQ(ls.ssp_epochs, kEpochs);
    EXPECT_EQ(ls.ssp_partials_folded, kEpochs);  // 1 source rank per epoch
  });
}

// The staleness window is flow control, not semantics: exercised directly
// (not through the query wrappers) so the per-rank stats stay visible.
TEST(SspEngine, StalenessWindowDoesNotChangeFoldCounts) {
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 3, .seed = 45});
  const auto sources = g.pick_sources(2);
  constexpr std::size_t kEpochs = 6;
  constexpr int kRanks = 3;
  std::vector<Tuple> reference;
  bool have_reference = false;
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    vmpi::run(kRanks, [&](vmpi::Comm& comm) {
      core::Program program(comm);
      const auto p = build_walk_program(program, kEpochs);
      load_walk_facts(comm, p, g, sources);
      async::AsyncConfig cfg;
      cfg.ssp = true;
      cfg.ssp_staleness = s;
      async::AsyncEngine engine(comm, cfg);
      engine.run(program);
      const auto& ls = engine.loop_stats();
      EXPECT_EQ(ls.ssp_epochs, kEpochs) << "s=" << s;
      EXPECT_EQ(ls.ssp_partials_folded, static_cast<std::uint64_t>(kRanks) * kEpochs)
          << "s=" << s;
      const auto gathered = p.paths->gather_to_root(0);
      if (comm.rank() == 0) {
        if (!have_reference) {
          reference = gathered;
        } else {
          EXPECT_EQ(gathered, reference) << "s=" << s;
        }
      }
    });
    have_reference = true;
  }
  EXPECT_FALSE(reference.empty());
}

}  // namespace
}  // namespace paralagg
