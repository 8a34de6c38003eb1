// AsyncEngine equivalence harness: the asynchronous schedule delivers
// deltas stale and out of order, but because every supported aggregate is
// an idempotent semilattice join the fixpoint must be BIT-IDENTICAL to the
// BSP core::Engine's — across rank counts, eager-send batch sizes, and
// sub-bucket layouts.  Plus the negative space: programs the async
// schedule cannot run soundly must be rejected up front with a clear
// diagnostic.

#include "async/async_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/shipped_run.hpp"
#include "queries/cc.hpp"
#include "queries/pagerank.hpp"
#include "queries/programs.hpp"
#include "queries/sssp.hpp"
#include "queries/tc.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::Expr;
using core::value_t;
using queries::Tuple;

// A batch no buffer reaches: every row waits for the per-round flush.
constexpr std::size_t kNeverEager = std::size_t{1} << 40;
// One frame per row, a batch no frontier divides evenly, the default eager
// one and the flush-only batch.
const std::size_t kBatches[] = {1, 7, 128, kNeverEager};

TEST(AsyncEquivalence, SsspBitIdenticalAcrossRanksAndRouting) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 31});
  const auto sources = g.pick_sources(3);

  // BSP reference at 4 ranks.
  std::vector<Tuple> reference;
  std::uint64_t ref_paths = 0;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = sources;
    opts.collect_distances = true;
    const auto r = run_sssp(comm, g, opts);
    if (comm.rank() == 0) {
      reference = r.distances;
      ref_paths = r.path_count;
    }
  });
  ASSERT_FALSE(reference.empty());

  for (int ranks = 1; ranks <= 7; ++ranks) {
    for (const std::size_t batch : kBatches) {
      vmpi::run(ranks, [&](vmpi::Comm& comm) {
        queries::SsspOptions opts;
        opts.sources = sources;
        opts.collect_distances = true;
        opts.tuning.use_async = true;
        opts.tuning.async.batch_rows = batch;
        const auto r = run_sssp(comm, g, opts);
        if (comm.rank() == 0) {
          EXPECT_EQ(r.path_count, ref_paths) << "ranks=" << ranks << " batch=" << batch;
          EXPECT_EQ(r.distances, reference) << "ranks=" << ranks << " batch=" << batch;
          // The STAGE filter dropped repeats the owner already absorbs
          // (RunResult::router is summed over ranks).
          if (ranks > 1) {
            EXPECT_GT(r.run.router.rows_dominated, 0u)
                << "ranks=" << ranks << " batch=" << batch;
          }
        }
      });
    }
  }
}

TEST(AsyncEquivalence, CcBitIdenticalIncludingSubBuckets) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 4, .seed = 32});

  std::vector<Tuple> reference;
  std::uint64_t ref_components = 0;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::CcOptions opts;
    opts.collect_labels = true;
    const auto r = run_cc(comm, g, opts);
    if (comm.rank() == 0) {
      reference = r.labels;
      ref_components = r.component_count;
    }
  });
  ASSERT_FALSE(reference.empty());

  for (int ranks = 1; ranks <= 7; ++ranks) {
    for (const std::size_t batch : kBatches) {
      for (const int sub : {1, 4}) {  // 4: a sub-bucketed static side
        vmpi::run(ranks, [&](vmpi::Comm& comm) {
          queries::CcOptions opts;
          opts.collect_labels = true;
          opts.tuning.edge_sub_buckets = sub;
          opts.tuning.use_async = true;
          opts.tuning.async.batch_rows = batch;
          const auto r = run_cc(comm, g, opts);
          if (comm.rank() == 0) {
            EXPECT_EQ(r.component_count, ref_components)
                << "ranks=" << ranks << " sub=" << sub << " batch=" << batch;
            EXPECT_EQ(r.labels, reference)
                << "ranks=" << ranks << " sub=" << sub << " batch=" << batch;
          }
        });
      }
    }
  }
}

TEST(AsyncEquivalence, TcBitIdenticalAcrossRanks) {
  // Plain Datalog (set semantics, no aggregate) — idempotence is trivial.
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 3, .seed = 33});

  std::vector<Tuple> reference;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::TcOptions opts;
    opts.collect_pairs = true;
    const auto r = run_tc(comm, g, opts);
    if (comm.rank() == 0) reference = r.pairs;
  });
  ASSERT_FALSE(reference.empty());

  for (const int ranks : {2, 5}) {
    for (const std::size_t batch : kBatches) {
      vmpi::run(ranks, [&](vmpi::Comm& comm) {
        queries::TcOptions opts;
        opts.collect_pairs = true;
        opts.tuning.use_async = true;
        opts.tuning.async.batch_rows = batch;
        const auto r = run_tc(comm, g, opts);
        if (comm.rank() == 0) {
          EXPECT_EQ(r.pairs, reference) << "ranks=" << ranks << " batch=" << batch;
          // A plain target has no lattice to absorb a repeat.
          EXPECT_EQ(r.run.router.rows_dominated, 0u) << "ranks=" << ranks;
        }
      });
    }
  }
}

TEST(AsyncEquivalence, BatchSizeDoesNotChangeAnswers) {
  const auto g = graph::make_grid(8, 8, 7, 34);
  std::vector<Tuple> reference;
  bool have_reference = false;
  for (const std::size_t batch : {1, 128, 16, 4096}) {
    vmpi::run(3, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = {0};
      opts.collect_distances = true;
      opts.tuning.use_async = true;
      opts.tuning.async.batch_rows = batch;
      const auto r = run_sssp(comm, g, opts);
      if (comm.rank() == 0) {
        if (!have_reference) {
          reference = r.distances;
        } else {
          EXPECT_EQ(r.distances, reference) << "batch=" << batch;
        }
      }
    });
    have_reference = true;
  }
  EXPECT_FALSE(reference.empty());
}

TEST(AsyncEngine, HugeBatchBuffersRowsUntilTheRoundFlush) {
  // The eager-send test must not multiply batch_rows by the arity: 2^63
  // rows of CC's arity-2 relations wrapped that product to 0, and every
  // row then shipped as a frame of its own.
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 39});
  vmpi::run(2, [&](vmpi::Comm& comm) {
    auto p = queries::build_cc_program(comm);
    queries::load_cc_facts(p, g);
    async::AsyncConfig cfg;
    cfg.batch_rows = std::size_t{1} << 63;
    async::AsyncEngine engine(comm, cfg);
    (void)engine.run(*p.program);
    const auto& ls = engine.loop_stats();
    const auto sum = [&](std::uint64_t v) {
      return comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kSum);
    };
    const auto messages = sum(ls.messages_sent);
    const auto rows = sum(ls.stage_rows_sent + ls.probe_rows_sent);
    EXPECT_GT(messages, 0u);
    EXPECT_LT(messages, rows);
  });
}

// Direct-engine run (the query wrappers hide loop_stats): a small SSSP so
// we can assert the structural claims — the recursive loop really ran with
// no collective calls, and multi-rank progress really was point-to-point.
TEST(AsyncEngine, LoopIsCollectiveFreeAndPointToPoint) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 35});
  const auto sources = g.pick_sources(2);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
    auto* spath = program.relation({.name = "spath",
                                    .arity = 3,
                                    .jcc = 1,
                                    .dep_arity = 1,
                                    .aggregator = core::make_min_aggregator()});
    auto& stratum = program.stratum();
    stratum.loop_rules.push_back(core::JoinRule{
        .a = spath,
        .a_version = core::Version::kDelta,
        .b = edge,
        .b_version = core::Version::kFull,
        .out = {.target = spath,
                .cols = {Expr::col_b(1), Expr::col_a(1),
                         Expr::add(Expr::col_a(2), Expr::col_b(2))}},
    });
    edge->load_facts(queries::edge_slice(comm, g, /*weighted=*/true));
    std::vector<Tuple> seeds;
    if (comm.rank() == 0) {
      for (core::value_t s : sources) seeds.push_back(Tuple{s, s, 0});
    }
    spath->load_facts(seeds);

    async::AsyncEngine engine(comm);
    const auto run = engine.run(program);
    EXPECT_TRUE(run.strata.at(0).reached_fixpoint);
    EXPECT_GT(spath->global_size(core::Version::kFull), sources.size());

    const auto& ls = engine.loop_stats();
    EXPECT_EQ(ls.collective_calls_in_loop, 0u);
    // Work happened somewhere, and crossing ranks took real p2p messages.
    const auto total_rounds = comm.allreduce<std::uint64_t>(ls.rounds, vmpi::ReduceOp::kSum);
    const auto total_sent =
        comm.allreduce<std::uint64_t>(ls.messages_sent, vmpi::ReduceOp::kSum);
    const auto total_recv =
        comm.allreduce<std::uint64_t>(ls.messages_received, vmpi::ReduceOp::kSum);
    EXPECT_GT(total_rounds, 0u);
    EXPECT_GT(total_sent, 0u);
    EXPECT_EQ(total_recv, total_sent);  // quiescence = every send consumed
    EXPECT_GT(comm.allreduce<std::uint64_t>(ls.token_probes, vmpi::ReduceOp::kSum), 0u);

    // The loop joins through core::LocalJoin, and the run reports its
    // counters like the BSP engine does: summed over ranks, identical on
    // every rank.  Their values vary with message order, so none is pinned.
    EXPECT_GT(run.kernel.probes, 0u);
    EXPECT_GT(run.kernel.matches, 0u);
    for (const std::uint64_t v : {run.kernel.probes, run.kernel.matches}) {
      EXPECT_EQ(comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kMax),
                comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kMin));
    }

    // Every row the loop emitted (one per kernel match; the program has no
    // init rules) was staged locally, sent, or dropped by the STAGE filter,
    // and RunResult::router reports the sent and dropped rows.
    const auto sum = [&](std::uint64_t v) {
      return comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kSum);
    };
    const auto loopback = sum(ls.rows_loopback);
    const auto sent = sum(ls.stage_rows_sent);
    const auto dominated = sum(ls.stage_rows_dominated);
    EXPECT_EQ(run.kernel.matches, loopback + sent + dominated);
    EXPECT_EQ(run.router.rows_sent, sent);
    EXPECT_EQ(run.router.rows_dominated, dominated);
    EXPECT_GT(dominated, 0u);
  });
}

/// best(dst, v + w) :- best_delta(src, v), edge(src, dst, w) under MAX on 2
/// ranks.  Node 0 reaches each of `keys` nodes over weights 1, 2 and 3, so
/// its owner (A) sends every key the peer owns three ascending values: two
/// key hits per key, none dominated.  One of those keys (on the peer) leads
/// to a node `hub` on A, whose delta makes A send every key a value of at
/// most 3 again in a later round — rows a live filter drops.  Returns the
/// loop stats summed over ranks; `rows` gets the gathered fixpoint (rank 0)
/// and `remote_keys` the keys A sends.
async::AsyncLoopStats run_max_fanout(value_t keys, bool use_async, std::vector<Tuple>& rows,
                                     std::uint64_t& remote_keys) {
  async::AsyncLoopStats total;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
    auto* best = program.relation({.name = "best",
                                   .arity = 2,
                                   .jcc = 1,
                                   .dep_arity = 1,
                                   .aggregator = core::make_max_aggregator()});
    program.stratum().loop_rules.push_back(core::JoinRule{
        .a = best,
        .a_version = core::Version::kDelta,
        .b = edge,
        .b_version = core::Version::kFull,
        .out = {.target = best,
                .cols = {Expr::col_b(1), Expr::add(Expr::col_a(1), Expr::col_b(2))}},
    });
    const auto owner = [&](value_t k) { return best->owner_rank(Tuple{k, 0}.view()); };
    const int a = owner(0);
    value_t hub = keys + 1;
    while (owner(hub) != a) ++hub;
    value_t bridge = 1;
    while (owner(bridge) == a) ++bridge;
    std::vector<Tuple> edges, seeds;
    std::uint64_t theirs = 0;
    if (comm.rank() == 0) {
      for (value_t k = 1; k <= keys; ++k) {
        for (value_t w = 1; w <= 3; ++w) edges.push_back(Tuple{0, k, w});
        edges.push_back(Tuple{hub, k, 0});
        if (owner(k) != a) ++theirs;
      }
      edges.push_back(Tuple{bridge, hub, 0});
      seeds.push_back(Tuple{0, 0});
    }
    edge->load_facts(edges);
    best->load_facts(seeds);
    if (use_async) {
      async::AsyncEngine engine(comm);
      EXPECT_FALSE(engine.run(program).aborted_fault);
      const auto& ls = engine.loop_stats();
      const auto sum = [&](std::uint64_t v) {
        return comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kSum);
      };
      const auto sent = sum(ls.stage_rows_sent);
      const auto dominated = sum(ls.stage_rows_dominated);
      const auto released = sum(ls.filters_released);
      if (comm.rank() == 0) {
        total.stage_rows_sent = sent;
        total.stage_rows_dominated = dominated;
        total.filters_released = released;
      }
    } else {
      core::Engine engine(comm);
      EXPECT_FALSE(engine.run(program).aborted_fault);
    }
    auto got = best->gather_to_root(0);
    if (comm.rank() == 0) {
      rows = std::move(got);
      remote_keys = theirs;
    }
  });
  return total;
}

TEST(AsyncEquivalence, LowYieldFilterIsReleasedAndAnswersStayExact) {
  // 1024 keys: about 1k hits, below kReleaseMinHits, so the filter stays
  // live and drops A's later repeats.  8192 keys: about 8k hits, none
  // dominated, so A releases the target at the end of its first round and
  // ships the repeats.  Both reach the BSP fixpoint.
  static_assert(core::DominanceFilter::kReleaseMinHits == 4096);
  for (const value_t keys : {value_t{1024}, value_t{8192}}) {
    SCOPED_TRACE("keys=" + std::to_string(keys));
    std::vector<Tuple> reference, got;
    std::uint64_t remote_keys = 0;
    (void)run_max_fanout(keys, /*use_async=*/false, reference, remote_keys);
    const auto ls = run_max_fanout(keys, /*use_async=*/true, got, remote_keys);
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(keys) + 2);
    EXPECT_EQ(got, reference);
    ASSERT_GT(remote_keys, 0u);
    if (2 * remote_keys < core::DominanceFilter::kReleaseMinHits) {
      EXPECT_EQ(ls.filters_released, 0u);
      EXPECT_GE(ls.stage_rows_dominated, remote_keys);
    } else {
      EXPECT_EQ(ls.filters_released, 1u);
      EXPECT_EQ(ls.stage_rows_dominated, 0u);
      // Three values per key in the first round, at least one more later.
      EXPECT_GE(ls.stage_rows_sent, 4 * remote_keys);
    }
  }
}

TEST(AsyncRejection, PagerankRefreshSumIsRejectedWithDiagnostic) {
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 3, .seed = 36});
  vmpi::run(2, [&](vmpi::Comm& comm) {
    queries::PagerankOptions opts;
    opts.rounds = 4;
    opts.tuning.use_async = true;
    try {
      run_pagerank(comm, g, opts);
      FAIL() << "PageRank must not run on the async engine";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      // The diagnostic must steer the user to the supported path.
      EXPECT_NE(what.find("BSP"), std::string::npos) << what;
    }
  });
}

TEST(AsyncRejection, NonIdempotentAggregateInFixpointLoop) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    auto* total = program.relation({.name = "total",
                                    .arity = 2,
                                    .jcc = 1,
                                    .dep_arity = 1,
                                    .aggregator = core::make_sum_aggregator()});
    auto& stratum = program.stratum();
    stratum.loop_rules.push_back(core::JoinRule{
        .a = total,
        .a_version = core::Version::kDelta,
        .b = edge,
        .b_version = core::Version::kFull,
        .out = {.target = total, .cols = {Expr::col_b(1), Expr::col_a(1)}},
    });
    try {
      async::AsyncEngine::check_supported(program);
      FAIL() << "a $SUM-aggregated fixpoint loop target must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("idempotent"), std::string::npos) << what;
      EXPECT_NE(what.find("total"), std::string::npos) << what;
    }
  });
}

TEST(AsyncConfigValidation, ZeroBatchIsATypedError) {
  // A zero-row batch is a typed ConfigError (distinct from
  // UnsupportedProgramError: the flags are wrong, not the program).
  // Honest SSP lockstep is spelled ssp_staleness = 0, which stays legal.
  async::AsyncConfig zero_batch;
  zero_batch.batch_rows = 0;
  EXPECT_THROW(async::AsyncEngine::validate_config(zero_batch), async::ConfigError);

  async::AsyncConfig lockstep;
  lockstep.ssp = true;
  lockstep.ssp_staleness = 0;
  EXPECT_NO_THROW(async::AsyncEngine::validate_config(lockstep));

  // And through the full run path: the engine validates before any work.
  const auto g = graph::make_grid(4, 4, 3, 38);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = {0};
    opts.tuning.use_async = true;
    opts.tuning.async.batch_rows = 0;
    EXPECT_THROW(run_sssp(comm, g, opts), async::ConfigError);
  });
}

TEST(AsyncRejection, DiagnosticIsTypedAndListsEachViolationOnce) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    auto* total = program.relation({.name = "total",
                                    .arity = 2,
                                    .jcc = 1,
                                    .dep_arity = 1,
                                    .aggregator = core::make_sum_aggregator()});
    auto& stratum = program.stratum();
    // Two rules target the same offending relation: the old per-target
    // diagnostic printed the $SUM complaint once per rule.
    for (int i = 0; i < 2; ++i) {
      stratum.loop_rules.push_back(core::JoinRule{
          .a = total,
          .a_version = core::Version::kDelta,
          .b = edge,
          .b_version = core::Version::kFull,
          .out = {.target = total, .cols = {Expr::col_b(1), Expr::col_a(1)}},
      });
    }
    try {
      async::AsyncEngine::check_supported(program);
      FAIL() << "a $SUM-aggregated fixpoint loop target must be rejected";
    } catch (const async::UnsupportedProgramError& e) {  // the typed class
      const std::string what = e.what();
      std::size_t occurrences = 0;
      for (std::size_t pos = what.find("not idempotent"); pos != std::string::npos;
           pos = what.find("not idempotent", pos + 1)) {
        ++occurrences;
      }
      EXPECT_EQ(occurrences, 1u) << what;
    }
  });
}

TEST(AsyncRejection, AntijoinAndNonDeltaLoopRules) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    auto* path = program.relation({.name = "path", .arity = 2, .jcc = 1});

    {
      auto& s = program.stratum();
      s.loop_rules.push_back(core::JoinRule{
          .a = path,
          .a_version = core::Version::kDelta,
          .b = edge,
          .b_version = core::Version::kFull,
          .out = {.target = path, .cols = {Expr::col_b(1), Expr::col_a(1)}},
          .anti = true,
      });
      EXPECT_THROW(async::AsyncEngine::check_supported(program), std::invalid_argument);
    }

    // A loop copy reading kFull re-derives the whole relation every round —
    // that is a refresh-style schedule, not delta-driven; must be rejected.
    core::Program full_copy(comm);
    auto* p2 = full_copy.relation({.name = "path", .arity = 2, .jcc = 1});
    auto& s2 = full_copy.stratum();
    s2.loop_rules.push_back(core::CopyRule{
        .src = p2,
        .version = core::Version::kFull,
        .out = {.target = p2, .cols = {Expr::col_a(1), Expr::col_a(0)}},
    });
    EXPECT_THROW(async::AsyncEngine::check_supported(full_copy), std::invalid_argument);
  });
}

}  // namespace
}  // namespace paralagg
