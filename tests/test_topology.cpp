// Topology model, the log-step symmetric collectives, and the hierarchical
// two-level exchange.
//
// The contracts under test: (1) the Topology partition arithmetic and the
// load election; (2) allreduce/allgather results are exact at every rank
// count, each rank ships exactly n-1 payload blocks in ceil(log2 n) steps
// (recursive doubling, or dissemination off powers of two), and the
// locality split follows the partners; (3) the hierarchical router reaches
// the bit-identical staged state of the dense exchange while shipping
// strictly fewer cross-node bytes, with the back-to-back-flush and
// ragged-node edge cases intact, and never re-sends a dominated row across
// nodes.

#include "vmpi/topology.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/exchange_router.hpp"
#include "core/relation.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::ExchangeAlgorithm;
using core::ExchangeRouter;
using core::RankProfile;
using core::Relation;
using core::RouterFlushStats;
using core::Tuple;
using core::value_t;
using vmpi::Comm;
using vmpi::CommStats;
using vmpi::Op;
using vmpi::Topology;

// ---------------------------------------------------------------------------
// Topology partition arithmetic
// ---------------------------------------------------------------------------

TEST(Topology, FlatDefaultMakesEveryRankItsOwnNode) {
  const Topology t;
  EXPECT_EQ(t.node_size, 1);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(t.node_of(r), r);
    EXPECT_EQ(t.node_base(r), r);
  }
  EXPECT_FALSE(t.same_node(0, 1));
  EXPECT_EQ(t.node_count(5), 5);
}

TEST(Topology, GroupedPartitionsContiguously) {
  const Topology t = Topology::grouped(32, 4);
  EXPECT_EQ(t.node_size, 8);
  EXPECT_EQ(t.node_count(32), 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_EQ(t.node_of(8), 1);
  EXPECT_EQ(t.node_base(13), 8);
  EXPECT_EQ(t.node_base(24), 24);
  EXPECT_EQ(t.node_base(25), 24);
  EXPECT_TRUE(t.same_node(16, 23));
  EXPECT_FALSE(t.same_node(15, 16));
  EXPECT_EQ(t.node_members(13, 32), (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
}

TEST(Topology, GroupedHandlesRaggedAndDegenerateShapes) {
  // 10 ranks on 3 nodes: node_size ceil(10/3) = 4, last node short.
  const Topology ragged = Topology::grouped(10, 3);
  EXPECT_EQ(ragged.node_size, 4);
  EXPECT_EQ(ragged.node_count(10), 3);
  EXPECT_EQ(ragged.node_base(9), 8);
  EXPECT_EQ(ragged.node_members(9, 10), (std::vector<int>{8, 9}));

  // Degenerate requests collapse to flat.
  EXPECT_EQ(Topology::grouped(8, 0).node_size, 1);
  EXPECT_EQ(Topology::grouped(8, 8).node_size, 1);
  EXPECT_EQ(Topology::grouped(8, 100).node_size, 1);
}

TEST(Topology, ElectLeadersPicksHeaviestMemberWithDeterministicTies) {
  const Topology t = Topology::grouped(8, 2);  // nodes {0..3}, {4..7}
  ASSERT_EQ(t.node_size, 4);

  // The heavier, non-lowest member wins its node.
  const std::vector<std::uint64_t> skewed{10, 40, 20, 5, 7, 7, 7, 99};
  EXPECT_EQ(t.elect_leaders(skewed), (std::vector<int>{1, 7}));

  // Ties keep the lowest contender (deterministic across ranks).
  const std::vector<std::uint64_t> tied{3, 9, 9, 0, 4, 4, 4, 4};
  EXPECT_EQ(t.elect_leaders(tied), (std::vector<int>{1, 4}));

  // All-equal degenerates to each node's lowest rank.
  const std::vector<std::uint64_t> flat(8, 5);
  EXPECT_EQ(t.elect_leaders(flat), (std::vector<int>{0, 4}));

  // Ragged last node: the election respects the short member range.
  const Topology r = Topology::grouped(5, 2);  // nodes {0,1,2}, {3,4}
  const std::vector<std::uint64_t> ragged_loads{1, 2, 3, 4, 9};
  EXPECT_EQ(r.elect_leaders(ragged_loads), (std::vector<int>{2, 4}));
}

// ---------------------------------------------------------------------------
// Log-step collectives: exact results, n-1 payload blocks, ceil(log2 n) steps
// ---------------------------------------------------------------------------

vmpi::RunOptions with_topology(Topology topo) {
  vmpi::RunOptions o;
  o.topology = topo;
  return o;
}

TEST(Collectives, IdenticalAcrossSizes) {
  // Power-of-two sizes exercise recursive doubling; the rest exercise the
  // capped dissemination fallback.  The reduction order is contractually
  // rank order, so every size must reduce bit for bit.
  for (const int n : {2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    vmpi::run(n, [&](Comm& comm) {
      const auto r = static_cast<std::uint64_t>(comm.rank());
      const auto sum = comm.allreduce<std::uint64_t>(r + 1, vmpi::ReduceOp::kSum);
      EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) + 1) / 2);
      const auto mn = comm.allreduce<std::uint64_t>(r + 10, vmpi::ReduceOp::kMin);
      EXPECT_EQ(mn, 10u);
      const auto gathered = comm.allgather<std::uint64_t>(r * r);
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(i));
      }
    });
  }
}

TEST(Collectives, EveryRankShipsNMinusOneBlocks) {
  // Recursive doubling ships n-1 blocks per rank by the power-of-two
  // doubling argument, dissemination by its send-count cap.
  for (const int n : {3, 8}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<CommStats> per_rank;
    vmpi::run_collect(
        n,
        [&](Comm& comm) {
          (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
          (void)comm.allgather<std::uint64_t>(2);
        },
        per_rank);
    for (const auto& st : per_rank) {
      EXPECT_EQ(st.remote_bytes(Op::kAllreduce),
                (static_cast<std::uint64_t>(n) - 1) * sizeof(std::uint64_t));
      EXPECT_EQ(st.remote_bytes(Op::kAllgather),
                (static_cast<std::uint64_t>(n) - 1) * sizeof(std::uint64_t));
    }
  }
}

TEST(Collectives, RecordLogarithmicSteps) {
  // n = 8 runs recursive doubling, n = 6 the dissemination fallback: both
  // take ceil(log2 n) = 3 steps per call.
  for (const int n : {8, 6}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<CommStats> per_rank;
    vmpi::run_collect(
        n,
        [&](Comm& comm) {
          (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
          (void)comm.allgather<std::uint64_t>(2);
        },
        per_rank);
    for (const auto& st : per_rank) {
      EXPECT_EQ(st.steps_of(Op::kAllreduce), 3u);
      EXPECT_EQ(st.steps_of(Op::kAllgather), 3u);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-kind intra- vs cross-node byte attribution (grouped topology)
// ---------------------------------------------------------------------------

TEST(Stats, CollectiveKindsSplitIntraVsCrossNodeBytes) {
  // Recursive doubling pairs rank r with r^2^k at step k, shipping 2^k
  // 8-byte blocks.  On 2 nodes of 2 (4 ranks) step 0 stays on the node
  // (8 bytes intra) and step 1 crosses (16 bytes cross); on 2 nodes of 4
  // (8 ranks) steps 0-1 stay (8 + 16 = 24 intra) and step 2 crosses (32).
  // An alltoallv with 16-byte buffers splits by peer: 16 per peer on the
  // node, 16 per peer off it.
  struct Case {
    int ranks;
    std::uint64_t coll_intra, coll_cross, a2a_intra, a2a_cross;
  };
  for (const Case c : {Case{4, 8, 16, 16, 32}, Case{8, 24, 32, 48, 64}}) {
    SCOPED_TRACE("ranks=" + std::to_string(c.ranks));
    std::vector<CommStats> per_rank;
    vmpi::run_collect(
        c.ranks, with_topology(Topology::grouped(c.ranks, 2)),
        [&](Comm& comm) {
          (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
          (void)comm.allgather<std::uint64_t>(2);
          std::vector<std::vector<std::uint64_t>> send(static_cast<std::size_t>(c.ranks));
          for (auto& s : send) s = {1, 2};
          (void)comm.alltoallv_t(send);
        },
        per_rank);
    for (const auto& st : per_rank) {
      for (const Op op : {Op::kAllreduce, Op::kAllgather}) {
        EXPECT_EQ(st.remote_bytes(op), c.coll_intra + c.coll_cross);
        EXPECT_EQ(st.cross_node_bytes(op), c.coll_cross);
        EXPECT_EQ(st.intra_node_bytes(op), c.coll_intra);
      }
      EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), c.a2a_intra + c.a2a_cross);
      EXPECT_EQ(st.cross_node_bytes(Op::kAlltoallv), c.a2a_cross);
      EXPECT_EQ(st.intra_node_bytes(Op::kAlltoallv), c.a2a_intra);
      EXPECT_EQ(st.total_cross_node_bytes(),
                st.cross_node_bytes(Op::kAllreduce) + st.cross_node_bytes(Op::kAllgather) +
                    st.cross_node_bytes(Op::kAlltoallv));
    }
  }
}

TEST(Stats, FlatTopologyCountsAllRemoteBytesAsCrossNode) {
  // Pre-topology compatibility: with node_size 1 the locality split must
  // be degenerate — every remote byte is a cross-node byte.
  std::vector<CommStats> per_rank;
  vmpi::run_collect(
      3, [&](Comm& comm) { (void)comm.allgather<std::uint64_t>(1); }, per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.cross_node_bytes(Op::kAllgather), st.remote_bytes(Op::kAllgather));
    EXPECT_EQ(st.intra_node_bytes(Op::kAllgather), 0u);
  }
}

// ---------------------------------------------------------------------------
// Hierarchical two-level exchange
// ---------------------------------------------------------------------------

/// Smallest key >= 0 whose unary-prefix tuple `rel` assigns to `rank`.
value_t key_owned_by(const Relation& rel, int rank) {
  for (value_t k = 0;; ++k) {
    const Tuple probe{k, 0, 0};
    if (rel.owner_rank(probe.view()) == rank) return k;
  }
}

/// One MIN-aggregated flush where every rank emits a row with the SAME
/// independent key toward every other rank, so the node-level pre-merge
/// has something to collapse.  Returns rank 0's gathered fixpoint.
std::vector<Tuple> run_min_flush(int ranks, const vmpi::RunOptions& options,
                                 ExchangeAlgorithm algo, std::vector<CommStats>* stats,
                                 std::vector<RouterFlushStats>* flush_stats = nullptr) {
  std::vector<Tuple> rows;
  std::vector<CommStats> per_rank;
  if (flush_stats != nullptr) flush_stats->assign(static_cast<std::size_t>(ranks), {});
  vmpi::run_collect(
      ranks, options,
      [&](Comm& comm) {
        Relation rel(comm, {.name = "h",
                            .arity = 3,
                            .jcc = 1,
                            .dep_arity = 1,
                            .aggregator = core::make_min_aggregator()});
        RankProfile profile;
        ExchangeRouter router(comm, /*preaggregate=*/true);
        const auto id = router.add_target(&rel);
        for (int d = 0; d < comm.size(); ++d) {
          if (d == comm.rank()) continue;
          const value_t key = key_owned_by(rel, d);
          router.emit(id, Tuple{key, 7, 100 + static_cast<value_t>(comm.rank())}.view());
        }
        const auto st = router.flush(profile, algo);
        if (flush_stats != nullptr) {
          (*flush_stats)[static_cast<std::size_t>(comm.rank())] = st;
        }
        rel.materialize();
        auto gathered = rel.gather_to_root(0);
        if (comm.rank() == 0) rows = std::move(gathered);
      },
      per_rank);
  if (stats != nullptr) *stats = std::move(per_rank);
  return rows;
}

TEST(HierarchicalExchange, MatchesDenseFixpointWithFewerCrossNodeBytes) {
  const int ranks = 8;
  const auto options = with_topology(Topology::grouped(ranks, 2));
  std::vector<CommStats> dense_stats, hier_stats;
  std::vector<RouterFlushStats> hier_flush;
  const auto dense = run_min_flush(ranks, options, ExchangeAlgorithm::kDense, &dense_stats);
  const auto hier = run_min_flush(ranks, options, ExchangeAlgorithm::kHierarchical,
                                  &hier_stats, &hier_flush);
  ASSERT_FALSE(dense.empty());
  EXPECT_EQ(hier, dense);

  const auto sum_cross = [](const std::vector<CommStats>& v) {
    std::uint64_t total = 0;
    for (const auto& st : v) total += st.cross_node_bytes(Op::kAlltoallv);
    return total;
  };
  // Each node's 4 members emit a row for every off-node destination; the
  // aggregator folds those four MIN candidates into one before the
  // leaders-only exchange, so cross-node volume must drop strictly.
  EXPECT_LT(sum_cross(hier_stats), sum_cross(dense_stats));

  // The node merge really fired, on elected leaders only.
  std::uint64_t merged = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto& st = hier_flush[static_cast<std::size_t>(r)];
    if (st.elected_leader != r) {
      EXPECT_EQ(st.rows_node_merged, 0u) << "rank " << r;
    }
    merged += st.rows_node_merged;
  }
  EXPECT_GT(merged, 0u);

  for (const auto& st : hier_stats) {
    // Still exactly one collective tuple exchange per flush per rank, and
    // the up/down legs show up as the two extra schedule steps.
    EXPECT_EQ(st.calls_of(Op::kAlltoallv), 1u);
    EXPECT_EQ(st.steps_of(Op::kAlltoallv), 3u);
  }
}

TEST(HierarchicalExchange, RaggedNodesAndEveryRowCountSurvive) {
  // 5 ranks on 2 nodes: node {0,1,2} and node {3,4} — the short last node
  // exercises the member-index arithmetic on both legs.
  const int ranks = 5;
  const auto options = with_topology(Topology::grouped(ranks, 2));
  std::vector<CommStats> dense_stats, hier_stats;
  const auto dense = run_min_flush(ranks, options, ExchangeAlgorithm::kDense, &dense_stats);
  const auto hier =
      run_min_flush(ranks, options, ExchangeAlgorithm::kHierarchical, &hier_stats);
  ASSERT_FALSE(dense.empty());
  EXPECT_EQ(hier, dense);
  std::uint64_t staged_rows = 0;
  for (const auto& st : hier_stats) staged_rows += st.calls_of(Op::kAlltoallv);
  EXPECT_EQ(staged_rows, static_cast<std::uint64_t>(ranks));
}

TEST(HierarchicalExchange, FlatTopologyDegradesToDense) {
  // node_size 1: the hierarchy is the identity, so the router must take
  // the plain dense path — one step, no intra-node legs.
  std::vector<CommStats> per_rank;
  const auto rows = run_min_flush(4, vmpi::RunOptions{}, ExchangeAlgorithm::kHierarchical,
                                  &per_rank);
  ASSERT_FALSE(rows.empty());
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.steps_of(Op::kAlltoallv), 1u);
    EXPECT_EQ(st.intra_node_bytes(Op::kAlltoallv), 0u);
  }
}

TEST(HierarchicalExchange, BackToBackFlushesEachStageTheirOwnRow) {
  const auto options = with_topology(Topology::grouped(4, 2));
  vmpi::run(4, options, [&](Comm& comm) {
    Relation rel(comm, {.name = "bb", .arity = 3, .jcc = 1});
    RankProfile profile;
    ExchangeRouter router(comm, /*preaggregate=*/true);
    const auto id = router.add_target(&rel);
    const value_t theirs = key_owned_by(rel, (comm.rank() + 1) % comm.size());

    // Each flush carries exactly the row emitted since the previous one,
    // and nothing lingers in the buckets between flushes.
    router.emit(id, Tuple{theirs, 1, 1}.view());
    EXPECT_EQ(router.pending_rows(), 1u);
    const auto st1 = router.flush(profile, ExchangeAlgorithm::kHierarchical);
    EXPECT_EQ(st1.rows_staged, 1u);
    EXPECT_EQ(router.pending_rows(), 0u);

    router.emit(id, Tuple{theirs, 2, 2}.view());
    const auto st2 = router.flush(profile, ExchangeAlgorithm::kHierarchical);
    EXPECT_EQ(st2.rows_staged, 1u);

    rel.materialize();
    EXPECT_EQ(rel.global_size(core::Version::kFull), 8u);
    EXPECT_EQ(comm.stats().calls_of(Op::kAlltoallv), 2u);
    EXPECT_EQ(comm.stats().steps_of(Op::kAlltoallv), 6u);
  });
}

TEST(HierarchicalExchange, DominatedRepeatIsNotResentAcrossNodes) {
  // Every rank sends a key owned on the other node (k, 5), then (k, 9),
  // which its shipped run dominates, then (k, 3).  The dominated repeat
  // must not cross nodes, and the fixpoint must match an unfiltered dense
  // router's.
  const int ranks = 4;
  const auto options = with_topology(Topology::grouped(ranks, 2));
  const std::vector<value_t> deps{5, 9, 3};
  const auto leg = [&](ExchangeAlgorithm algo, bool preaggregate,
                       std::vector<std::uint64_t>* cross_per_flush) {
    std::vector<Tuple> rows;
    vmpi::run(ranks, options, [&](Comm& comm) {
      Relation rel(comm, {.name = "dr",
                          .arity = 3,
                          .jcc = 1,
                          .dep_arity = 1,
                          .aggregator = core::make_min_aggregator()});
      RankProfile profile;
      ExchangeRouter router(comm, preaggregate);
      const auto id = router.add_target(&rel);
      const value_t key = key_owned_by(rel, (comm.rank() + 2) % ranks);
      for (const value_t dep : deps) {
        const auto before = comm.stats().cross_node_bytes(Op::kAlltoallv);
        router.emit(id, Tuple{key, 7, dep}.view());
        const auto st = router.flush(profile, algo);
        rel.materialize();
        if (preaggregate) {
          EXPECT_EQ(st.rows_dominated, dep == 9 ? 1u : 0u) << "rank " << comm.rank();
        }
        const auto cross = comm.allreduce<std::uint64_t>(
            comm.stats().cross_node_bytes(Op::kAlltoallv) - before, vmpi::ReduceOp::kSum);
        if (cross_per_flush != nullptr && comm.rank() == 0) cross_per_flush->push_back(cross);
      }
      auto gathered = rel.gather_to_root(0);
      if (comm.rank() == 0) rows = std::move(gathered);
    });
    return rows;
  };

  std::vector<std::uint64_t> cross;
  const auto dense = leg(ExchangeAlgorithm::kDense, /*preaggregate=*/false, nullptr);
  const auto hier = leg(ExchangeAlgorithm::kHierarchical, /*preaggregate=*/true, &cross);
  ASSERT_EQ(dense.size(), static_cast<std::size_t>(ranks));
  EXPECT_EQ(hier, dense);
  ASSERT_EQ(cross.size(), deps.size());
  EXPECT_GT(cross[0], 0u);
  EXPECT_EQ(cross[1], 0u);  // (k, 9) stayed home on every rank
  EXPECT_GT(cross[2], 0u);
}

TEST(HierarchicalExchange, HeaviestMemberAggregatesItsNode) {
  // Node {0,1}: rank 1 stages far more delta bytes than rank 0, so the
  // load election must aggregate on rank 1 — the heavy buffer never
  // crosses the intra-node wire.  Node {2,3} stays symmetric and keeps
  // its lowest rank.  The fixpoint must be dense-identical either way.
  const int ranks = 4;
  const auto options = with_topology(Topology::grouped(ranks, 2));
  const auto leg = [&](ExchangeAlgorithm algo, std::vector<RouterFlushStats>* flush) {
    std::vector<Tuple> rows;
    if (flush != nullptr) flush->assign(static_cast<std::size_t>(ranks), {});
    vmpi::run(ranks, options, [&](Comm& comm) {
      Relation rel(comm, {.name = "h",
                          .arity = 3,
                          .jcc = 1,
                          .dep_arity = 1,
                          .aggregator = core::make_min_aggregator()});
      RankProfile profile;
      ExchangeRouter router(comm, /*preaggregate=*/true);
      const auto id = router.add_target(&rel);
      for (int d = 0; d < comm.size(); ++d) {
        if (d == comm.rank()) continue;
        const value_t key = key_owned_by(rel, d);
        router.emit(id, Tuple{key, 7, 100 + static_cast<value_t>(comm.rank())}.view());
      }
      if (comm.rank() == 1) {
        // The burst that makes rank 1 node 0's heaviest member.
        for (value_t k = 0; k < 64; ++k) {
          router.emit(id, Tuple{k, 9, 200 + k}.view());
        }
      }
      const auto st = router.flush(profile, algo);
      if (flush != nullptr) (*flush)[static_cast<std::size_t>(comm.rank())] = st;
      rel.materialize();
      auto gathered = rel.gather_to_root(0);
      if (comm.rank() == 0) rows = std::move(gathered);
    });
    return rows;
  };

  std::vector<RouterFlushStats> flush;
  const auto dense = leg(ExchangeAlgorithm::kDense, nullptr);
  const auto hier = leg(ExchangeAlgorithm::kHierarchical, &flush);
  ASSERT_FALSE(dense.empty());
  EXPECT_EQ(hier, dense);

  // The skewed node elects its heavier, non-lowest member...
  EXPECT_EQ(flush[0].elected_leader, 1);
  EXPECT_EQ(flush[1].elected_leader, 1);
  // ... and the node merge runs there, not on the node's lowest rank.
  EXPECT_EQ(flush[0].rows_node_merged, 0u);
  EXPECT_GT(flush[1].rows_node_merged, 0u);
  // The symmetric node ties and keeps its lowest rank.
  EXPECT_EQ(flush[2].elected_leader, 2);
  EXPECT_EQ(flush[3].elected_leader, 2);
}

}  // namespace
}  // namespace paralagg
