// SSSP end to end: distributed recursive $MIN aggregation vs. Dijkstra.

#include "queries/sssp.hpp"

#include <gtest/gtest.h>

#include <map>

#include "queries/reference.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg::queries {
namespace {

/// Run SSSP at `ranks` and compare every (from, to, dist) row against the
/// Dijkstra oracle.
void expect_matches_oracle(const graph::Graph& g, const std::vector<value_t>& sources,
                           int ranks, QueryTuning tuning = {}) {
  const auto oracle = reference::sssp(g, sources);
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    SsspOptions opts;
    opts.sources = sources;
    opts.tuning = tuning;
    opts.collect_distances = true;
    const auto result = run_sssp(comm, g, opts);
    EXPECT_EQ(result.path_count, oracle.size());
    if (comm.rank() == 0) {
      ASSERT_EQ(result.distances.size(), oracle.size());
      for (const auto& row : result.distances) {
        // Stored order: (to, from, dist).
        const auto it = oracle.find({row[1], row[0]});
        ASSERT_NE(it, oracle.end())
            << "unexpected pair from=" << row[1] << " to=" << row[0];
        EXPECT_EQ(row[2], it->second) << "from=" << row[1] << " to=" << row[0];
      }
    }
  });
}

TEST(Sssp, ChainSingleSource) {
  expect_matches_oracle(graph::make_chain(20, 10, 3), {0}, 2);
}

TEST(Sssp, GridSingleSource) {
  expect_matches_oracle(graph::make_grid(8, 8, 10, 4), {0}, 4);
}

TEST(Sssp, TreeMultiSource) {
  const auto g = graph::make_random_tree(200, 10, 5);
  expect_matches_oracle(g, g.pick_sources(5), 4);
}

TEST(Sssp, RmatMultiSource) {
  const auto g = graph::make_rmat({.scale = 9, .edge_factor = 6, .seed = 6});
  expect_matches_oracle(g, g.pick_sources(3), 4);
}

TEST(Sssp, WeightedCyclesCollapse) {
  // Cycles + weights: the case vanilla Datalog cannot terminate on.
  const auto g = graph::make_erdos_renyi(150, 900, 50, 7);
  expect_matches_oracle(g, {1, 2}, 4);
}

TEST(Sssp, DisconnectedTargetsAbsent) {
  // Two components; paths must not cross.
  const auto g = graph::make_components(2, 20, 10, 8);
  const auto oracle = reference::sssp(g, {0});
  vmpi::run(2, [&](vmpi::Comm& comm) {
    SsspOptions opts;
    opts.sources = {0};
    opts.collect_distances = true;
    const auto result = run_sssp(comm, g, opts);
    if (comm.rank() == 0) {
      for (const auto& row : result.distances) {
        EXPECT_LT(row[0], 20u) << "path escaped component 0";
      }
      EXPECT_EQ(result.distances.size(), oracle.size());
    }
  });
}

TEST(Sssp, BaselineTuningIsStillCorrect) {
  // Disabling the paper's optimizations must never change answers.
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 9});
  expect_matches_oracle(g, g.pick_sources(2), 4, QueryTuning::baseline());
}

TEST(Sssp, SubBucketedEdgesAreStillCorrect) {
  QueryTuning tuning;
  tuning.edge_sub_buckets = 8;
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 10});
  expect_matches_oracle(g, g.pick_sources(2), 8, tuning);
}

TEST(Sssp, IterationCountTracksDepth) {
  // Unweighted chain of n nodes needs ~n iterations (long-tail dynamic of
  // Fig. 7); RMAT needs few (short diameter).
  const auto chain = graph::make_chain(60, 1, 1);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    SsspOptions opts;
    opts.sources = {0};
    const auto result = run_sssp(comm, chain, opts);
    EXPECT_GE(result.iterations, 59u);
    EXPECT_LE(result.iterations, 61u);
  });
}

TEST(Sssp, EmptySourcesGiveEmptyResult) {
  const auto g = graph::make_chain(5);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    SsspOptions opts;  // no sources
    const auto result = run_sssp(comm, g, opts);
    EXPECT_EQ(result.path_count, 0u);
  });
}

TEST(Sssp, StarHotSpot) {
  // Extreme skew: every edge shares the source.  Correctness must survive
  // the hot bucket (with and without sub-bucketing).
  const auto g = graph::make_star(500, 10, 11);
  expect_matches_oracle(g, {0}, 4);
  QueryTuning balanced;
  balanced.edge_sub_buckets = 4;
  expect_matches_oracle(g, {0}, 4, balanced);
}

TEST(Sssp, ResultIdenticalAcrossRankCounts) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 6, .seed = 12});
  const auto sources = g.pick_sources(2);
  std::map<int, std::vector<Tuple>> per_ranks;
  for (const int ranks : {1, 2, 5, 8}) {
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      SsspOptions opts;
      opts.sources = sources;
      opts.collect_distances = true;
      const auto result = run_sssp(comm, g, opts);
      if (comm.rank() == 0) per_ranks[ranks] = result.distances;
    });
  }
  for (const auto& [ranks, rows] : per_ranks) {
    EXPECT_EQ(rows, per_ranks.at(1)) << "ranks=" << ranks;
  }
}

TEST(Sssp, CommunicationAvoidanceNoExtraAggTraffic) {
  // The headline property: the aggregated relation adds no communication
  // beyond what a plain relation would pay.  We verify the strong form:
  // with aligned distributions, the intra-bucket phase is all-local and
  // the only remote traffic is the all-to-all of generated tuples, the
  // vote, and termination detection.
  const auto g = graph::make_grid(10, 10, 5, 13);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    SsspOptions opts;
    opts.sources = {0};
    opts.tuning.balance_edges = false;  // keep distributions aligned
    const auto result = run_sssp(comm, g, opts);
    const auto& prof = result.run.profile;
    EXPECT_EQ(prof.total_bytes[static_cast<std::size_t>(core::Phase::kIntraBucket)], 0u)
        << "intra-bucket exchange should be local with aligned layouts";
    EXPECT_GT(prof.total_bytes[static_cast<std::size_t>(core::Phase::kAllToAll)], 0u);
  });
}

}  // namespace
}  // namespace paralagg::queries
