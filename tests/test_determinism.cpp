// Determinism: every collective folds in rank order and every query result
// is bit-identical across runs and rank counts.  Nondeterminism in a
// distributed engine is a debugging catastrophe; PARALAGG's design (no
// wall-clock-dependent decisions, deterministic reductions) makes this
// testable.

#include <gtest/gtest.h>

#include <string>

#include "queries/cc.hpp"
#include "queries/pagerank.hpp"
#include "queries/sssp.hpp"
#include "queries/tc.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using queries::Tuple;

TEST(Determinism, RepeatedSsspRunsAreBitIdentical) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 21});
  const auto sources = g.pick_sources(3);
  std::vector<Tuple> first;
  for (int repeat = 0; repeat < 3; ++repeat) {
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = sources;
      opts.collect_distances = true;
      const auto result = run_sssp(comm, g, opts);
      if (comm.rank() == 0) {
        if (repeat == 0) {
          first = result.distances;
        } else {
          EXPECT_EQ(result.distances, first) << "repeat " << repeat;
        }
      }
    });
  }
}

TEST(Determinism, IterationCountIndependentOfRankCount) {
  const auto g = graph::make_grid(9, 9, 10, 22);
  std::vector<std::size_t> iters;
  for (const int ranks : {1, 2, 4, 8}) {
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = {0};
      const auto result = run_sssp(comm, g, opts);
      if (comm.rank() == 0) iters.push_back(result.iterations);
    });
  }
  for (const auto it : iters) EXPECT_EQ(it, iters[0]);
}

TEST(Determinism, CcIdenticalUnderBalancingKnobs) {
  // Balancing moves tuples between ranks but must never change answers.
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 4, .seed = 23});
  std::vector<Tuple> reference_labels;
  struct Knobs {
    int sub_buckets;
    bool balance;
  };
  const Knobs variants[] = {{1, false}, {1, true}, {4, false}, {8, true}};
  bool have_reference = false;
  for (const auto& [sub_buckets, balance] : variants) {
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::CcOptions opts;
      opts.tuning.edge_sub_buckets = sub_buckets;
      opts.tuning.balance_edges = balance;
      opts.collect_labels = true;
      const auto result = run_cc(comm, g, opts);
      if (comm.rank() == 0) {
        if (!have_reference) {
          reference_labels = result.labels;
        } else {
          EXPECT_EQ(result.labels, reference_labels)
              << "sub=" << sub_buckets << " balance=" << balance;
        }
      }
    });
    have_reference = true;
  }
}

TEST(Determinism, PagerankStableAcrossRankCounts) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 24});
  std::vector<Tuple> at1;
  for (const int ranks : {1, 4}) {
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      queries::PagerankOptions opts;
      opts.rounds = 8;
      opts.collect_ranks = true;
      const auto result = run_pagerank(comm, g, opts);
      if (comm.rank() == 0) {
        if (ranks == 1) {
          at1 = result.ranks;
        } else {
          EXPECT_EQ(result.ranks, at1);
        }
      }
    });
  }
}

TEST(Determinism, DynamicJoinOrderDoesNotAffectResults) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 25});
  const auto sources = g.pick_sources(2);
  std::vector<Tuple> dynamic_rows, fixed_rows;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = sources;
    opts.collect_distances = true;
    const auto dyn = run_sssp(comm, g, opts);
    opts.tuning.engine.dynamic_join_order = false;
    const auto fixed = run_sssp(comm, g, opts);
    if (comm.rank() == 0) {
      dynamic_rows = dyn.distances;
      fixed_rows = fixed.distances;
    }
  });
  EXPECT_EQ(dynamic_rows, fixed_rows);
}

TEST(Determinism, ProfileSummaryIdenticalOnAllRanks) {
  const auto g = graph::make_grid(6, 6, 5, 26);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = {0};
    const auto result = run_sssp(comm, g, opts);
    // Every rank computed the same summary: compare a few scalar digests.
    const auto iters = comm.allgather<std::uint64_t>(result.run.profile.iterations);
    const auto bytes = comm.allgather<std::uint64_t>(result.run.profile.bytes_total());
    const auto comm_bytes =
        comm.allgather<std::uint64_t>(result.run.comm_total.total_remote_bytes());
    for (std::size_t r = 1; r < iters.size(); ++r) {
      EXPECT_EQ(iters[r], iters[0]);
      EXPECT_EQ(bytes[r], bytes[0]);
      EXPECT_EQ(comm_bytes[r], comm_bytes[0]);
    }
  });
}

TEST(Determinism, FixpointsIdenticalAcrossExchangesAndTopologies) {
  // The topology refactor's core invariant: node grouping and exchange
  // routing are pure communication choices — every combination must
  // reach the bit-identical fixpoint because all folds stay in rank order
  // and the hierarchical pre-merge uses the same deterministic aggregator
  // as the dense path.
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 29});
  const auto sources = g.pick_sources(2);
  constexpr int kRanks = 8;

  struct Variant {
    const char* name;
    int nodes;  // 0 -> flat topology
    core::ExchangeAlgorithm exchange;
    std::uint64_t skew_threshold;  // 0 -> hybrid skew plans off
  };
  // The +skew variants use an absurdly low hot threshold so hot sets engage
  // (and churn) on an ordinary graph — the hybrid routing must still land on
  // the same fixpoint bit for bit.
  const Variant variants[] = {
      {"flat/dense", 0, core::ExchangeAlgorithm::kDense, 0},
      {"2x4/hier", 2, core::ExchangeAlgorithm::kHierarchical, 0},
      {"4x2/hier", 4, core::ExchangeAlgorithm::kHierarchical, 0},
      {"flat/dense+skew", 0, core::ExchangeAlgorithm::kDense, 16},
      {"4x2/hier+skew", 4, core::ExchangeAlgorithm::kHierarchical, 16},
  };

  // reference[q] from the first variant; later variants must match.
  std::vector<Tuple> reference[4];
  bool have_reference = false;
  for (const auto& v : variants) {
    vmpi::RunOptions options;
    options.topology = vmpi::Topology::grouped(kRanks, v.nodes);
    std::vector<Tuple> got[4];
    vmpi::run(kRanks, options, [&](vmpi::Comm& comm) {
      queries::QueryTuning tuning;
      tuning.engine.exchange = v.exchange;
      if (v.skew_threshold > 0) {
        tuning.engine.skew.enabled = true;
        tuning.engine.skew.hot_threshold = v.skew_threshold;
      }
      {
        queries::SsspOptions opts;
        opts.sources = sources;
        opts.tuning = tuning;
        opts.collect_distances = true;
        auto r = run_sssp(comm, g, opts);
        if (comm.rank() == 0) got[0] = std::move(r.distances);
      }
      {
        queries::CcOptions opts;
        opts.tuning = tuning;
        opts.collect_labels = true;
        auto r = run_cc(comm, g, opts);
        if (comm.rank() == 0) got[1] = std::move(r.labels);
      }
      {
        queries::TcOptions opts;
        opts.tuning = tuning;
        opts.collect_pairs = true;
        auto r = run_tc(comm, g, opts);
        if (comm.rank() == 0) got[2] = std::move(r.pairs);
      }
      {
        queries::PagerankOptions opts;
        opts.rounds = 5;
        opts.tuning = tuning;
        opts.collect_ranks = true;
        auto r = run_pagerank(comm, g, opts);
        if (comm.rank() == 0) got[3] = std::move(r.ranks);
      }
    });
    for (int q = 0; q < 4; ++q) {
      ASSERT_FALSE(got[q].empty()) << v.name << " query " << q;
      if (!have_reference) {
        reference[q] = std::move(got[q]);
      } else {
        EXPECT_EQ(got[q], reference[q]) << v.name << " query " << q;
      }
    }
    have_reference = true;
  }
}

}  // namespace
}  // namespace paralagg
