// Skew-optimal heavy-hitter routing: the hot-set agreement protocol, the
// hot relation layout, and hybrid-vs-uniform fixpoint identity.
//
// The one invariant everything here leans on: the hot set is a pure
// function of globally identical inputs (the allgathered nomination list
// and the config), so every rank flips to the hybrid plan — or back — in
// the same iteration without any coordinator.

#include "core/skew.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/relation.hpp"
#include "graph/generators.hpp"
#include "queries/cc.hpp"
#include "queries/pagerank.hpp"
#include "queries/sssp.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::HotCandidate;
using core::Relation;
using core::SkewConfig;
using core::Tuple;
using core::Version;
using core::fold_hot_candidates;
using core::detect_hot_keys;
using storage::value_t;

TEST(FoldHotCandidates, SumsPerRankSharesAndKeepsThresholdTies) {
  SkewConfig cfg;
  cfg.hot_threshold = 10;
  cfg.max_hot_keys = 8;
  // Key 1 clears the threshold only once its per-rank shares are summed;
  // key 2 ties the threshold exactly (>= keeps it); key 3 falls short.
  const std::vector<HotCandidate> cands = {
      {Tuple{1}, 6},
      {Tuple{1}, 6},
      {Tuple{2}, 10},
      {Tuple{3}, 9},
  };
  const auto hot = fold_hot_candidates(cands, cfg);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], Tuple{1});  // summed count 12 beats 10
  EXPECT_EQ(hot[1], Tuple{2});
}

TEST(FoldHotCandidates, TieBreaksTowardSmallerKeyAndCaps) {
  SkewConfig cfg;
  cfg.hot_threshold = 1;
  cfg.max_hot_keys = 2;
  const std::vector<HotCandidate> cands = {
      {Tuple{9}, 5},
      {Tuple{4}, 5},
      {Tuple{7}, 5},
      {Tuple{1}, 3},
  };
  const auto hot = fold_hot_candidates(cands, cfg);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], Tuple{4});  // three-way tie at 5 resolves toward smaller keys
  EXPECT_EQ(hot[1], Tuple{7});
}

TEST(FoldHotCandidates, EmptyInEmptyOut) {
  EXPECT_TRUE(fold_hot_candidates({}, SkewConfig{}).empty());
}

/// Serialize a hot set into a flat digest so cross-rank agreement can be
/// checked with one allgather per scalar.
std::uint64_t hot_digest(const std::vector<Tuple>& hot) {
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    d = d * 1315423911u + (i + 1) * (hot[i][0] + 1);
  }
  return d;
}

void expect_all_ranks_agree(vmpi::Comm& comm, const std::vector<Tuple>& hot) {
  const auto sizes = comm.allgather<std::uint64_t>(hot.size());
  const auto digests = comm.allgather<std::uint64_t>(hot_digest(hot));
  for (std::size_t r = 1; r < sizes.size(); ++r) {
    EXPECT_EQ(sizes[r], sizes[0]);
    EXPECT_EQ(digests[r], digests[0]);
  }
}

TEST(DetectHotKeys, AdversarialTiesResolveIdenticallyOnEveryRank) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    // Keys 0, 1, 2 tie at 50 rows; key 3 ties the threshold exactly; key 4
    // sits just below it.
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 3; ++k) {
        for (value_t v = 0; v < 50; ++v) slice.push_back(Tuple{k, v});
      }
      for (value_t v = 0; v < 8; ++v) slice.push_back(Tuple{3, v});
      for (value_t v = 0; v < 7; ++v) slice.push_back(Tuple{4, v});
    }
    r.load_facts(slice);

    SkewConfig cfg;
    cfg.hot_threshold = 8;
    cfg.max_hot_keys = 8;
    const auto hot = detect_hot_keys(comm, r, cfg);
    ASSERT_EQ(hot.size(), 4u);
    for (value_t k = 0; k < 4; ++k) EXPECT_EQ(hot[k], Tuple{k});
    expect_all_ranks_agree(comm, hot);

    // The cap truncates after the deterministic sort: the 50-row keys win.
    cfg.max_hot_keys = 2;
    const auto capped = detect_hot_keys(comm, r, cfg);
    ASSERT_EQ(capped.size(), 2u);
    EXPECT_EQ(capped[0], Tuple{0});
    EXPECT_EQ(capped[1], Tuple{1});
    expect_all_ranks_agree(comm, capped);
  });
}

TEST(DetectHotKeys, NominationCapStillAgreesEverywhere) {
  // With one nomination per rank the hot set depends on which keys share an
  // owner rank — unknowable here without replaying the hash — but every
  // rank must still compute the identical (possibly incomplete) set.
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 16; ++k) {
        for (value_t v = 0; v < 10 + k; ++v) slice.push_back(Tuple{k, v});
      }
    }
    r.load_facts(slice);

    SkewConfig cfg;
    cfg.hot_threshold = 10;
    cfg.max_hot_keys = 16;
    cfg.max_candidates_per_rank = 1;
    const auto hot = detect_hot_keys(comm, r, cfg);
    EXPECT_FALSE(hot.empty());
    EXPECT_LE(hot.size(), 4u);  // at most one nomination per rank survives
    for (const auto& k : hot) EXPECT_LT(k[0], 16u);
    expect_all_ranks_agree(comm, hot);
  });
}

TEST(DetectHotKeys, EmptyDeltasYieldEmptyHotSet) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    EXPECT_TRUE(detect_hot_keys(comm, r, SkewConfig{}).empty());
  });
}

TEST(DetectHotKeys, SumsShardsOfAnAlreadySpreadKey) {
  // Once a key is hot its rows live H2-spread across all ranks; the next
  // detection must still see the key's *global* count, not any rank's
  // below-threshold shard.
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 100; ++v) slice.push_back(Tuple{7, v});
    }
    r.load_facts(slice);
    r.adopt_hot_keys({Tuple{7}});
    // Each rank now holds roughly a quarter of key 7.
    EXPECT_LT(r.local_size(Version::kDelta), 100u);

    SkewConfig cfg;
    cfg.hot_threshold = 100;  // only the summed count reaches this
    const auto hot = detect_hot_keys(comm, r, cfg);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0], Tuple{7});
    expect_all_ranks_agree(comm, hot);
  });
}

TEST(SkewRelation, AdoptSpreadsRowsRoutesThemAndRestores) {
  // 0, 1, 2^63 - 1, 2^63 and UINT64_MAX in both columns, descending, from
  // every rank: the moves' row frames must carry them exactly.
  const value_t edge[] = {~value_t{0}, value_t{1} << 63, (value_t{1} << 63) - 1, 1, 0};
  std::set<Tuple> expected;
  for (value_t v = 0; v < 200; ++v) expected.insert(Tuple{7, v});
  for (value_t k = 0; k < 40; ++k) expected.insert(Tuple{100 + k, k});
  for (const value_t k : edge) {
    for (const value_t v : edge) expected.insert(Tuple{k, v});
  }
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    std::vector<Tuple> slice;
    for (const value_t k : edge) {
      for (const value_t v : edge) slice.push_back(Tuple{k, v});
    }
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 200; ++v) slice.push_back(Tuple{7, v});
      for (value_t k = 0; k < 40; ++k) slice.push_back(Tuple{100 + k, k});
    }
    r.load_facts(slice);
    const auto before = r.gather_to_root();
    if (comm.rank() == 0) {
      EXPECT_EQ(before, std::vector<Tuple>(expected.begin(), expected.end()));
    }
    const auto global = r.global_size(Version::kFull);

    // Key 2^63 turns hot too, so its rows cross in the hot-key move.
    const auto moved = r.adopt_hot_keys({Tuple{7}, Tuple{value_t{1} << 63}});
    EXPECT_GT(comm.allreduce<std::uint64_t>(moved, vmpi::ReduceOp::kSum), 0u);
    EXPECT_EQ(r.global_size(Version::kFull), global);

    // Every stored row sits exactly where route_rank sends it, and the hot
    // key's rows now occupy more than one rank.
    std::uint64_t local_hot = 0;
    bool routed_here = true;
    r.tree(Version::kFull).for_each([&](std::span<const value_t> t) {
      routed_here = routed_here && r.route_rank(t) == comm.rank();
      if (t[0] == 7) ++local_hot;
    });
    EXPECT_TRUE(routed_here);
    const auto spread = comm.allgather<std::uint64_t>(local_hot);
    EXPECT_GT(std::count_if(spread.begin(), spread.end(),
                            [](std::uint64_t c) { return c > 0; }),
              1);

    // The hot layout is invisible to readers: the gathered contents match.
    EXPECT_EQ(r.gather_to_root(), before);

    // Adopting the empty set sends everything home.
    r.adopt_hot_keys({});
    EXPECT_EQ(r.global_size(Version::kFull), global);
    bool home = true;
    r.tree(Version::kFull).for_each([&](std::span<const value_t> t) {
      home = home && r.owner_rank(t) == comm.rank();
    });
    EXPECT_TRUE(home);
    EXPECT_EQ(r.gather_to_root(), before);
  });
}

TEST(SkewQueries, HybridMatchesUniformFixpointsAcrossRankCounts) {
  // End-to-end identity on a genuinely skewed input: a planted super-hub
  // trips the hybrid plan (hot_iterations > 0) and the fixpoints must still
  // match the uniform path bit for bit — including at 7 ranks, where
  // nothing divides evenly.
  auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 31});
  graph::plant_hub(g, 0.3, 0, 5);
  const auto sources = g.pick_hubs(1);

  for (const int ranks : {4, 7}) {
    std::vector<queries::Tuple> rows[2][3];
    std::uint64_t hot_iters[2][3] = {};
    for (int leg = 0; leg < 2; ++leg) {
      vmpi::run(ranks, [&](vmpi::Comm& comm) {
        queries::QueryTuning tuning;
        if (leg == 1) {
          tuning.engine.skew.enabled = true;
          tuning.engine.skew.hot_threshold = 64;
        }
        {
          queries::SsspOptions opts;
          opts.sources = sources;
          opts.tuning = tuning;
          opts.collect_distances = true;
          auto r = run_sssp(comm, g, opts);
          if (comm.rank() == 0) {
            rows[leg][0] = std::move(r.distances);
            hot_iters[leg][0] = r.run.skew.hot_iterations;
          }
        }
        {
          queries::CcOptions opts;
          opts.tuning = tuning;
          opts.collect_labels = true;
          auto r = run_cc(comm, g, opts);
          if (comm.rank() == 0) rows[leg][1] = std::move(r.labels);
        }
        {
          queries::PagerankOptions opts;
          opts.rounds = 6;
          opts.tuning = tuning;
          opts.collect_ranks = true;
          auto r = run_pagerank(comm, g, opts);
          if (comm.rank() == 0) {
            rows[leg][2] = std::move(r.ranks);
            hot_iters[leg][2] = r.run.skew.hot_iterations;
          }
        }
      });
    }
    for (int q = 0; q < 3; ++q) {
      ASSERT_FALSE(rows[0][q].empty()) << "ranks=" << ranks << " query " << q;
      EXPECT_EQ(rows[1][q], rows[0][q]) << "ranks=" << ranks << " query " << q;
      EXPECT_EQ(hot_iters[0][q], 0u);
    }
    // The planted hub must actually engage the hybrid plan on both join
    // queries — otherwise this test would pass vacuously.
    EXPECT_GT(hot_iters[1][0], 0u) << "sssp never went hybrid at " << ranks;
    EXPECT_GT(hot_iters[1][2], 0u) << "pagerank never went hybrid at " << ranks;
  }
}

}  // namespace
}  // namespace paralagg
