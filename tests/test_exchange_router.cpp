// Exchange fusion: the router's R+1 collective rounds per iteration vs the
// legacy 2R schedule, sender-side pre-aggregation, the cross-flush
// dominance filter and the loopback fast path, observability through
// CommStats/ProfileSummary/RunResult, and bit-identical query results
// across fuse × exchange-algorithm modes.

#include "core/exchange_router.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "queries/cc.hpp"
#include "queries/pagerank.hpp"
#include "queries/reference.hpp"
#include "queries/sssp.hpp"
#include "queries/tc.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg::core {
namespace {

// ---------------------------------------------------------------------------
// Router unit behaviour
// ---------------------------------------------------------------------------

/// Smallest key >= 0 whose unary-prefix tuple `rel` assigns to `rank`.
value_t key_owned_by(const Relation& rel, int rank) {
  for (value_t k = 0;; ++k) {
    const Tuple probe{k, 0, 0};
    if (rel.owner_rank(probe.view()) == rank) return k;
  }
}

TEST(ExchangeRouter, LoopbackAndSenderSidePreaggregation) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation rel(comm, {.name = "m",
                        .arity = 3,
                        .jcc = 1,
                        .dep_arity = 1,
                        .aggregator = make_min_aggregator()});
    RankProfile profile;
    ExchangeRouter router(comm, /*preaggregate=*/true);
    const auto id = router.add_target(&rel);
    EXPECT_EQ(router.add_target(&rel), id);  // idempotent registration

    const value_t mine = key_owned_by(rel, comm.rank());
    const value_t theirs = key_owned_by(rel, 1 - comm.rank());

    // Self-owned row: staged immediately, never buffered.
    router.emit(id, Tuple{mine, 7, 50}.view());
    EXPECT_EQ(router.pending_rows(), 0u);

    // Two remote rows with the same aggregation key (theirs, 7): the
    // sender-side combine must fold them to MIN before the wire.
    router.emit(id, Tuple{theirs, 7, 50}.view());
    router.emit(id, Tuple{theirs, 7, 30}.view());
    EXPECT_EQ(router.pending_rows(), 2u);

    const auto st = router.flush(profile, ExchangeAlgorithm::kDense);
    EXPECT_EQ(st.rows_loopback, 1u);
    EXPECT_EQ(st.rows_combined, 1u);
    EXPECT_EQ(st.rows_sent, 1u);
    EXPECT_EQ(st.rows_staged, 1u);  // the peer's pre-combined row
    EXPECT_EQ(router.pending_rows(), 0u);

    rel.materialize();
    // Each rank owns one key, carrying min(50, 30) from the peer merged
    // with its own loopback 50.
    const auto rows = rel.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 2u);
      for (const auto& row : rows) {
        EXPECT_EQ(row[1], 7u);
        EXPECT_EQ(row[2], 30u);
      }
    }
  });
}

TEST(ExchangeRouter, PlainTargetsDeduplicateBeforeTheWire) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation rel(comm, {.name = "p", .arity = 3, .jcc = 1});
    RankProfile profile;
    ExchangeRouter router(comm, /*preaggregate=*/true);
    const auto id = router.add_target(&rel);

    const value_t theirs = key_owned_by(rel, 1 - comm.rank());
    router.emit(id, Tuple{theirs, 1, 2}.view());
    router.emit(id, Tuple{theirs, 1, 2}.view());  // exact duplicate
    router.emit(id, Tuple{theirs, 1, 3}.view());  // distinct third column

    const auto st = router.flush(profile, ExchangeAlgorithm::kDense);
    EXPECT_EQ(st.rows_combined, 1u);
    EXPECT_EQ(st.rows_sent, 2u);
    EXPECT_EQ(st.rows_staged, 2u);

    rel.materialize();
    EXPECT_EQ(rel.global_size(Version::kFull), 4u);
  });
}

// ---------------------------------------------------------------------------
// Emit-time bucket folds
// ---------------------------------------------------------------------------

enum class FoldTarget { kMin, kSum, kPlain };

RelationConfig fold_target_config(FoldTarget kind) {
  switch (kind) {
    case FoldTarget::kMin:
      return {.name = "fmin", .arity = 3, .jcc = 1, .dep_arity = 1,
              .aggregator = make_min_aggregator()};
    case FoldTarget::kSum:
      return {.name = "fsum", .arity = 3, .jcc = 1, .dep_arity = 1,
              .aggregator = make_sum_aggregator(), .agg_mode = AggMode::kRefresh};
    case FoldTarget::kPlain:
      break;
  }
  return {.name = "fplain", .arity = 3, .jcc = 1};
}

/// Emit duplicate-heavy rows, all owned by the peer, in several flushes
/// through a router with and without pre-aggregation; check the fold and
/// dominance accounting, that both stage the same fixpoint, and that it is
/// the std::map fold of what the peer emitted.
void expect_emit_time_folds(FoldTarget kind) {
  constexpr std::size_t kFlushes = 3;
  const std::size_t chunk = Relation::kFoldFloor + 17;
  const std::size_t rows = kFlushes * chunk;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation folded(comm, fold_target_config(kind));
    Relation reference(comm, fold_target_config(kind));
    RankProfile profile;
    ExchangeRouter router(comm, /*preaggregate=*/true);
    ExchangeRouter append_only(comm, /*preaggregate=*/false);
    const auto id = router.add_target(&folded);
    const auto ref_id = append_only.add_target(&reference);
    EXPECT_EQ(router.filters_dominated(id), kind == FoldTarget::kMin);
    EXPECT_FALSE(append_only.filters_dominated(ref_id));

    const auto keys_of = [&](int rank) {  // the first 97 join keys `rank` owns
      std::vector<value_t> keys;
      for (value_t k = 0; keys.size() < 97; ++k) {
        if (folded.owner_rank(Tuple{k, 0, 0}.view()) == rank) keys.push_back(k);
      }
      return keys;
    };
    // Plain rows repeat whole; aggregated ones repeat their key with a
    // varying aggregate.
    const auto row_at = [&](const std::vector<value_t>& keys, std::size_t i) {
      const value_t dep = kind == FoldTarget::kPlain ? 0 : (i * 7919) % 1000;
      return Tuple{keys[i % keys.size()], i % 3, dep};
    };
    const auto theirs = keys_of(1 - comm.rank());
    RouterTotals total;
    for (std::size_t f = 0; f < kFlushes; ++f) {
      for (std::size_t i = f * chunk; i < (f + 1) * chunk; ++i) {
        const Tuple row = row_at(theirs, i);
        router.emit(id, row.view());
        append_only.emit(ref_id, row.view());
      }
      // Folds fired while emitting, and what is left is a bounded buffer.
      EXPECT_LT(router.pending_rows(), chunk);
      EXPECT_LE(router.pending_rows(), 2 * Relation::kFoldFloor);
      // Without pre-aggregation every emitted row stays buffered and is
      // sent: serving's per-event support counts depend on it.
      EXPECT_EQ(append_only.pending_rows(), chunk);

      const auto st = router.flush(profile, ExchangeAlgorithm::kDense);
      total += st;
      EXPECT_EQ(router.pending_rows(), 0u);
      const auto ref_st = append_only.flush(profile, ExchangeAlgorithm::kDense);
      EXPECT_EQ(ref_st.rows_sent, chunk);
      EXPECT_EQ(ref_st.rows_combined, 0u);
      EXPECT_EQ(ref_st.rows_dominated, 0u);
      EXPECT_EQ(ref_st.rows_staged, chunk);
    }
    // Every emitted row was sent, folded into another, or dropped as
    // dominated by what an earlier flush sent.
    EXPECT_EQ(total.rows_sent + total.rows_combined + total.rows_dominated, rows);
    // Each flush folds to one row per (key, column 1); only MIN's repeats
    // across flushes can be dominated.
    EXPECT_EQ(total.rows_sent + total.rows_dominated, kFlushes * 97u * 3u);
    if (kind == FoldTarget::kMin) {
      EXPECT_GT(total.rows_dominated, 0u);
    } else {
      EXPECT_EQ(total.rows_dominated, 0u);
    }

    folded.materialize();
    reference.materialize();
    const auto got = folded.gather_to_root(0);
    const auto want = reference.gather_to_root(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(got, want);
      EXPECT_EQ(got.size(), 2u * 97u * 3u);
    }

    // The peer emitted the same sequence over this rank's keys.
    const auto mine = keys_of(comm.rank());
    std::map<std::pair<value_t, value_t>, value_t> oracle;
    for (std::size_t i = 0; i < rows; ++i) {
      const Tuple row = row_at(mine, i);
      const auto [it, fresh] = oracle.emplace(std::pair{row[0], row[1]}, row[2]);
      if (!fresh && kind == FoldTarget::kMin) it->second = std::min(it->second, row[2]);
      if (!fresh && kind == FoldTarget::kSum) it->second += row[2];
    }
    std::vector<Tuple> local;
    folded.tree(Version::kFull).for_each(
        [&](std::span<const value_t> t) { local.emplace_back(t); });
    ASSERT_EQ(local.size(), oracle.size());
    std::size_t at = 0;
    for (const auto& [key, dep] : oracle) {
      EXPECT_EQ(local[at++], (Tuple{key.first, key.second, dep}));
    }
  });
}

TEST(ExchangeRouter, EmitTimeFoldsAccountAndMatchUnfoldedMin) {
  expect_emit_time_folds(FoldTarget::kMin);
}

TEST(ExchangeRouter, EmitTimeFoldsAccountAndMatchUnfoldedSum) {
  expect_emit_time_folds(FoldTarget::kSum);
}

TEST(ExchangeRouter, EmitTimeFoldsAccountAndMatchUnfoldedPlain) {
  expect_emit_time_folds(FoldTarget::kPlain);
}

// ---------------------------------------------------------------------------
// Cross-flush dominance filter
// ---------------------------------------------------------------------------

/// Each of 2 ranks sends the peer's first key one row per flush, (theirs,
/// 1, dep) for each dep in turn, through a router with `preaggregate` and
/// through an append-only reference, materializing after every flush like
/// an iteration.  Both must reach the same fixpoint; returns rank 0's
/// per-flush stats (the ranks are symmetric).
std::vector<RouterFlushStats> send_across_flushes(const RelationConfig& cfg, bool preaggregate,
                                                  const std::vector<value_t>& deps) {
  std::vector<RouterFlushStats> flushes;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation rel(comm, cfg);
    Relation reference(comm, cfg);
    RankProfile profile;
    ExchangeRouter router(comm, preaggregate);
    ExchangeRouter append_only(comm, /*preaggregate=*/false);
    const auto id = router.add_target(&rel);
    const auto ref_id = append_only.add_target(&reference);
    const value_t theirs = key_owned_by(rel, 1 - comm.rank());
    for (const value_t dep : deps) {
      router.emit(id, Tuple{theirs, 1, dep}.view());
      append_only.emit(ref_id, Tuple{theirs, 1, dep}.view());
      const auto st = router.flush(profile, ExchangeAlgorithm::kDense);
      append_only.flush(profile, ExchangeAlgorithm::kDense);
      rel.materialize();
      reference.materialize();
      if (comm.rank() == 0) flushes.push_back(st);
    }
    const auto got = rel.gather_to_root(0);
    const auto want = reference.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got, want);
    }
  });
  return flushes;
}

RelationConfig min_target(AggMode mode = AggMode::kLattice) {
  return {.name = "dmin", .arity = 3, .jcc = 1, .dep_arity = 1,
          .aggregator = make_min_aggregator(), .agg_mode = mode};
}

TEST(DominanceFilter, PerRowCheckAndBatchWalkDropTheSameRows) {
  // The async loop checks one row at a time, the router walks a folded
  // bucket with probes in flight; both must drop exactly the rows a plain
  // map of "⊔ shipped per key" absorbs.  Batches grow past several rehashes
  // and revisit old keys with better, equal and worse values.
  for (const auto& agg : {make_min_aggregator(), make_bitor_aggregator()}) {
    SCOPED_TRACE(std::string(agg->name()));
    ShippedRun per_row(3, 2, agg.get());
    ShippedRun batch(3, 2, agg.get());
    std::map<std::pair<value_t, value_t>, value_t> shipped;
    std::uint64_t hits_row = 0;
    std::uint64_t hits_batch = 0;
    std::uint64_t dropped_total = 0;
    value_t seq = 0;
    for (std::size_t b = 0; b < 12; ++b) {
      FoldRun run(3, 2, agg.get());
      const std::size_t rows = 40 + 300 * b;
      for (std::size_t i = 0; i < rows; ++i, ++seq) {
        const value_t h = storage::mix64(seq);
        run.append(Tuple{h % (64 + 200 * b), (h >> 20) % 3, 1 + (h >> 32) % 16}.view());
      }
      run.fold();
      std::vector<value_t> want;
      std::vector<value_t> kept_row;
      std::uint64_t want_hits = 0;
      for (std::size_t off = 0; off < run.values().size(); off += 3) {
        const std::span<const value_t> row(run.values().data() + off, 3);
        const auto key = std::make_pair(row[0], row[1]);
        bool drop = false;
        if (const auto it = shipped.find(key); it != shipped.end()) {
          ++want_hits;
          value_t joined = 0;
          agg->partial_agg(std::span<const value_t>(&it->second, 1), row.subspan(2),
                           std::span<value_t>(&joined, 1));
          drop = joined == it->second;
          it->second = joined;
        } else {
          shipped.emplace(key, row[2]);
        }
        if (!drop) want.insert(want.end(), row.begin(), row.end());
        if (!per_row.dominated(row, hits_row)) {
          kept_row.insert(kept_row.end(), row.begin(), row.end());
        }
      }
      const std::uint64_t before = hits_batch;
      dropped_total += batch.filter(run, hits_batch);
      EXPECT_EQ(kept_row, want) << "batch " << b;
      EXPECT_EQ(std::vector<value_t>(run.values().begin(), run.values().end()), want)
          << "batch " << b;
      EXPECT_EQ(hits_batch - before, want_hits) << "batch " << b;
      EXPECT_EQ(hits_row, hits_batch) << "batch " << b;
    }
    EXPECT_GT(dropped_total, 0u);
  }
}

TEST(DominanceFilter, MinRepeatNoBetterThanShippedIsDropped) {
  const auto flushes = send_across_flushes(min_target(), /*preaggregate=*/true, {5, 7, 3});
  ASSERT_EQ(flushes.size(), 3u);
  EXPECT_EQ(flushes[0].rows_sent, 1u);  // (k, 5): first sight of k
  EXPECT_EQ(flushes[0].rows_dominated, 0u);
  EXPECT_EQ(flushes[1].rows_sent, 0u);  // (k, 7): min(5, 7) == 5 was shipped
  EXPECT_EQ(flushes[1].rows_dominated, 1u);
  EXPECT_EQ(flushes[1].rows_staged, 0u);
  EXPECT_EQ(flushes[2].rows_sent, 1u);  // (k, 3): better than anything shipped
  EXPECT_EQ(flushes[2].rows_dominated, 0u);
}

TEST(DominanceFilter, BitorShipsIncomparableValuesAndDropsSubsetsOfTheUnion) {
  const RelationConfig cfg{.name = "dor", .arity = 3, .jcc = 1, .dep_arity = 1,
                           .aggregator = make_bitor_aggregator()};
  // {0} and {1} are incomparable; {0} and {0,1} are subsets of their
  // union; {2} is new information again.
  const auto flushes = send_across_flushes(cfg, /*preaggregate=*/true, {1, 2, 1, 3, 4});
  ASSERT_EQ(flushes.size(), 5u);
  const std::array<std::uint64_t, 5> sent{1, 1, 0, 0, 1};
  for (std::size_t f = 0; f < flushes.size(); ++f) {
    EXPECT_EQ(flushes[f].rows_sent, sent[f]) << "flush " << f;
    EXPECT_EQ(flushes[f].rows_dominated, 1 - sent[f]) << "flush " << f;
  }
}

TEST(DominanceFilter, NonIdempotentRefreshPlainAndAppendOnlyTargetsSendEveryRow) {
  const RelationConfig sum{.name = "dsum", .arity = 3, .jcc = 1, .dep_arity = 1,
                           .aggregator = make_sum_aggregator()};
  const RelationConfig plain{.name = "dplain", .arity = 3, .jcc = 1};
  const std::vector<std::pair<RelationConfig, bool>> legs{
      {sum, true},                              // SUM is not idempotent
      {min_target(AggMode::kRefresh), true},    // refresh replaces stored values
      {plain, true},                            // plain targets stay as they are
      {min_target(), false},                    // no pre-aggregation, no filter
  };
  for (const auto& [cfg, preaggregate] : legs) {
    // Under the filter, MIN would drop the 7 and the second 5.
    const auto flushes = send_across_flushes(cfg, preaggregate, {5, 7, 5});
    ASSERT_EQ(flushes.size(), 3u);
    for (const auto& st : flushes) {
      EXPECT_EQ(st.rows_sent, 1u) << cfg.name << " preaggregate=" << preaggregate;
      EXPECT_EQ(st.rows_dominated, 0u) << cfg.name << " preaggregate=" << preaggregate;
    }
  }
}

TEST(DominanceFilter, LowYieldHistoryIsReleasedAndAnswersStayExact) {
  // Every rank sends 4096 of the peer's keys, then improves every one of
  // them: 4096 key hits, none dominated, so the history is released.  The
  // third flush repeats worse values, which a live filter would drop; the
  // released router sends them all, and the fixpoint is still exact.
  const std::size_t keys_per_rank = DominanceFilter::kReleaseMinHits;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation rel(comm, min_target());
    Relation reference(comm, min_target());
    RankProfile profile;
    ExchangeRouter router(comm, /*preaggregate=*/true);
    ExchangeRouter append_only(comm, /*preaggregate=*/false);
    const auto id = router.add_target(&rel);
    const auto ref_id = append_only.add_target(&reference);
    std::vector<value_t> theirs;
    for (value_t k = 0; theirs.size() < keys_per_rank; ++k) {
      if (rel.owner_rank(Tuple{k, 0, 0}.view()) != comm.rank()) theirs.push_back(k);
    }
    const auto flush_all = [&](value_t dep) {
      for (const value_t k : theirs) {
        router.emit(id, Tuple{k, 1, dep}.view());
        append_only.emit(ref_id, Tuple{k, 1, dep}.view());
      }
      const auto st = router.flush(profile, ExchangeAlgorithm::kDense);
      append_only.flush(profile, ExchangeAlgorithm::kDense);
      rel.materialize();
      reference.materialize();
      return st;
    };
    EXPECT_EQ(flush_all(50).rows_sent, keys_per_rank);
    EXPECT_TRUE(router.filters_dominated(id));
    const auto improved = flush_all(40);
    EXPECT_EQ(improved.rows_sent, keys_per_rank);
    EXPECT_EQ(improved.rows_dominated, 0u);
    EXPECT_FALSE(router.filters_dominated(id));
    const auto worse = flush_all(45);
    EXPECT_EQ(worse.rows_sent, keys_per_rank);
    EXPECT_EQ(worse.rows_dominated, 0u);

    const auto got = rel.gather_to_root(0);
    const auto want = reference.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(got.size(), 2 * keys_per_rank);
      EXPECT_EQ(got, want);
      for (const auto& row : got) EXPECT_EQ(row[2], 40u);
    }
  });
}

TEST(DominanceFilter, SsspUnderBalancerAndSkewReportsDropsAndMatchesDijkstra) {
  // A planted super-hub trips the hot-key layout (rows of the target
  // respread with their stored values) and the balancer reshuffles the
  // edges; the filter must stay exact through both.
  auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 31});
  graph::plant_hub(g, 0.3, 0, 5);
  const auto sources = g.pick_hubs(4);
  const auto oracle = queries::reference::sssp(g, sources);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = sources;
    opts.collect_distances = true;
    opts.tuning.engine.balance.enabled = true;
    opts.tuning.engine.skew.enabled = true;
    opts.tuning.engine.skew.hot_threshold = 64;
    const auto res = queries::run_sssp(comm, g, opts);
    EXPECT_GT(res.run.skew.hot_iterations, 0u);
    EXPECT_GT(res.run.router.rows_dominated, 0u);
    EXPECT_GT(res.run.router.rows_sent, 0u);
    EXPECT_EQ(res.path_count, oracle.size());
    if (comm.rank() == 0) {
      for (const auto& row : res.distances) {
        const auto it = oracle.find({row[1], row[0]});
        ASSERT_NE(it, oracle.end());
        EXPECT_EQ(row[2], it->second);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Collective-round counting: R+1 fused vs 2R legacy
// ---------------------------------------------------------------------------

/// Transitive closure over a chain whose edges are split round-robin into
/// three edge relations: a 3-rule recursive stratum (R = 3).
struct ThreeRuleTc {
  Program program;
  Relation* path;
  std::array<Relation*, 3> edges{};

  ThreeRuleTc(vmpi::Comm& comm, value_t n) : program(comm) {
    for (int k = 0; k < 3; ++k) {
      edges[static_cast<std::size_t>(k)] = program.relation(
          {.name = "edge" + std::to_string(k), .arity = 2, .jcc = 1});
    }
    path = program.relation({.name = "path", .arity = 2, .jcc = 1});
    auto& s = program.stratum();
    for (auto* e : edges) {
      s.init_rules.push_back(CopyRule{
          .src = e,
          .version = Version::kFull,
          .out = {.target = path, .cols = {Expr::col_a(1), Expr::col_a(0)}},
      });
      s.loop_rules.push_back(JoinRule{
          .a = path,
          .a_version = Version::kDelta,
          .b = e,
          .b_version = Version::kFull,
          .out = {.target = path, .cols = {Expr::col_b(1), Expr::col_a(1)}},
      });
    }
    for (int k = 0; k < 3; ++k) {
      std::vector<Tuple> facts;
      if (comm.rank() == 0) {
        for (value_t v = static_cast<value_t>(k); v + 1 < n; v += 3) {
          facts.push_back(Tuple{v, v + 1});
        }
      }
      edges[static_cast<std::size_t>(k)]->load_facts(facts);
    }
  }
};

void expect_rounds_per_iteration(bool fused) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    ThreeRuleTc f(comm, 10);
    EngineConfig cfg;
    cfg.balance.enabled = false;  // reshuffles would add extra alltoallv calls
    cfg.fuse_exchanges = fused;
    cfg.router_preagg = fused;
    Engine engine(comm, cfg);

    const auto before = comm.stats().exchange_rounds();
    const auto sr = engine.run_stratum(*f.program.strata()[0]);
    const auto rounds = comm.stats().exchange_rounds() - before;

    ASSERT_TRUE(sr.reached_fixpoint);
    ASSERT_EQ(sr.iterations, 9u);  // chain of 10: longest path is 9 hops
    EXPECT_EQ(f.path->global_size(Version::kFull), 45u);

    // Loop iterations: R intra-bucket exchanges stay per join; generated
    // tuples cost one fused flush vs one flush per rule.  The init round
    // (3 copy rules, no intra-bucket exchange) shows the same collapse.
    const std::uint64_t per_iter = fused ? 3 + 1 : 3 + 3;  // R+1 vs 2R
    const std::uint64_t init_rounds = fused ? 1 : 3;
    EXPECT_EQ(rounds, init_rounds + per_iter * sr.iterations);

    // The same reduction must be visible in the cross-rank profile.
    const auto summary = summarize_profiles(comm, engine.rank_profile());
    EXPECT_EQ(summary.exchanges_total(), rounds);
    ASSERT_EQ(summary.per_iteration_exchanges.size(), 1 + sr.iterations);
    EXPECT_EQ(summary.per_iteration_exchanges.front(), init_rounds);
    for (std::size_t i = 1; i < summary.per_iteration_exchanges.size(); ++i) {
      EXPECT_EQ(summary.per_iteration_exchanges[i], per_iter) << "iteration " << i;
    }
  });
}

TEST(ExchangeFusion, FusedStratumPaysRPlusOneRoundsDense) {
  expect_rounds_per_iteration(/*fused=*/true);
}

TEST(ExchangeFusion, LegacyStratumPaysTwoRRoundsDense) {
  expect_rounds_per_iteration(/*fused=*/false);
}

// ---------------------------------------------------------------------------
// Result identity across the fused and per-rule schedules on the prebuilt
// queries
// ---------------------------------------------------------------------------

using queries::QueryTuning;

/// Run `run_one(tuning)` (which returns rank-0 gathered rows) under the
/// fused and the per-rule schedule and require byte-identical output.
template <typename RunOne>
void expect_identical_across_modes(RunOne run_one) {
  QueryTuning per_rule;
  per_rule.engine.fuse_exchanges = per_rule.engine.router_preagg = false;
  EXPECT_EQ(run_one(per_rule), run_one(QueryTuning{}));
}

TEST(ExchangeFusion, SsspIdenticalAcrossModesAndMatchesOracle) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 11});
  const auto oracle = queries::reference::sssp(g, {0});
  expect_identical_across_modes([&](QueryTuning tuning) {
    std::vector<Tuple> rows;
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = {0};
      opts.collect_distances = true;
      opts.tuning = tuning;
      auto res = queries::run_sssp(comm, g, opts);
      EXPECT_EQ(res.path_count, oracle.size());
      if (comm.rank() == 0) {
        for (const auto& row : res.distances) {
          // Stored order (to, from, dist); the oracle keys on (from, to).
          const auto it = oracle.find({row[1], row[0]});
          ASSERT_NE(it, oracle.end());
          EXPECT_EQ(row[2], it->second);
        }
        rows = std::move(res.distances);
      }
    });
    return rows;
  });
}

TEST(ExchangeFusion, CcIdenticalAcrossModesAndMatchesOracle) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 3, .seed = 5});
  const auto oracle_count = queries::reference::cc_count(g);
  expect_identical_across_modes([&](QueryTuning tuning) {
    std::vector<Tuple> rows;
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::CcOptions opts;
      opts.collect_labels = true;
      opts.tuning = tuning;
      auto res = queries::run_cc(comm, g, opts);
      EXPECT_EQ(res.component_count, oracle_count);
      if (comm.rank() == 0) rows = std::move(res.labels);
    });
    return rows;
  });
}

TEST(ExchangeFusion, TcIdenticalAcrossModesAndMatchesOracle) {
  const auto g = graph::make_rmat({.scale = 5, .edge_factor = 3, .seed = 3});
  const auto oracle_size = queries::reference::tc_size(g);
  expect_identical_across_modes([&](QueryTuning tuning) {
    std::vector<Tuple> rows;
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::TcOptions opts;
      opts.collect_pairs = true;
      opts.tuning = tuning;
      auto res = queries::run_tc(comm, g, opts);
      EXPECT_EQ(res.path_count, oracle_size);
      if (comm.rank() == 0) rows = std::move(res.pairs);
    });
    return rows;
  });
}

TEST(ExchangeFusion, PagerankIdenticalAcrossModesAndMatchesOracle) {
  const auto g = graph::make_grid(8, 8);
  const auto oracle = queries::reference::pagerank(g, 10);
  expect_identical_across_modes([&](QueryTuning tuning) {
    std::vector<Tuple> rows;
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::PagerankOptions opts;
      opts.rounds = 10;
      opts.collect_ranks = true;
      opts.tuning = tuning;
      auto res = queries::run_pagerank(comm, g, opts);
      if (comm.rank() == 0) {
        for (const auto& row : res.ranks) {
          ASSERT_LT(row[0], oracle.size());
          EXPECT_EQ(row[1], oracle[row[0]]) << "node " << row[0];
        }
        rows = std::move(res.ranks);
      }
    });
    return rows;
  });
}

}  // namespace
}  // namespace paralagg::core
