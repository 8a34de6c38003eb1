// Relation: config validation, double-hashed distribution, staging, fused
// dedup/aggregation against a reference fold, fact loading, reshuffling.

#include "core/relation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "vmpi/runtime.hpp"

namespace paralagg::core {
namespace {

RelationConfig plain2(const char* name = "r") {
  return {.name = name, .arity = 2, .jcc = 1};
}

RelationConfig min3(const char* name = "agg") {
  return {.name = name,
          .arity = 3,
          .jcc = 1,
          .dep_arity = 1,
          .aggregator = make_min_aggregator()};
}

TEST(RelationConfig, RejectsMalformedShapes) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 0, .jcc = 1}), std::invalid_argument);
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 2, .jcc = 0}), std::invalid_argument);
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 2, .jcc = 3}), std::invalid_argument);
    // Aggregated relation without an aggregator.
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 2, .jcc = 1, .dep_arity = 1}),
                 std::invalid_argument);
    // All columns dependent: no independent key left.
    EXPECT_THROW(Relation(comm, {.name = "x",
                                 .arity = 1,
                                 .jcc = 1,
                                 .dep_arity = 1,
                                 .aggregator = make_min_aggregator()}),
                 std::invalid_argument);
    // dep_arity mismatch with the aggregator.
    EXPECT_THROW(Relation(comm, {.name = "x",
                                 .arity = 4,
                                 .jcc = 1,
                                 .dep_arity = 2,
                                 .aggregator = make_min_aggregator()}),
                 std::invalid_argument);
  });
}

TEST(RelationConfig, RejectsJoinOnAggregatedColumns) {
  // The paper's structural restriction (§III-A): join columns must be
  // independent.
  vmpi::run(1, [&](vmpi::Comm& comm) {
    EXPECT_THROW(Relation(comm, {.name = "x",
                                 .arity = 3,
                                 .jcc = 3,
                                 .dep_arity = 1,
                                 .aggregator = make_min_aggregator()}),
                 std::invalid_argument);
  });
}

TEST(Relation, DistributionIsDeterministicAndInRange) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    for (value_t v = 0; v < 200; ++v) {
      const Tuple t{v, v * 3};
      const auto b = r.bucket_of(t.view());
      EXPECT_LT(b, r.num_buckets());
      EXPECT_EQ(b, r.bucket_of(t.view()));  // stable
      const int owner = r.owner_rank(t.view());
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, comm.size());
    }
  });
}

TEST(Relation, BucketDependsOnlyOnJoinColumns) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    EXPECT_EQ(r.bucket_of(Tuple{5, 1}.view()), r.bucket_of(Tuple{5, 999}.view()));
  });
}

TEST(Relation, AggregatedOwnerIgnoresDependentColumn) {
  // The communication-avoiding property: tuples agreeing on independent
  // columns co-locate regardless of the partial aggregate they carry —
  // even with sub-bucketing enabled.
  vmpi::run(8, [&](vmpi::Comm& comm) {
    auto cfg = min3();
    cfg.sub_buckets = 4;
    Relation r(comm, cfg);
    for (value_t a = 0; a < 50; ++a) {
      for (value_t b = 0; b < 5; ++b) {
        const int owner = r.owner_rank(Tuple{a, b, 0}.view());
        for (value_t dep : {1ULL, 17ULL, 123456789ULL}) {
          EXPECT_EQ(r.owner_rank(Tuple{a, b, dep}.view()), owner);
        }
      }
    }
  });
}

TEST(Relation, SubBucketsSpreadABucketAcrossRanks) {
  vmpi::run(8, [&](vmpi::Comm& comm) {
    auto cfg = plain2();
    cfg.sub_buckets = 8;
    Relation r(comm, cfg);
    // All tuples share join column 0 -> one bucket; sub-bucketing must
    // spread them over several ranks.
    std::set<int> owners;
    for (value_t v = 0; v < 200; ++v) owners.insert(r.owner_rank(Tuple{42, v}.view()));
    EXPECT_GT(owners.size(), 4u);

    std::vector<int> bucket_ranks;
    r.ranks_of_bucket(r.bucket_of(Tuple{42, 0}.view()), bucket_ranks);
    for (int o : owners) {
      EXPECT_NE(std::find(bucket_ranks.begin(), bucket_ranks.end(), o), bucket_ranks.end());
    }
  });
}

TEST(Relation, NoSubBucketColumnsClampsToOne) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    // arity 2, jcc 1, dep 1: independent columns == join columns, so H2 has
    // no input and sub_buckets must clamp to 1.
    Relation r(comm, {.name = "cc",
                      .arity = 2,
                      .jcc = 1,
                      .dep_arity = 1,
                      .aggregator = make_min_aggregator(),
                      .sub_buckets = 8});
    EXPECT_EQ(r.sub_buckets(), 1);
  });
}

TEST(Relation, PlainMaterializeDeduplicates) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    r.stage(Tuple{1, 2}.view());
    r.stage(Tuple{1, 2}.view());  // duplicate within iteration
    r.stage(Tuple{3, 4}.view());
    auto m1 = r.materialize();
    EXPECT_EQ(m1.staged, 2u);  // pre-deduplicated in staging
    EXPECT_EQ(m1.inserted, 2u);
    EXPECT_EQ(m1.delta_size, 2u);

    r.stage(Tuple{1, 2}.view());  // duplicate across iterations
    r.stage(Tuple{5, 6}.view());
    auto m2 = r.materialize();
    EXPECT_EQ(m2.inserted, 1u);
    EXPECT_EQ(m2.rejected, 1u);
    EXPECT_EQ(r.local_size(Version::kFull), 3u);
    EXPECT_EQ(r.local_size(Version::kDelta), 1u);
  });
}

TEST(Relation, FusedAggregationCollapsesWithinIteration) {
  // Paper §IV-A: local aggregation collapses duplicates of a key before
  // they ever touch the B-tree — in materialize()'s sort-fold.
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.stage(Tuple{1, 2, 50}.view());
    r.stage(Tuple{1, 2, 30}.view());
    r.stage(Tuple{1, 2, 40}.view());
    auto m = r.materialize();
    EXPECT_EQ(m.staged, 1u);  // one key
    EXPECT_EQ(m.inserted, 1u);
    const value_t key[] = {1, 2};
    const auto row = r.tree(Version::kFull).find_key(std::span<const value_t>(key, 2));
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(row[2], 30u);
  });
}

TEST(Relation, FusedAggregationAscendsAcrossIterations) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.stage(Tuple{1, 2, 50}.view());
    r.materialize();

    // Worse value: rejected, no delta (Fig. 1 top right).
    r.stage(Tuple{1, 2, 70}.view());
    auto worse = r.materialize();
    EXPECT_EQ(worse.rejected, 1u);
    EXPECT_EQ(worse.delta_size, 0u);

    // Better value: accumulator overwritten in place, delta row emitted.
    r.stage(Tuple{1, 2, 20}.view());
    auto better = r.materialize();
    EXPECT_EQ(better.updated, 1u);
    EXPECT_EQ(better.delta_size, 1u);
    const value_t key[] = {1, 2};
    EXPECT_EQ(r.tree(Version::kFull).find_key(std::span<const value_t>(key, 2))[2], 20u);
    EXPECT_EQ(r.local_size(Version::kFull), 1u);  // collapsed, not accumulated
  });
}

TEST(Relation, MaterializeMatchesReferenceFold) {
  // materialize() against a std::map fold, for plain, MIN-lattice and
  // SUM-refresh relations keyed on (a, b).  Batches alternate between runs
  // large against full (merge path) and small ones (per-key path); the
  // duplicate-heavy batch makes staging fold in place.
  enum class Kind { kPlain, kMin, kSumRefresh };
  struct Batch {
    std::size_t rows;
    value_t keys;  // rows draw their key from [0, keys)
  };
  const Batch batches[] = {{3000, 4096}, {20, 4096}, {6000, 4096},   {40, 4096},
                           {20000, 300}, {5, 4096},  {12000, 16384}, {1, 4096}};
  for (const Kind kind : {Kind::kPlain, Kind::kMin, Kind::kSumRefresh}) {
    SCOPED_TRACE(static_cast<int>(kind));
    vmpi::run(1, [&](vmpi::Comm& comm) {
      RelationConfig cfg = kind == Kind::kPlain ? plain2() : min3();
      if (kind == Kind::kSumRefresh) {
        cfg.aggregator = make_sum_aggregator();
        cfg.agg_mode = AggMode::kRefresh;
      }
      Relation r(comm, cfg);
      using Key = std::pair<value_t, value_t>;
      std::map<Key, value_t> full;  // plain relations store 0
      value_t state = 99;
      const auto rnd = [&](value_t bound) {
        state = storage::mix64(state);
        return state % bound;
      };
      int per_key = 0, merged = 0;
      for (const Batch& b : batches) {
        std::map<Key, value_t> folded;
        for (std::size_t i = 0; i < b.rows; ++i) {
          const value_t k = rnd(b.keys);
          const Key key{k % 64, k / 64};
          const value_t dep = rnd(1000);
          if (kind == Kind::kPlain) {
            r.stage(Tuple{key.first, key.second}.view());
            folded.emplace(key, 0);
          } else {
            r.stage(Tuple{key.first, key.second, dep}.view());
            auto [it, fresh] = folded.emplace(key, dep);
            if (!fresh) {
              it->second = kind == Kind::kMin ? std::min(it->second, dep) : it->second + dep;
            }
          }
          // Staging never holds much more than twice its distinct keys.
          ASSERT_LT(r.staged_count(),
                    std::max(Relation::kFoldFloor, 2 * folded.size() + 1));
        }
        (folded.size() * Relation::kPerKeyRatio < full.size() ? per_key : merged)++;

        std::map<Key, value_t> delta;
        std::uint64_t updated = 0;
        if (kind == Kind::kSumRefresh) {
          full = folded;
        } else {
          for (const auto& [key, dep] : folded) {
            auto [it, fresh] = full.emplace(key, dep);
            if (fresh) {
              delta.emplace(key, dep);
            } else if (dep < it->second) {  // only MIN can ascend a stored key
              it->second = dep;
              delta.emplace(key, dep);
              ++updated;
            }
          }
        }
        const auto m = r.materialize();
        EXPECT_EQ(m.staged, folded.size());
        EXPECT_EQ(m.updated, updated);
        EXPECT_EQ(m.inserted,
                  kind == Kind::kSumRefresh ? folded.size() : delta.size() - updated);
        EXPECT_EQ(m.rejected, kind == Kind::kSumRefresh ? 0 : folded.size() - delta.size());
        EXPECT_EQ(m.delta_size, delta.size());
        EXPECT_EQ(r.staged_count(), 0u);

        const auto contents = [&](Version v) {
          std::map<Key, value_t> got;
          EXPECT_EQ(r.tree(v).check_invariants(), r.local_size(v));
          r.tree(v).for_each([&](std::span<const value_t> row) {
            got.emplace(Key{row[0], row[1]}, kind == Kind::kPlain ? 0 : row[2]);
          });
          return got;
        };
        EXPECT_EQ(contents(Version::kFull), full);
        EXPECT_EQ(contents(Version::kDelta), delta);
      }
      if (kind != Kind::kSumRefresh) {
        EXPECT_GT(per_key, 0);
        EXPECT_GT(merged, 0);
      }
    });
  }
}

TEST(Relation, RefreshModeReplacesState) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "rank",
                      .arity = 2,
                      .jcc = 1,
                      .dep_arity = 1,
                      .aggregator = make_sum_aggregator(),
                      .agg_mode = AggMode::kRefresh});
    r.stage(Tuple{1, 10}.view());
    r.stage(Tuple{1, 5}.view());  // summed within the round
    r.stage(Tuple{2, 7}.view());
    r.materialize();
    const value_t k1[] = {1};
    EXPECT_EQ(r.tree(Version::kFull).find_key(std::span<const value_t>(k1, 1))[1], 15u);

    // Next round: key 2 not restaged -> dropped (Jacobi replacement).
    r.stage(Tuple{1, 3}.view());
    r.materialize();
    EXPECT_EQ(r.tree(Version::kFull).find_key(std::span<const value_t>(k1, 1))[1], 3u);
    const value_t k2[] = {2};
    EXPECT_TRUE(r.tree(Version::kFull).find_key(std::span<const value_t>(k2, 1)).empty());
  });
}

TEST(Relation, LoadFactsRoutesToOwners) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    // Every rank contributes a disjoint slice.
    std::vector<Tuple> slice;
    for (value_t v = static_cast<value_t>(comm.rank()); v < 100;
         v += static_cast<value_t>(comm.size())) {
      slice.push_back(Tuple{v, v + 1});
    }
    r.load_facts(slice);
    EXPECT_EQ(r.global_size(Version::kFull), 100u);
    EXPECT_EQ(r.global_size(Version::kDelta), 100u);  // delta == initial facts
    // Every local tuple is owned by this rank.
    r.tree(Version::kFull).for_each([&](std::span<const value_t> t) {
      EXPECT_EQ(r.owner_rank(t), comm.rank());
    });
  });
}

TEST(Relation, GatherToRootCollectsEverythingSorted) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 50; ++v) slice.push_back(Tuple{v, v * 2});
    }
    r.load_facts(slice);
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 50u);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
      EXPECT_EQ(rows[10], (Tuple{10, 20}));
    } else {
      EXPECT_TRUE(rows.empty());
    }
  });
}

TEST(Relation, ReshuffleKeepsContentAndMovesOwnership) {
  vmpi::run(8, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2("skewed"));
    // Hot key 7: everything in one bucket.
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 400; ++v) slice.push_back(Tuple{7, v});
    }
    r.load_facts(slice);
    const auto before_max =
        comm.allreduce<std::uint64_t>(r.local_size(Version::kFull), vmpi::ReduceOp::kMax);
    EXPECT_EQ(before_max, 400u);  // all on one rank

    r.reshuffle_to_sub_buckets(8);
    EXPECT_EQ(r.global_size(Version::kFull), 400u);
    EXPECT_EQ(r.global_size(Version::kDelta), 400u);  // delta travels too
    const auto after_max =
        comm.allreduce<std::uint64_t>(r.local_size(Version::kFull), vmpi::ReduceOp::kMax);
    EXPECT_LT(after_max, 200u);  // spread out
    // Ownership must be consistent under the new mapping.
    r.tree(Version::kFull).for_each([&](std::span<const value_t> t) {
      EXPECT_EQ(r.owner_rank(t), comm.rank());
    });
  });
}

TEST(Relation, CheckpointRoundTrips) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_test.bin";
  std::vector<Tuple> expected;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    for (value_t v = static_cast<value_t>(comm.rank()); v < 200;
         v += static_cast<value_t>(comm.size())) {
      slice.push_back(Tuple{v, v * 7});
    }
    r.load_facts(slice);
    r.save_checkpoint(path);
    const auto rows = r.gather_to_root(0);  // collective
    if (comm.rank() == 0) expected = rows;
  });
  // Reload at a *different* rank count and sub-bucket layout.
  vmpi::run(3, [&](vmpi::Comm& comm) {
    auto cfg = plain2();
    cfg.sub_buckets = 4;
    Relation r(comm, cfg);
    r.load_checkpoint(path);
    EXPECT_EQ(r.global_size(Version::kFull), 200u);
    EXPECT_EQ(r.global_size(Version::kDelta), 200u);  // reload seeds the delta
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(rows, expected);
    }
  });
  std::remove(path.c_str());
}

TEST(Relation, CheckpointAggregatedRelation) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_agg.bin";
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      slice = {Tuple{1, 2, 50}, Tuple{1, 2, 30}, Tuple{3, 4, 7}};
    }
    r.load_facts(slice);
    r.save_checkpoint(path);
  });
  vmpi::run(5, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.load_checkpoint(path);
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_EQ(rows[0], (Tuple{1, 2, 30}));  // collapsed accumulator survived
      EXPECT_EQ(rows[1], (Tuple{3, 4, 7}));
    }
  });
  std::remove(path.c_str());
}

TEST(Relation, CheckpointLoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    EXPECT_THROW(r.load_checkpoint(path), std::runtime_error);
  });
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    EXPECT_THROW(r.load_checkpoint("/nonexistent/nope.bin"), std::runtime_error);
  });
  std::remove(path.c_str());
}

TEST(Relation, CheckpointArityMismatchRejected) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_arity.bin";
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) slice = {Tuple{1, 2}};
    r.load_facts(slice);
    r.save_checkpoint(path);
  });
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r3(comm, {.name = "r3", .arity = 3, .jcc = 1});
    EXPECT_THROW(r3.load_checkpoint(path), std::runtime_error);
  });
  std::remove(path.c_str());
}

TEST(Relation, ReshuffleToSameFanoutIsNoop) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) slice.push_back(Tuple{1, 2});
    r.load_facts(slice);
    EXPECT_EQ(r.reshuffle_to_sub_buckets(1), 0u);
    EXPECT_EQ(r.global_size(Version::kFull), 1u);
  });
}

}  // namespace
}  // namespace paralagg::core
