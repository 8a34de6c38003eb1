// RA kernels: distributed binary join (intra-bucket replication, local
// join, all-to-all) and copy/project, plus rule validation; and the
// rank-local join kernel (core::LocalJoin) against a nested-loop reference.

#include "core/ra_op.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "core/local_join.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg::core {
namespace {

TEST(ExecuteJoin, JoinsOnPrefixAndRoutesOutputs) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});

    // r = {(k, k*10)}, s = {(k, k*100)} for k in 0..19.
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 20; ++k) {
        rf.push_back(Tuple{k, k * 10});
        sf.push_back(Tuple{k, k * 100});
      }
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
    };
    const auto stats = execute_join(comm, profile, rule);
    out.materialize();

    EXPECT_EQ(out.global_size(Version::kFull), 20u);
    const auto total_matches =
        comm.allreduce<std::uint64_t>(stats.matches, vmpi::ReduceOp::kSum);
    EXPECT_EQ(total_matches, 20u);

    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      for (const auto& row : rows) EXPECT_EQ(row[1], row[0] * 10);
    }
  });
}

TEST(ExecuteJoin, ProducesCrossProductWithinKeys) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      // Key 5 has 3 r-rows and 4 s-rows -> 12 joined pairs.
      for (value_t i = 0; i < 3; ++i) rf.push_back(Tuple{5, i});
      for (value_t j = 0; j < 4; ++j) sf.push_back(Tuple{5, 100 + j});
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
    };
    execute_join(comm, profile, rule);
    out.materialize();
    EXPECT_EQ(out.global_size(Version::kFull), 12u);
  });
}

TEST(ExecuteJoin, FilterDropsPairs) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> rf;
    if (comm.rank() == 0) {
      for (value_t i = 0; i < 10; ++i) rf.push_back(Tuple{1, i});
    }
    r.load_facts(rf);

    RankProfile profile;
    // Self-join with ordering filter: pairs (i, j), i < j -> C(10,2) = 45.
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &r,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
        .filter = Expr::less(Expr::col_a(1), Expr::col_b(1)),
    };
    execute_join(comm, profile, rule);
    out.materialize();
    EXPECT_EQ(out.global_size(Version::kFull), 45u);
  });
}

TEST(ExecuteJoin, RespectsVersionSelection) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> r1, sf;
    if (comm.rank() == 0) {
      r1.push_back(Tuple{1, 1});
      for (value_t k = 1; k <= 2; ++k) sf.push_back(Tuple{k, k});
    }
    r.load_facts(r1);  // delta = {(1,1)}
    s.load_facts(sf);
    // Second batch: (2,2) becomes the new delta; (1,1) moves to full-only.
    // Every rank knows the batch; only the owner stages it.
    const Tuple t22{2, 2};
    if (r.owner_rank(t22.view()) == comm.rank()) r.stage(t22.view());
    r.materialize();

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kDelta,  // only (2,2)
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_b(1)}},
    };
    execute_join(comm, profile, rule);
    out.materialize();
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0], (Tuple{2, 2}));
    }
  });
}

TEST(ExecuteJoin, ForcedOrderOverridesRule) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation small(comm, {.name = "small", .arity = 2, .jcc = 1});
    Relation big(comm, {.name = "big", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> smallf, bigf;
    if (comm.rank() == 0) {
      smallf.push_back(Tuple{1, 1});
      for (value_t k = 0; k < 100; ++k) bigf.push_back(Tuple{k, k});
    }
    small.load_facts(smallf);
    big.load_facts(bigf);

    RankProfile profile;
    JoinRule rule{
        .a = &small,
        .a_version = Version::kFull,
        .b = &big,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
    };
    // Dynamic: small side shipped.
    const auto dyn = execute_join(comm, profile, rule);
    EXPECT_TRUE(dyn.a_was_outer);
    const auto dyn_shipped =
        comm.allreduce<std::uint64_t>(dyn.outer_tuples_shipped, vmpi::ReduceOp::kSum);
    EXPECT_EQ(dyn_shipped, 1u);

    // Forced B-outer: the big side is serialized — the baseline mistake.
    const auto forced = execute_join(comm, profile, rule, JoinOrderPolicy::kFixedBOuter);
    EXPECT_FALSE(forced.a_was_outer);
    const auto forced_shipped =
        comm.allreduce<std::uint64_t>(forced.outer_tuples_shipped, vmpi::ReduceOp::kSum);
    EXPECT_EQ(forced_shipped, 100u);
    out.materialize();
  });
}

TEST(ExecuteJoin, SubBucketedInnerReceivesReplicas) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    // Inner relation with a hot bucket spread over 4 sub-buckets; the outer
    // tuple matching that bucket must be replicated to every holder.
    Relation inner(comm, {.name = "inner", .arity = 2, .jcc = 1, .sub_buckets = 4});
    Relation outer(comm, {.name = "outer", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> innerf, outerf;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 100; ++v) innerf.push_back(Tuple{7, v});
      outerf.push_back(Tuple{7, 999});
    }
    inner.load_facts(innerf);
    outer.load_facts(outerf);

    RankProfile profile;
    JoinRule rule{
        .a = &outer,
        .a_version = Version::kFull,
        .b = &inner,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
        .order = JoinOrderPolicy::kFixedAOuter,
    };
    const auto stats = execute_join(comm, profile, rule);
    out.materialize();
    // All 100 pairs found despite the inner bucket spanning ranks.
    EXPECT_EQ(out.global_size(Version::kFull), 100u);
    // The single outer tuple was shipped once per sub-bucket holder.
    const auto shipped =
        comm.allreduce<std::uint64_t>(stats.outer_tuples_shipped, vmpi::ReduceOp::kSum);
    EXPECT_GT(shipped, 1u);
  });
}

TEST(ExecuteCopy, ProjectsAndFilters) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Relation src(comm, {.name = "src", .arity = 3, .jcc = 1});
    Relation dst(comm, {.name = "dst", .arity = 2, .jcc = 1});
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 30; ++v) facts.push_back(Tuple{v, v * 2, v % 3});
    }
    src.load_facts(facts);

    RankProfile profile;
    CopyRule rule{
        .src = &src,
        .version = Version::kFull,
        .out = {.target = &dst, .cols = {Expr::col_a(1), Expr::col_a(0)}},
        .filter = Expr::eq(Expr::col_a(2), Expr::constant(0)),  // keep v % 3 == 0
    };
    execute_copy(comm, profile, rule);
    dst.materialize();
    EXPECT_EQ(dst.global_size(Version::kFull), 10u);
    const auto rows = dst.gather_to_root(0);
    if (comm.rank() == 0) {
      for (const auto& row : rows) EXPECT_EQ(row[0], row[1] * 2);
    }
  });
}

TEST(ExecuteCopy, IntoAggregatedTargetAggregatesLocally) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation src(comm, {.name = "src", .arity = 2, .jcc = 1});
    Relation agg(comm, {.name = "agg",
                        .arity = 2,
                        .jcc = 1,
                        .dep_arity = 1,
                        .aggregator = make_min_aggregator()});
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      // Key 1 with many values; min must win.
      for (value_t v = 10; v <= 50; v += 10) facts.push_back(Tuple{1, v});
    }
    src.load_facts(facts);

    RankProfile profile;
    CopyRule rule{
        .src = &src,
        .version = Version::kFull,
        .out = {.target = &agg, .cols = {Expr::constant(7), Expr::col_a(1)}},
    };
    execute_copy(comm, profile, rule);
    agg.materialize();
    const auto rows = agg.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0], (Tuple{7, 10}));
    }
  });
}

TEST(ExecuteJoin, AntijoinEmitsOnAbsence) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 2, .jcc = 1});
    Relation blocked(comm, {.name = "blocked", .arity = 1, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> af, bf;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 20; ++v) af.push_back(Tuple{v, v * 10});
      for (value_t v = 0; v < 20; v += 3) bf.push_back(Tuple{v});  // 0,3,6,...
    }
    all.load_facts(af);
    blocked.load_facts(bf);

    RankProfile profile;
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &blocked,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_a(1)}},
        .anti = true,
    };
    execute_join(comm, profile, rule);
    out.materialize();
    // 20 keys minus the 7 multiples of 3.
    EXPECT_EQ(out.global_size(Version::kFull), 13u);
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      for (const auto& row : rows) EXPECT_NE(row[0] % 3, 0u) << row[0];
    }
  });
}

TEST(ExecuteJoin, AntijoinPreFilterGatesEmission) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 1, .jcc = 1});
    Relation blocked(comm, {.name = "blocked", .arity = 1, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 1, .jcc = 1});
    std::vector<Tuple> af;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 10; ++v) af.push_back(Tuple{v});
    }
    all.load_facts(af);
    blocked.load_facts({});  // nothing blocked: absence holds everywhere

    RankProfile profile;
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &blocked,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0)}},
        .pre_filter = Expr::less(Expr::col_a(0), Expr::constant(4)),
        .anti = true,
    };
    execute_join(comm, profile, rule);
    out.materialize();
    // Without the pre-filter every row would emit; with it only 0..3 do.
    EXPECT_EQ(out.global_size(Version::kFull), 4u);
  });
}

TEST(ExecuteJoin, AntijoinFilterRefinesBlockingMatches) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 2, .jcc = 1});
    Relation cap(comm, {.name = "cap", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> af, cf;
    if (comm.rank() == 0) {
      af = {Tuple{1, 5}, Tuple{2, 5}, Tuple{3, 5}};
      // Key 1 has a blocking cap above the row value, key 2 below it.
      cf = {Tuple{1, 9}, Tuple{2, 3}};
    }
    all.load_facts(af);
    cap.load_facts(cf);

    RankProfile profile;
    // Blocked iff a cap row for the key has cap-value > row-value.
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &cap,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_a(1)}},
        .filter = Expr::less(Expr::col_a(1), Expr::col_b(1)),
        .anti = true,
    };
    execute_join(comm, profile, rule);
    out.materialize();
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_EQ(rows[0][0], 2u);  // cap 3 < 5: not blocking
      EXPECT_EQ(rows[1][0], 3u);  // no cap at all
    }
  });
}

TEST(ValidateRule, AntijoinShapeErrors) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation sub(comm, {.name = "sub", .arity = 2, .jcc = 1, .sub_buckets = 4});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    // Head referencing the negated side.
    EXPECT_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &r,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_b(1)}},
                               .anti = true}),
        std::invalid_argument);
    // Sub-bucketed negated side.
    EXPECT_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &sub,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_a(1)}},
                               .anti = true}),
        std::invalid_argument);
    // pre_filter on a normal join.
    EXPECT_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &r,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_a(1)}},
                               .pre_filter = Expr::constant(1)}),
        std::invalid_argument);
    // Well-formed antijoin passes.
    EXPECT_NO_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &r,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_a(1)}},
                               .anti = true}));
  });
}

TEST(ValidateRule, CatchesShapeErrors) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s2(comm, {.name = "s2", .arity = 2, .jcc = 2});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});

    // jcc mismatch between sides.
    EXPECT_THROW(validate_rule(JoinRule{.a = &r,
                                        .b = &s2,
                                        .out = {.target = &out,
                                                .cols = {Expr::col_a(0), Expr::col_b(0)}}}),
                 std::invalid_argument);
    // Head arity mismatch.
    EXPECT_THROW(
        validate_rule(JoinRule{
            .a = &r, .b = &r, .out = {.target = &out, .cols = {Expr::col_a(0)}}}),
        std::invalid_argument);
    // Out-of-range column reference.
    EXPECT_THROW(validate_rule(JoinRule{.a = &r,
                                        .b = &r,
                                        .out = {.target = &out,
                                                .cols = {Expr::col_a(5), Expr::col_b(0)}}}),
                 std::invalid_argument);
    // Copy referencing side B.
    EXPECT_THROW(validate_rule(CopyRule{.src = &r,
                                        .out = {.target = &out,
                                                .cols = {Expr::col_b(0), Expr::col_a(0)}}}),
                 std::invalid_argument);
    // Well-formed rules pass.
    EXPECT_NO_THROW(validate_rule(JoinRule{
        .a = &r, .b = &r, .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}}}));
    EXPECT_NO_THROW(validate_rule(CopyRule{
        .src = &r, .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_a(0)}}}));
  });
}

TEST(ExecuteJoin, PhaseBytesAttributedToIntraBucketAndAllToAll) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 64; ++k) {
        rf.push_back(Tuple{k, k});
        sf.push_back(Tuple{k, k + 1});
      }
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_b(1), Expr::col_a(0)}},
    };
    execute_join(comm, profile, rule);
    out.materialize();

    const auto& rec = profile.current();
    // Output tuples hash to new buckets -> remote bytes in the all-to-all
    // phase on at least one rank.
    const auto a2a = comm.allreduce<std::uint64_t>(
        rec.bytes[static_cast<std::size_t>(Phase::kAllToAll)], vmpi::ReduceOp::kSum);
    EXPECT_GT(a2a, 0u);
    // Both sides share the bucket map with one sub-bucket each, so the
    // intra-bucket phase must be fully local: zero remote bytes.
    const auto intra = comm.allreduce<std::uint64_t>(
        rec.bytes[static_cast<std::size_t>(Phase::kIntraBucket)], vmpi::ReduceOp::kSum);
    EXPECT_EQ(intra, 0u);
  });
}

// ---------------------------------------------------------------------------
// LocalJoin: the one rank-local kernel, checked against a nested-loop join
// ---------------------------------------------------------------------------

/// `n` random rows of `arity` columns; the join key (column 0) is drawn
/// from [0, keys) so keys repeat, the rest from [0, 64).
std::vector<value_t> random_rows(std::mt19937_64& rng, std::size_t n, std::size_t arity,
                                 value_t keys) {
  std::vector<value_t> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(rng() % keys);
    for (std::size_t c = 1; c < arity; ++c) rows.push_back(rng() % 64);
  }
  return rows;
}

std::vector<Tuple> as_sorted_tuples(std::span<const value_t> flat, std::size_t arity) {
  std::vector<Tuple> out;
  for (std::size_t off = 0; off < flat.size(); off += arity) {
    out.emplace_back(flat.subspan(off, arity));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Nested-loop reference: every probe row against every inner row, with the
/// rule's join-key equality, filter, antijoin absence test and head.
std::vector<Tuple> nested_loop_join(const JoinRule& rule, bool probe_is_a,
                                    const storage::TupleBTree& inner,
                                    std::span<const value_t> probes, std::size_t arity) {
  std::vector<value_t> inner_rows;
  inner.for_each([&](std::span<const value_t> r) {
    inner_rows.insert(inner_rows.end(), r.begin(), r.end());
  });
  const std::size_t jcc = rule.a->jcc();
  std::vector<value_t> out;
  const auto emit = [&](std::span<const value_t> a, std::span<const value_t> b) {
    for (const auto& e : rule.out.cols) out.push_back(e.eval(a, b));
  };
  for (std::size_t off = 0; off < probes.size(); off += arity) {
    const auto p = probes.subspan(off, arity);
    if (rule.pre_filter && rule.pre_filter->eval(p, {}) == 0) continue;
    bool any = false;
    for (std::size_t q = 0; q < inner_rows.size(); q += inner.arity()) {
      const auto i = std::span<const value_t>(inner_rows).subspan(q, inner.arity());
      if (!std::equal(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(jcc), i.begin())) {
        continue;
      }
      const auto a = probe_is_a ? p : i;
      const auto b = probe_is_a ? i : p;
      if (rule.filter && rule.filter->eval(a, b) == 0) continue;
      any = true;
      if (!rule.anti) emit(a, b);
    }
    if (rule.anti && !any) emit(p, {});
  }
  return as_sorted_tuples(out, rule.out.target->arity());
}

/// One kernel pass over `probes`; the emitted multiset, sorted.
std::vector<Tuple> kernel_join(LocalJoin& join, std::span<const value_t> probes,
                               std::size_t arity, std::size_t head_arity) {
  std::vector<value_t> out;
  join.probe_all(probes, arity, [&](std::span<const value_t> head) {
    out.insert(out.end(), head.begin(), head.end());
  });
  return as_sorted_tuples(out, head_arity);
}

/// Distinct join keys (column 0) among the probe rows the rule considers.
std::size_t distinct_keys(const JoinRule& rule, std::span<const value_t> probes,
                          std::size_t arity) {
  std::set<value_t> keys;
  for (std::size_t off = 0; off < probes.size(); off += arity) {
    const auto p = probes.subspan(off, arity);
    if (rule.pre_filter && rule.pre_filter->eval(p, {}) == 0) continue;
    keys.insert(p[0]);
  }
  return keys.size();
}

/// Probe `rule` with seeded random rows, unsorted and pre-sorted: the
/// emitted multiset equals the nested-loop join's both ways, and on sorted
/// input the kernel seeks exactly once per distinct key it reached.
void expect_kernel_matches_reference(const JoinRule& rule, bool probe_is_a) {
  const Relation& probe_rel = probe_is_a ? *rule.a : *rule.b;
  const Relation& inner_rel = probe_is_a ? *rule.b : *rule.a;
  const std::size_t arity = probe_rel.arity();
  const std::size_t head_arity = rule.out.target->arity();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937_64 rng(seed);
    auto probes = random_rows(rng, 300, arity, /*keys=*/16);
    const auto& inner = inner_rel.tree(Version::kFull);
    const auto want = nested_loop_join(rule, probe_is_a, inner, probes, arity);
    ASSERT_FALSE(want.empty()) << "seed " << seed;

    LocalJoin unsorted(rule, inner, probe_is_a);
    EXPECT_EQ(kernel_join(unsorted, probes, arity, head_arity), want) << "seed " << seed;
    EXPECT_EQ(unsorted.counts().probes, probes.size() / arity);
    EXPECT_EQ(unsorted.counts().matches, want.size());

    storage::sort_rows(probes, arity, rule.a->jcc());
    LocalJoin sorted(rule, inner, probe_is_a);
    EXPECT_EQ(kernel_join(sorted, probes, arity, head_arity), want) << "seed " << seed;
    EXPECT_EQ(sorted.counts().matches, want.size());
    EXPECT_EQ(sorted.counts().probe_seeks, distinct_keys(rule, probes, arity))
        << "seed " << seed;
  }
}

/// Sides A (k, x) and B (k, y, z) with duplicate join keys; B's keys cover
/// only part of the probe key range, so some probes find nothing.
template <typename Body>
void with_kernel_sides(Body body) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation a(comm, {.name = "a", .arity = 2, .jcc = 1});
    Relation b(comm, {.name = "b", .arity = 3, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::mt19937_64 rng(99);
    const auto load = [](Relation& r, const std::vector<value_t>& flat) {
      std::vector<Tuple> facts;
      for (std::size_t off = 0; off < flat.size(); off += r.arity()) {
        facts.emplace_back(std::span<const value_t>(flat).subspan(off, r.arity()));
      }
      r.load_facts(facts);
    };
    load(a, random_rows(rng, 200, 2, /*keys=*/12));
    load(b, random_rows(rng, 200, 3, /*keys=*/12));
    body(a, b, out);
  });
}

TEST(LocalJoin, MatchesNestedLoopProbingFromEitherSide) {
  with_kernel_sides([](Relation& a, Relation& b, Relation& out) {
    // Head and filter both read both sides.
    const JoinRule rule{
        .a = &a,
        .a_version = Version::kFull,
        .b = &b,
        .b_version = Version::kFull,
        .out = {.target = &out,
                .cols = {Expr::col_b(1), Expr::add(Expr::col_a(1), Expr::col_b(2))}},
        .filter = Expr::less(Expr::col_a(1), Expr::col_b(2)),
    };
    expect_kernel_matches_reference(rule, /*probe_is_a=*/true);
    expect_kernel_matches_reference(rule, /*probe_is_a=*/false);
    // And with no filter: every key-equal pair is emitted.
    JoinRule plain = rule;
    plain.filter.reset();
    expect_kernel_matches_reference(plain, /*probe_is_a=*/true);
    expect_kernel_matches_reference(plain, /*probe_is_a=*/false);
  });
}

TEST(LocalJoin, AntijoinMatchesNestedLoopWithPreFilterAndFilter) {
  with_kernel_sides([](Relation& a, Relation& b, Relation& out) {
    const JoinRule rule{
        .a = &a,
        .a_version = Version::kFull,
        .b = &b,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_a(0)}},
        // A b-row blocks only when its y exceeds the a-row's x.
        .filter = Expr::less(Expr::col_a(1), Expr::col_b(1)),
        .pre_filter = Expr::less(Expr::col_a(1), Expr::constant(40)),
        .anti = true,
    };
    expect_kernel_matches_reference(rule, /*probe_is_a=*/true);
    JoinRule bare = rule;
    bare.filter.reset();
    bare.pre_filter.reset();
    expect_kernel_matches_reference(bare, /*probe_is_a=*/true);
  });
}

TEST(LocalJoin, AntijoinRunRejectedByPreFilterNeverSeeks) {
  with_kernel_sides([](Relation& a, Relation& b, Relation& out) {
    const JoinRule rule{
        .a = &a,
        .a_version = Version::kFull,
        .b = &b,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_a(0)}},
        .pre_filter = Expr::less(Expr::col_a(1), Expr::constant(40)),
        .anti = true,
    };
    // Key 3 occurs in b; every probe row of its run fails the pre-filter.
    const std::vector<value_t> probes = {3, 40, 3, 41, 3, 63};
    LocalJoin join(rule, b.tree(Version::kFull), /*probe_is_a=*/true);
    EXPECT_TRUE(kernel_join(join, probes, 2, 2).empty());
    EXPECT_EQ(join.counts().probes, 3u);
    EXPECT_EQ(join.counts().probe_seeks, 0u);
    EXPECT_EQ(join.counts().matches, 0u);
  });
}

}  // namespace
}  // namespace paralagg::core
