#include "core/ra_op.hpp"

#include <cassert>
#include <stdexcept>

#include "core/local_join.hpp"
#include "core/phase_scope.hpp"
#include "vmpi/row_frame.hpp"

namespace paralagg::core {

namespace {

/// Append every tuple of `tree` to the per-destination row buffers,
/// replicating each tuple to all ranks that hold a sub-bucket of its bucket
/// in the *inner* relation.  This is the outer-relation serialization
/// feeding the intra-bucket exchange; each buffer is a key-sorted
/// subsequence of the tree scan.
std::uint64_t serialize_outer(const storage::TupleBTree& tree, const Relation& outer,
                              const Relation& inner,
                              std::vector<std::vector<value_t>>& outgoing,
                              std::uint64_t* hot_broadcast) {
  std::uint64_t shipped = 0;
  const bool inner_has_hot = !inner.hot_keys().empty();
  const std::size_t nranks = outgoing.size();
  std::vector<int> dests;
  tree.for_each([&](std::span<const value_t> t) {
    if (inner_has_hot && inner.key_is_hot(t)) {
      // The inner side's rows for this hot key are spread across ALL ranks
      // (Relation::route_rank), so the probe row must reach every rank.
      // Each inner row still lives on exactly one rank, so every joined
      // pair is found exactly once (DESIGN.md §13).
      for (std::size_t d = 0; d < nranks; ++d) {
        outgoing[d].insert(outgoing[d].end(), t.begin(), t.end());
        ++shipped;
      }
      if (hot_broadcast != nullptr) *hot_broadcast += nranks;
      return;
    }
    const auto bucket = outer.bucket_of(t);
    inner.ranks_of_bucket(bucket, dests);
    for (int d : dests) {
      auto& rows = outgoing[static_cast<std::size_t>(d)];
      rows.insert(rows.end(), t.begin(), t.end());
      ++shipped;
    }
  });
  return shipped;
}

}  // namespace

RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           ExchangeRouter& router, std::optional<JoinOrderPolicy> forced) {
  RuleExecStats stats;
  const std::uint32_t route = router.add_target(rule.out.target);
  const std::size_t jcc = rule.a->jcc();
  assert(jcc == rule.b->jcc() && "join sides must agree on join-column count");

  // ---- Phase: dynamic join planning (Algorithm 1) --------------------------
  PlanDecision plan{};
  if (rule.anti) {
    // Antijoins cannot swap sides: absence can only be decided where ALL
    // of B's candidates for a bucket live.
    assert(rule.b->sub_buckets() == 1 && "antijoin inner must not be sub-bucketed");
    assert(rule.b->hot_keys().empty() &&
           "antijoin inner must not carry a hot-key layout (absence is global)");
    plan = PlanDecision{.a_outer = true, .votes_for_a = 0, .voted = false};
  } else {
    PhaseScope scope(comm, profile, Phase::kPlan);
    const auto policy = forced.value_or(rule.order);
    plan = plan_join_order(comm, policy, rule.a->local_size(rule.a_version),
                           rule.b->local_size(rule.b_version));
    profile.add_work(Phase::kPlan, 1);
  }
  stats.a_was_outer = plan.a_outer;
  stats.planned_dynamically = plan.voted;

  const Relation& outer = plan.a_outer ? *rule.a : *rule.b;
  const Relation& inner = plan.a_outer ? *rule.b : *rule.a;
  const Version outer_version = plan.a_outer ? rule.a_version : rule.b_version;
  const Version inner_version = plan.a_outer ? rule.b_version : rule.a_version;

  // ---- Phase: outer serialization + intra-bucket exchange -------------------
  std::vector<value_t> batch;
  {
    PhaseScope scope(comm, profile, Phase::kIntraBucket);
    std::vector<std::vector<value_t>> outgoing(static_cast<std::size_t>(comm.size()));
    stats.outer_tuples_shipped = serialize_outer(outer.tree(outer_version), outer, inner,
                                                 outgoing, &stats.hot_broadcast_rows);
    profile.add_work(Phase::kIntraBucket, stats.outer_tuples_shipped);
    // Row frames on the faultable entry (integrity on a faultable world is
    // vmpi::ReliableChannel's job); loopback rows skip the codec.
    batch = vmpi::exchange_rows(comm, outer.arity(), std::move(outgoing), /*faultable=*/true);
  }

  // ---- Phase: local join (outputs emitted into the router) ------------------
  {
    PhaseScope scope(comm, profile, Phase::kLocalJoin);
    const std::size_t arity = outer.arity();
    // Each source ships a key-sorted scan; a stable sort on the join key
    // merges them, so the kernel seeks once per distinct key.
    storage::sort_rows(batch, arity, jcc);
    LocalJoin join(rule, inner.tree(inner_version), plan.a_outer);
    join.probe_all(batch, arity,
                   [&](std::span<const value_t> head) { router.emit(route, head); });
    stats += join.counts();
    profile.add_work(Phase::kLocalJoin, stats.probes + stats.matches);
  }
  return stats;
}

RuleExecStats execute_copy(RankProfile& profile, const CopyRule& rule,
                           ExchangeRouter& router) {
  RuleExecStats stats;
  const std::uint32_t route = router.add_target(rule.out.target);

  PhaseScope scope(router.comm(), profile, Phase::kLocalJoin);
  Tuple head;
  rule.src->tree(rule.version).for_each([&](std::span<const value_t> t) {
    ++stats.probes;
    stats.matches += copy_row(rule, t, head, [&](std::span<const value_t> row) {
      router.emit(route, row);
    });
  });
  // Same convention as execute_join: a kLocalJoin work unit is one row
  // visited plus one row produced, so copy and join workloads are
  // comparable in the balancer's eyes.
  profile.add_work(Phase::kLocalJoin, stats.probes + stats.matches);
  return stats;
}

RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           std::optional<JoinOrderPolicy> forced) {
  ExchangeRouter router(comm);
  const auto stats = execute_join(comm, profile, rule, router, forced);
  router.flush(profile, ExchangeAlgorithm::kDense);
  return stats;
}

RuleExecStats execute_copy(vmpi::Comm& comm, RankProfile& profile, const CopyRule& rule) {
  ExchangeRouter router(comm);
  const auto stats = execute_copy(profile, rule, router);
  router.flush(profile, ExchangeAlgorithm::kDense);
  return stats;
}

namespace {

void validate_output(const OutputSpec& out, int max_a_arity, int max_b_arity,
                     const char* what) {
  if (out.target == nullptr) throw std::invalid_argument(std::string(what) + ": no target");
  if (out.cols.size() != out.target->arity()) {
    throw std::invalid_argument(std::string(what) + " -> " + out.target->name() +
                                ": head arity mismatch");
  }
  for (const auto& e : out.cols) {
    if (e.max_col_a() >= max_a_arity || e.max_col_b() >= max_b_arity) {
      throw std::invalid_argument(std::string(what) + " -> " + out.target->name() +
                                  ": column reference out of range");
    }
  }
}

}  // namespace

void validate_rule(const Rule& rule) {
  if (const auto* j = std::get_if<JoinRule>(&rule)) {
    if (j->a == nullptr || j->b == nullptr) throw std::invalid_argument("join: null side");
    if (j->a->jcc() != j->b->jcc()) {
      throw std::invalid_argument("join " + j->a->name() + " x " + j->b->name() +
                                  ": sides disagree on join-column count");
    }
    if (j->pre_filter) {
      if (!j->anti) {
        throw std::invalid_argument("join: pre_filter is only meaningful on antijoins");
      }
      if (j->pre_filter->max_col_b() >= 0) {
        throw std::invalid_argument("antijoin pre_filter may not reference the negated side");
      }
    }
    if (j->anti) {
      // Heads of antijoins cannot read the (absent) B side, and B must not
      // be rebalanced away from single sub-buckets mid-run.
      for (const auto& e : j->out.cols) {
        if (e.max_col_b() >= 0) {
          throw std::invalid_argument("antijoin -> " + j->out.target->name() +
                                      ": head may not reference the negated side");
        }
      }
      if (j->b->sub_buckets() != 1 || j->b->config().balanceable) {
        throw std::invalid_argument("antijoin against " + j->b->name() +
                                    ": the negated relation must stay in a single "
                                    "sub-bucket (absence is a global property)");
      }
    }
    validate_output(j->out, static_cast<int>(j->a->arity()), static_cast<int>(j->b->arity()),
                    "join");
    if (j->filter) {
      if (j->filter->max_col_a() >= static_cast<int>(j->a->arity()) ||
          j->filter->max_col_b() >= static_cast<int>(j->b->arity())) {
        throw std::invalid_argument("join filter: column reference out of range");
      }
    }
    return;
  }
  const auto& c = std::get<CopyRule>(rule);
  if (c.src == nullptr) throw std::invalid_argument("copy: null source");
  validate_output(c.out, static_cast<int>(c.src->arity()), 0, "copy");
  if (c.filter && c.filter->max_col_a() >= static_cast<int>(c.src->arity())) {
    throw std::invalid_argument("copy filter: column reference out of range");
  }
}

}  // namespace paralagg::core
