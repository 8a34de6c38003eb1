#pragma once

// Relational-algebra kernels: distributed binary join and copy/project.
//
// One call to `execute_join` is one pass of the pipeline in the paper's
// Fig. 1: dynamic join planning → outer-relation serialization →
// intra-bucket exchange (MPI_Alltoallv) → highly parallel local join
// (B-tree probes through core::LocalJoin, core/local_join.hpp) → generated
// tuples *emitted into an ExchangeRouter*.  Shipping is decoupled from
// emission: the engine flushes the router once per iteration (fused mode)
// or after each rule (legacy mode), and the flush stages arrivals into the
// target's fused dedup/aggregation area.  Materialization itself
// (Relation::materialize) is driven by the engine at iteration end, after
// all rules have run.

#include <optional>
#include <variant>
#include <vector>

#include "core/exchange_router.hpp"
#include "core/expr.hpp"
#include "core/join_planner.hpp"
#include "core/profile.hpp"
#include "core/relation.hpp"

namespace paralagg::core {

/// Head of a rule: how each output column is computed from the joined pair
/// (side A, side B) — or from the single source tuple for copy rules.
struct OutputSpec {
  Relation* target = nullptr;
  std::vector<Expr> cols;  // one per target column, in the target's stored order
};

/// out(head) ← A(...), B(...) joined on the first `jcc` columns of each
/// side (A.jcc must equal B.jcc, and both sides must share the bucket
/// decomposition, which they do by construction).
///
/// With `anti = true` the rule is an ANTIJOIN (stratified negation,
/// paper §II-B background): a head tuple is emitted for each A row with
/// *no* matching B row (among matches, `filter` — which may reference both
/// sides — selects what counts as a match).  Head columns may then only
/// reference side A.  Side A is always the shipped side, and B must not be
/// sub-bucketed (a replica seeing "no local match" could not conclude
/// global absence).
struct JoinRule {
  Relation* a = nullptr;
  Version a_version = Version::kDelta;
  Relation* b = nullptr;
  Version b_version = Version::kFull;
  OutputSpec out;
  std::optional<Expr> filter;  // keep the pair when it evaluates nonzero
  /// Antijoins only: a side-A-only predicate gating emission.  (For a
  /// normal join an A-only condition can live in `filter`; for an antijoin
  /// it must not — "no matching B" would otherwise spuriously fire for A
  /// rows the rule never meant to consider.)
  std::optional<Expr> pre_filter;
  /// Per-rule override; the engine's config may force a fixed order for
  /// baseline measurements.
  JoinOrderPolicy order = JoinOrderPolicy::kDynamic;
  bool anti = false;
};

/// out(head) ← src(...) — projection/selection/copy, rerouted to the
/// target's distribution.
struct CopyRule {
  Relation* src = nullptr;
  Version version = Version::kDelta;
  OutputSpec out;  // Exprs may reference side A only
  std::optional<Expr> filter;
};

using Rule = std::variant<JoinRule, CopyRule>;

/// Local-join kernel counters (core::LocalJoin fills probes, probe_seeks
/// and matches; the engines add the rows they replicated to feed it).
/// probe_seeks / probes is the kernel's descent-dedup ratio: one seek per
/// run of equal join keys.
struct JoinKernelTotals {
  std::uint64_t outer_tuples_shipped = 0;  // probe rows replicated toward the inner side
  std::uint64_t probes = 0;                // probe rows (and copy source rows) taken
  std::uint64_t probe_seeks = 0;           // B-tree seeks issued
  std::uint64_t matches = 0;               // head rows emitted
  JoinKernelTotals& operator+=(const JoinKernelTotals& o) {
    outer_tuples_shipped += o.outer_tuples_shipped;
    probes += o.probes;
    probe_seeks += o.probe_seeks;
    matches += o.matches;
    return *this;
  }
};

struct RuleExecStats : JoinKernelTotals {
  bool a_was_outer = false;
  bool planned_dynamically = false;
  std::uint64_t hot_broadcast_rows = 0;  // probe rows broadcast for hot inner keys
};

/// Run one join pass, emitting generated tuples into `router` (they ship
/// at the next router flush).  Collective: the intra-bucket exchange, a
/// dense alltoallv on the faultable entry.  `forced` overrides the rule's
/// own order policy when set (engine baseline mode).
RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           ExchangeRouter& router,
                           std::optional<JoinOrderPolicy> forced = std::nullopt);

/// Run one copy/project pass into `router`.  Local (copies only emit).
RuleExecStats execute_copy(RankProfile& profile, const CopyRule& rule,
                           ExchangeRouter& router);

/// Standalone variants: run the rule through a throwaway router and flush
/// it before returning — one exchange per rule, the legacy shape.  Used by
/// kernel tests and one-shot passes; the engine routes through a shared
/// router instead.
RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           std::optional<JoinOrderPolicy> forced = std::nullopt);
RuleExecStats execute_copy(vmpi::Comm& comm, RankProfile& profile, const CopyRule& rule);

/// Validate rule shape (arities, column references, join compatibility).
/// Throws std::invalid_argument with a descriptive message.
void validate_rule(const Rule& rule);

}  // namespace paralagg::core
