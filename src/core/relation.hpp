#pragma once

// Distributed relations with bucket/sub-bucket double hashing.
//
// A relation's tuples are laid out in *stored order*:
//
//   [ join columns | other independent columns | dependent columns ]
//     0 .. jcc-1     jcc .. indep_arity-1        indep_arity .. arity-1
//
// Distribution (paper §II-D, §IV-A):
//   bucket      = H1(join columns)              mod  num_buckets
//   sub-bucket  = H2(other independent columns) mod  sub_buckets
//   rank        = (bucket * sub_buckets + sub)  mod  nranks
//
// Dependent (aggregated) columns participate in *neither* hash — that is
// the communication-avoiding restriction: any two tuples that agree on
// their independent columns land on the same rank no matter what partial
// aggregate they carry, so aggregation can be fused with deduplication
// locally, with zero extra communication (paper §IV-A).
//
// Each rank holds its partition in two B-trees (full and delta, keyed on
// the independent columns) plus a staging area where tuples arriving from
// the all-to-all exchange are *pre-aggregated* before materialization:
// staging is a FoldRun, which sort-folds appended rows into a *run* —
// key-sorted, key-unique rows — that materialize() places into full.

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/aggregator.hpp"
#include "core/fold_run.hpp"
#include "core/types.hpp"
#include "storage/btree.hpp"
#include "vmpi/comm.hpp"

namespace paralagg::core {

struct RelationConfig {
  std::string name;
  std::size_t arity = 0;
  /// Join-column count: the tuple prefix the relation is indexed and
  /// bucketed on.  Joins match this prefix against the other side's.
  std::size_t jcc = 1;
  /// Trailing aggregated columns (0 = plain relation).
  std::size_t dep_arity = 0;
  AggregatorPtr aggregator;  // required iff dep_arity > 0
  AggMode agg_mode = AggMode::kLattice;
  /// Sub-buckets per bucket (spatial load balancing fan-out, paper §IV-C).
  int sub_buckets = 1;
  /// May the spatial load balancer raise sub_buckets at run time?
  bool balanceable = false;
};

struct MaterializeResult {
  std::uint64_t staged = 0;    // distinct keys staged, after the within-iteration fold
  std::uint64_t inserted = 0;  // new keys
  std::uint64_t updated = 0;   // existing keys whose accumulator ascended
  std::uint64_t rejected = 0;  // no new information (paper Fig. 1, right)
  std::size_t delta_size = 0;
};

class Relation {
 public:
  /// Collective only in the sense that every rank must construct the same
  /// relation in the same order; the constructor itself does not
  /// communicate.
  Relation(vmpi::Comm& comm, RelationConfig cfg);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  // -- metadata ---------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] const RelationConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t arity() const { return cfg_.arity; }
  [[nodiscard]] std::size_t jcc() const { return cfg_.jcc; }
  [[nodiscard]] std::size_t dep_arity() const { return cfg_.dep_arity; }
  [[nodiscard]] std::size_t indep_arity() const { return cfg_.arity - cfg_.dep_arity; }
  [[nodiscard]] bool aggregated() const { return cfg_.dep_arity > 0; }
  [[nodiscard]] int sub_buckets() const { return sub_buckets_; }
  [[nodiscard]] vmpi::Comm& comm() const { return *comm_; }

  // -- distribution -------------------------------------------------------------

  [[nodiscard]] std::uint32_t num_buckets() const { return num_buckets_; }
  [[nodiscard]] std::uint32_t bucket_of(std::span<const value_t> tuple) const;
  [[nodiscard]] std::uint32_t sub_bucket_of(std::span<const value_t> tuple) const;
  [[nodiscard]] int rank_of(std::uint32_t bucket, std::uint32_t sub) const;
  [[nodiscard]] int owner_rank(std::span<const value_t> tuple) const;
  /// What-if variants of sub_bucket_of / rank_of under a *candidate*
  /// sub-bucket count — the balancer's planner projects where tuples would
  /// land at each fan-out before committing to a reshuffle.
  [[nodiscard]] std::uint32_t sub_bucket_for(std::span<const value_t> tuple,
                                             int sub_buckets) const;
  [[nodiscard]] int rank_for(std::uint32_t bucket, std::uint32_t sub,
                             int sub_buckets) const;
  /// Distinct ranks holding any sub-bucket of `bucket` (the destinations of
  /// intra-bucket replication when this relation is the inner side).
  void ranks_of_bucket(std::uint32_t bucket, std::vector<int>& out) const;

  // -- heavy-hitter layout (skew-optimal routing, DESIGN.md §13) ---------------
  //
  // A relation may carry a *hot set* of join-key prefixes (adopted via
  // adopt_hot_keys, detected by core::detect_hot_keys).  Rows whose join
  // key is hot are spread across ALL ranks by H2 over the non-join
  // independent columns — a pure function of row content, independent of
  // the bucket/sub-bucket layout — instead of living at their owner rank.
  // Dependent columns stay out of the hash, so equal-key aggregate folds
  // still collide on one rank and fused dedup/aggregation stays local.

  /// Where a row lives under the current layout: the hot spread rank for
  /// hot keys, owner_rank for everything else.
  [[nodiscard]] int route_rank(std::span<const value_t> tuple) const;
  /// Is `tuple`'s join-key prefix (its first jcc() columns) currently hot?
  /// `tuple` may be a full row or a bare jcc-column key.
  [[nodiscard]] bool key_is_hot(std::span<const value_t> tuple) const {
    return !hot_set_.empty() && hot_set_.count(Tuple(tuple.subspan(0, cfg_.jcc))) > 0;
  }
  /// Current hot keys, in the deterministic (count desc, key asc) adoption
  /// order; identical on every rank.
  [[nodiscard]] const std::vector<Tuple>& hot_keys() const { return hot_keys_; }

  /// Switch to a new hot set, moving the rows of every key that changed
  /// hotness (newly hot -> spread by H2; no longer hot -> back to owner).
  /// Keys hot before and after keep their placement: the spread rank is a
  /// pure function of row content.  Collective; must run between
  /// iterations (staging empty).  Returns the rows this rank shipped.
  /// No-op (hot set stays empty) when the relation has no non-join
  /// independent columns — H2 has nothing to hash, so spreading is
  /// impossible.
  std::uint64_t adopt_hot_keys(std::vector<Tuple> keys);

  // -- local storage ------------------------------------------------------------

  [[nodiscard]] storage::TupleBTree& tree(Version v) {
    return v == Version::kFull ? full_ : delta_;
  }
  [[nodiscard]] const storage::TupleBTree& tree(Version v) const {
    return v == Version::kFull ? full_ : delta_;
  }
  [[nodiscard]] std::size_t local_size(Version v) const { return tree(v).size(); }

  // -- staging + fused dedup/aggregation ---------------------------------------

  /// Staging folds itself in place once it holds max(kFoldFloor, 2 × the
  /// rows left by the previous fold) rows, so it never holds much more
  /// than twice the distinct keys staged (plus kFoldFloor).  The floor
  /// keeps small iterations from sorting more than once.
  static constexpr std::size_t kFoldFloor = FoldRun::kFoldFloor;

  /// materialize() places a run of k keys into a full tree of n rows by
  /// per-key descents when k × kPerKeyRatio < n, and by one merge pass
  /// plus a rebuild otherwise.  Measured crossover: bench/micro_aggregate
  /// BM_RunIntoTree (DESIGN.md §5.1).
  static constexpr std::size_t kPerKeyRatio = 32;

  /// Stage a tuple that this rank owns (arrived via all-to-all or was
  /// generated locally for a local bucket).  Within-iteration duplicates
  /// of a key are collapsed — by the aggregator's partial_agg for
  /// aggregated relations — before they ever touch the B-tree.
  void stage(std::span<const value_t> tuple);

  /// Bulk staging: `rows` is a flat concatenation of stored-order tuples
  /// (size a multiple of arity), all owned by this rank; the fused
  /// exchange decode path lands here.
  void stage_rows(std::span<const value_t> rows);

  /// Fused deduplication / aggregation (paper §IV-A): sort-fold the
  /// staging area into a run, place it into full, and build the next
  /// delta from the inserted and ascended rows.  Local; no communication.
  MaterializeResult materialize();

  /// Drop every tuple and staged row (full, delta, staging).  Local; the
  /// checkpoint-restore path clears a relation before repopulating it.
  /// Support counts (when enabled) are cleared too.
  void reset();

  // -- support counts (incremental serving) ------------------------------------
  //
  // With support counting enabled, stage() also counts derivation *events*
  // per key (the independent-column prefix; the whole tuple for plain
  // relations) — how many times anything derived that key, across
  // iterations, before any same-iteration pre-aggregation collapses them.
  // The serving layer's DRed-style deletion uses the counts to retract
  // conclusions whose last support disappeared.  For aggregated relations
  // the counts are advisory (the retract decision also compares the stored
  // aggregate against the invalidated derivation's value — see
  // DESIGN.md §11); for plain relations they are exact under per-event
  // staging.  Counting requires per-event granularity, so serving runs the
  // engine with sender-side pre-aggregation off.

  /// Turn on support counting (idempotent).  Local; enable before any
  /// facts are loaded or derived so every event is counted.
  void enable_support_counts() { support_counts_ = true; }
  [[nodiscard]] bool support_counts_enabled() const { return support_counts_; }

  /// Drop every support entry, keeping the stored tuples.  The serving
  /// warm start clears the manifest-load counts (1 per key) right before
  /// its superset re-derivation pass recounts every surviving event.
  void clear_support_counts() { support_.clear(); }

  /// Current support of `key` (indep_arity() columns); 0 when unknown.
  [[nodiscard]] std::uint64_t support_of(std::span<const value_t> key) const;

  /// Subtract `n` from `key`'s support, saturating at 0; returns what
  /// remains.  Local.
  std::uint64_t support_release(std::span<const value_t> key, std::uint64_t n);

  /// Remove the stored tuple for `key` (indep_arity() columns) from full
  /// (and delta, if present) and drop its support entry.  Returns the
  /// removed full row, or an empty tuple if the key was absent.  Local.
  Tuple retract_key(std::span<const value_t> key);

  /// Rows currently staged (folded in place at most down to one per key).
  [[nodiscard]] std::size_t staged_count() const { return staging_.row_count(); }

  // -- batch rollback (serving graceful degradation) ---------------------------

  /// Local flat copy of everything a serving batch can mutate: full rows,
  /// delta rows, and the support-count map.  Staging is not captured — a
  /// snapshot is only legal between iterations (staging empty), which is
  /// where the serving engine takes it.
  struct LocalSnapshot {
    std::vector<value_t> full;   // flat stored-order rows
    std::vector<value_t> delta;
    std::vector<std::pair<Tuple, std::uint64_t>> support;
  };
  [[nodiscard]] LocalSnapshot snapshot() const;

  /// Restore exactly the state captured by snapshot(): full/delta bulk
  /// rebuilt from the key-ordered rows, staging cleared, support map
  /// replaced.  Local; the serving engine calls it on every rank after an
  /// aborted batch.
  void restore(const LocalSnapshot& snap);

  // -- collective operations ----------------------------------------------------

  /// Distribute and materialize initial facts.  Collective: every rank
  /// calls it with its (possibly empty) slice; each tuple is routed to its
  /// owner.  The resulting delta equals the loaded set.
  void load_facts(std::span<const Tuple> slice);

  /// Global tuple count of a version.  Collective.
  [[nodiscard]] std::uint64_t global_size(Version v);

  /// All tuples of `full`, gathered to `root` and sorted (empty elsewhere).
  /// Collective.  Test/readout oracle.
  [[nodiscard]] std::vector<Tuple> gather_to_root(int root = 0);

  /// Re-shard to a new sub-bucket count (spatial load balancing).
  /// Collective; returns the remote bytes this rank shipped.  When
  /// `cross_bytes` is given, it receives the cross-node portion (classified
  /// against the comm's topology) so the balancer can account locality.
  std::uint64_t reshuffle_to_sub_buckets(int new_sub_buckets,
                                         std::uint64_t* cross_bytes = nullptr);

  /// Persist the full version to a binary checkpoint file (rank 0 writes).
  /// Collective.  Long-running deductive jobs on shared clusters need
  /// restartability; checkpoints also let a fixpoint computed at one rank
  /// count be reloaded at another (the file is layout-independent).
  void save_checkpoint(const std::string& path);

  /// Replace this relation's contents with a checkpoint written by
  /// save_checkpoint (any rank count / sub-bucket layout).  Collective;
  /// rank 0 reads and scatters.  After loading, delta == full, as after
  /// load_facts.  Throws std::runtime_error on IO or format errors.
  void load_checkpoint(const std::string& path);

 private:
  void validate_config() const;
  /// Every rank's rows of `full`, flat, gathered to `root` and indexed by
  /// rank (empty elsewhere): each peer's scan crosses as one row frame.
  /// Collective.
  [[nodiscard]] std::vector<std::vector<value_t>> gather_rows(int root) const;
  [[nodiscard]] std::size_t effective_sub_cols() const {
    return indep_arity() - cfg_.jcc;  // columns feeding H2
  }

  vmpi::Comm* comm_;
  RelationConfig cfg_;
  std::uint32_t num_buckets_;
  int sub_buckets_;

  storage::TupleBTree full_;
  storage::TupleBTree delta_;

  // Staging: stored-order rows, folded into a run at the fold point and
  // by materialize().
  FoldRun staging_;

  // Derivation-event counts per key (serving mode only; empty otherwise).
  bool support_counts_ = false;
  std::unordered_map<Tuple, std::uint64_t, storage::TupleHash> support_;

  // Hot set (both containers hold the same keys; the vector preserves the
  // deterministic adoption order, the set answers key_is_hot in O(1)).
  std::vector<Tuple> hot_keys_;
  std::unordered_set<Tuple, storage::TupleHash> hot_set_;
};

}  // namespace paralagg::core
