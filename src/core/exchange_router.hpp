#pragma once

// Fused per-iteration exchange routing.
//
// The paper's thesis is communication avoidance, yet a naive engine pays
// one all-to-all of generated tuples per *rule* per iteration: a stratum
// with R loop rules issues ~2R collective exchanges per iteration, each
// with its own latency floor.  The ExchangeRouter decouples *emitting* a
// result tuple from *shipping* it: rules append rows into per-destination
// buckets owned by the router, and the engine flushes the
// router once per iteration with a single tagged alltoallv — collapsing
// ~2R exchanges to R+1 (the R intra-bucket exchanges remain per join).
// Every flush is one blocking exchange; the RQ1 baseline
// (EngineConfig::fuse_exchanges off) flushes after every rule instead.
//
// Because the router is the single choke point for generated tuples,
// three further communication-avoidance moves become trivial here:
//
//   * Self-loopback fast path: a row owned by the emitting rank bypasses
//     serialization entirely and lands directly in the target's staging
//     area.
//   * Sender-side pre-aggregation (partial partial aggregates): each
//     (target, destination) bucket is a FoldRun, the same sort-fold
//     Relation staging uses.  Rows that agree on their independent columns
//     collapse through the target's aggregator (plain rows deduplicate) as
//     the bucket fills and once more at flush, so every bucket reaches the
//     wire as a key-sorted, key-unique run — the paper's §IV-A fusion,
//     extended across all rules feeding a target.  With pre-aggregation
//     off the buckets only append, so every emitted row is sent.
//   * Cross-flush dominance filter: for a kLattice target with an
//     idempotent aggregator (and pre-aggregation on), each bucket also has
//     a *shipped run* — per key, the ⊔ of every value this rank has sent
//     that destination in the stratum.  At pack, a folded row the shipped
//     run already absorbs (shipped ⊔ row == shipped) is dropped: the owner
//     folded the shipped rows exactly once, so its stored value absorbs the
//     row too and it could never become a delta.  A target whose filter
//     rarely drops anything releases its shipped runs for the rest of the
//     stratum.  The filter is core::DominanceFilter, which the async
//     engine's STAGE path shares (core/shipped_run.hpp, DESIGN.md §6.3).
//
// Each destination's frame is one vmpi row frame (DESIGN.md §6.2) with a
// [route | count | rows] section per non-empty bucket; the route is the
// target's registration index, so every rank must register the same
// relations in the same order (SPMD, like everything else here).  The
// frame reader owns every decode check.  Empty buffers stay zero bytes on
// the wire.

#include <cstdint>
#include <span>
#include <vector>

#include "core/fold_run.hpp"
#include "core/profile.hpp"
#include "core/relation.hpp"
#include "core/shipped_run.hpp"
#include "vmpi/comm.hpp"

namespace paralagg::core {

/// How the router's flushes are routed.  Both ride the faultable
/// mailbox path (vmpi::Comm::alltoallv_mailbox and its p2p legs), so an
/// installed FaultPlan reaches every row frame and the reliable channel
/// heals it.
enum class ExchangeAlgorithm : std::uint8_t {
  kDense,  // one personalised alltoallv (bandwidth-optimal)
  /// Two-level topology-aware exchange: every node's aggregator rank —
  /// elected per flush by staged delta bytes (vmpi::Topology::
  /// elect_leaders; ties to the lowest rank) so the heaviest member merges
  /// in place — pre-merges the node's buffered deltas through the
  /// bucket fold, a leaders-only mailbox alltoallv carries the merged
  /// frames across nodes, and each leader scatters the arrivals
  /// intra-node.  3 steps instead of 1, but the
  /// cross-node volume shrinks by whatever the node-level MIN/MAX merge
  /// collapses.  Router flushes only: the intra-bucket shuffles have no
  /// fold context and always run dense.  Under a flat topology
  /// (node_size 1) it IS kDense.
  kHierarchical,
};

struct RouterFlushStats {
  std::uint64_t rows_sent = 0;       // rows serialized toward remote ranks
  std::uint64_t rows_staged = 0;     // rows decoded and staged from the exchange
  std::uint64_t rows_loopback = 0;   // self-owned rows staged without serialization
  /// Rows collapsed by sender-side pre-aggregation: at flush, and by the
  /// bucket folds of the emits since the previous flush.
  std::uint64_t rows_combined = 0;
  /// Folded rows the cross-flush dominance filter dropped: this rank had
  /// already sent their destination a value for the key that absorbs them.
  std::uint64_t rows_dominated = 0;
  /// Rows whose join key was hot at emit time: routed to the H2 spread
  /// rank instead of the owner (skew-optimal layout, DESIGN.md §13).
  std::uint64_t rows_hot_routed = 0;
  /// Rows the node aggregator collapsed across its members' contributions
  /// before the leaders-only exchange (hierarchical path, leaders only) —
  /// the cross-node bytes the two-level exchange avoided.
  std::uint64_t rows_node_merged = 0;
  /// The rank this flush elected as this rank's node aggregator
  /// (hierarchical path only; -1 elsewhere).  Election is by staged delta
  /// bytes with ties to the lowest rank, so the member already holding the
  /// most data merges in place instead of shipping it up first.
  int elected_leader = -1;
};

/// A router's row counters summed over flushes (and, in RunResult, over
/// ranks).  On the flat exchange every remote row emitted is sent,
/// combined or dominated.
struct RouterTotals {
  std::uint64_t rows_sent = 0;
  std::uint64_t rows_combined = 0;
  std::uint64_t rows_dominated = 0;
  RouterTotals& operator+=(const RouterFlushStats& st) {
    rows_sent += st.rows_sent;
    rows_combined += st.rows_combined;
    rows_dominated += st.rows_dominated;
    return *this;
  }
};

class ExchangeRouter {
 public:
  /// `preaggregate` makes the buckets fold (sender-side pre-aggregation);
  /// without it they only append.
  explicit ExchangeRouter(vmpi::Comm& comm, bool preaggregate = true);

  ExchangeRouter(const ExchangeRouter&) = delete;
  ExchangeRouter& operator=(const ExchangeRouter&) = delete;

  /// Register a target relation and return its route id.  Idempotent: a
  /// relation registered twice keeps its first id.  Every rank must
  /// register identical relations in the same order (route ids travel in
  /// the frames).
  std::uint32_t add_target(Relation* rel);

  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }
  [[nodiscard]] vmpi::Comm& comm() const { return *comm_; }

  /// Route a generated row toward its owner: self-owned rows stage
  /// immediately (loopback fast path), remote rows are buffered until the
  /// next flush, folding into their bucket's run at the fold point.
  /// `row` must be in the target's stored order.
  void emit(std::uint32_t route_id, std::span<const value_t> row);

  /// Rows currently buffered for remote ranks on this rank, after folds.
  [[nodiscard]] std::uint64_t pending_rows() const { return pending_rows_; }

  /// A target releases its shipped runs on this rank, for the rest of the
  /// router's life, once at least DominanceFilter::kReleaseMinHits rows
  /// found their key in them and fewer than 1 in kReleaseShare of those
  /// were dominated (DESIGN.md §6.3).
  static constexpr std::uint64_t kReleaseShare = 8;

  /// Does this rank still drop dominated rows for the target?  True from
  /// registration for idempotent kLattice targets under pre-aggregation,
  /// until a low yield releases the target's shipped runs.
  [[nodiscard]] bool filters_dominated(std::uint32_t route_id) const {
    return dominance_.live(route_id);
  }

  /// One blocking collective exchange carrying every buffered row, decoded
  /// straight into the target relations' staging areas (bulk, with
  /// pre-reserve).  The router's only exchange entry point.  Collective:
  /// every rank must call flush the same number of times, even with
  /// nothing buffered.
  RouterFlushStats flush(RankProfile& profile, ExchangeAlgorithm algo);

 private:
  /// recycle() returns a bucket's memory only above this capacity (in
  /// value_t) — smaller buffers are cheap to keep warm across flushes.
  static constexpr std::size_t kShrinkFloorValues = std::size_t{1} << 15;
  /// Clear runs, retaining capacity across flushes; release only a run
  /// whose capacity dwarfs what it just carried.
  static void recycle(std::vector<FoldRun>& runs);

  // Tag spaces of the hierarchical exchange's intra-node legs (member ->
  // leader gather, leader -> member scatter).  Disjoint from every vmpi
  // and async tag space; rotated per flush so a delayed frame can never
  // match a later flush's receive.
  static constexpr int kHierUpTagBase = 0x48A10000;
  static constexpr int kHierDownTagBase = 0x48A20000;
  static constexpr std::uint64_t kHierTagWindow = 4096;

  [[nodiscard]] FoldRun& bucket(std::size_t route_id, std::size_t dest) {
    return outgoing_[route_id * static_cast<std::size_t>(comm_->size()) + dest];
  }
  [[nodiscard]] std::size_t arity_of(std::uint64_t route_id) const {
    return targets_[route_id]->arity();
  }

  /// Start a flush's stats from the emit-side counters, resetting them.
  RouterFlushStats take_emit_stats();
  /// Fold bucket (route_id, dest) and drop the rows its shipped run
  /// dominates, folding the survivors into the shipped run.
  void fold_bucket(std::size_t route_id, std::size_t dest, RouterFlushStats& st);
  /// Fold and encode every bucket into per-destination frames.  The
  /// frames copy the rows out, so the caller recycle()s the buckets.
  std::vector<vmpi::Bytes> pack(RouterFlushStats& st);
  /// Stage every section of one [route | count | rows] frame.
  void stage_frame(std::span<const std::byte> frame, RouterFlushStats& st);
  /// Stage every frame of a finished exchange (Phase::kDedupAgg).
  void decode(const std::vector<vmpi::Bytes>& received, RouterFlushStats& st,
              RankProfile& profile);

  // -- hierarchical (two-level) exchange --------------------------------------
  //
  // flush() elects one leader per node, then pack_hier: members fold their
  // buckets and send them as one row frame (faultable isend) to their node
  // leader, with route dst * targets + target; the leader folds its own
  // buckets and the arrivals together per (dst, target) — the node-level
  // pre-aggregation — and encodes one frame per destination *node* (route
  // = member index * targets + target).  Every rank then joins the
  // leaders-only mailbox alltoallv (non-leaders all-empty, which keeps the
  // call collective), and absorb_hier: leaders decode per final
  // destination, stage their own rows, and scatter one frame per member;
  // members recv + stage.  Leg bytes are attributed to Op::kAlltoallv with
  // intra-node locality; the leaders' exchange records its own cross-node
  // bytes.  `leaders` is the node-indexed election, `seq` the flush's tag
  // rotation.

  /// Up-gather + node merge + leaders-only send vector.  Returns the
  /// buffers to exchange (empty everywhere for non-leader ranks).
  std::vector<vmpi::Bytes> pack_hier(RouterFlushStats& st, const std::vector<int>& leaders,
                                     std::uint64_t seq);
  /// Decode the leaders' exchange, scatter intra-node, stage everything.
  void absorb_hier(const std::vector<vmpi::Bytes>& received, RouterFlushStats& st,
                   RankProfile& profile, const std::vector<int>& leaders, std::uint64_t seq);

  vmpi::Comm* comm_;
  bool preaggregate_;
  std::vector<Relation*> targets_;
  // Row buckets, target-major: outgoing_[route_id * nranks + dest].
  std::vector<FoldRun> outgoing_;
  // What this rank shipped per bucket, same layout (empty unless the
  // target's filter is live), and each target's yield.
  DominanceFilter dominance_;
  // The hierarchical leader's per-(target, dest) node merge, same layout.
  std::vector<FoldRun> node_runs_;
  std::uint64_t pending_rows_ = 0;
  std::uint64_t loopback_rows_ = 0;
  std::uint64_t hot_routed_rows_ = 0;
  std::uint64_t combined_rows_ = 0;  // collapsed by bucket folds since the last flush
  std::vector<value_t> rows_scratch_;  // decoded section rows
  std::uint64_t hier_seq_ = 0;   // hierarchical flush sequence (tag rotation)
};

}  // namespace paralagg::core
