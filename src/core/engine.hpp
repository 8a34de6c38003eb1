#pragma once

// The semi-naive fixpoint executor.
//
// Per iteration (paper Fig. 1, left to right), fused-exchange mode:
//   1. spatial load balancing           (Phase::kBalance)
//   2. per rule: dynamic join planning  (Phase::kPlan)
//      intra-bucket exchange            (Phase::kIntraBucket)
//      local join → emit into router    (Phase::kLocalJoin)
//   3. ONE router flush for all rules   (Phase::kAllToAll)
//   4. fused dedup/local aggregation    (Phase::kDedupAgg)
//   5. global termination check         (Phase::kOther)
//
// With `fuse_exchanges` off the router is flushed after every rule,
// reproducing the legacy one-exchange-per-rule schedule (2R collective
// rounds per iteration for R join rules, vs R+1 fused).  These are the
// only two schedules: every flush is one blocking router exchange.
//
// The engine is configurable into the paper's *baseline* mode (no
// balancing, fixed join order, unfused exchanges) for the RQ1 comparison.

#include <limits>
#include <optional>
#include <string>

#include "core/balancer.hpp"
#include "core/program.hpp"
#include "core/profile.hpp"
#include "core/skew.hpp"

namespace paralagg::core {

struct EngineConfig {
  /// Algorithm 1 on/off.  Off = every join ships the side named by
  /// `fixed_order`, reproducing the baseline "B" bars of Fig. 2.
  bool dynamic_join_order = true;
  JoinOrderPolicy fixed_order = JoinOrderPolicy::kFixedBOuter;

  BalanceConfig balance;

  /// Heavy-hitter routing (DESIGN.md §13): derive per-iteration hot join
  /// keys from the delta histogram and switch them to the hybrid plan —
  /// heavy-side rows spread across all ranks, probe rows broadcast.
  /// Fixpoints are bit-identical to the uniform path either way.
  SkewConfig skew;

  /// Exchange algorithm for the router's flushes: one dense alltoallv, or
  /// the two-level exchange under a grouped topology (DESIGN.md §10).
  ExchangeAlgorithm exchange = ExchangeAlgorithm::kDense;

  /// Collapse the per-rule all-to-all of generated tuples into a single
  /// router flush per iteration (R+1 collective rounds instead of 2R for
  /// R join rules).  Off = flush after every rule, the legacy schedule
  /// kept for baseline_config() (the RQ1 / Fig. 2 baseline).
  bool fuse_exchanges = true;

  /// Sender-side pre-aggregation in the router: collapse buffered rows
  /// with equal independent columns through the target's lattice join
  /// before they hit the wire.
  bool router_preagg = true;

  /// Safety net for runaway fixpoints (and the bound for refresh strata
  /// that forgot to set max_rounds).
  std::size_t max_iterations = 1'000'000;

  /// Abort a stratum once the cumulative number of materialized tuples
  /// exceeds this bound — the reproduction's stand-in for running a
  /// materializing query out of memory (the Table I "N/A" entries and the
  /// §V-A observation that Datalog CC cannot avoid the node product).
  std::uint64_t tuple_limit = std::numeric_limits<std::uint64_t>::max();

  /// Write a checkpoint manifest (core/checkpoint.hpp) every this many
  /// completed loop iterations, at the iteration boundary after global
  /// termination agreement.  0 disables checkpointing.  Requires
  /// `checkpoint_path`; only run(Program&) checkpoints (a bare
  /// run_stratum has no program to snapshot).
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
};

/// Convenience: the paper's unoptimized configuration (RQ1 baseline).
inline EngineConfig baseline_config() {
  EngineConfig cfg;
  cfg.dynamic_join_order = false;
  cfg.fixed_order = JoinOrderPolicy::kFixedBOuter;
  cfg.balance.enabled = false;
  cfg.fuse_exchanges = false;
  cfg.router_preagg = false;
  return cfg;
}

struct StratumResult {
  std::size_t iterations = 0;          // loop iterations executed
  std::uint64_t tuples_generated = 0;  // staged across all loop rules
  bool reached_fixpoint = false;
  bool aborted_tuple_limit = false;    // stopped by EngineConfig::tuple_limit
};

struct RunResult {
  std::size_t total_iterations = 0;
  std::vector<StratumResult> strata;
  /// True iff any stratum hit EngineConfig::tuple_limit — the run's
  /// results are truncated, whatever the per-stratum flags say.
  bool aborted_tuple_limit = false;
  /// True iff the run was cut short by an injected or detected fault
  /// (vmpi::FaultError: watchdog timeout, injected rank death, corrupt
  /// frame).  The world is poisoned at that point, so the cross-rank
  /// summary fields below are NOT populated; `fault_what` carries the
  /// fault's message.  This rank unwound cleanly — no hang, no UB.
  bool aborted_fault = false;
  std::string fault_what;
  /// True iff this run was restarted from a checkpoint manifest
  /// (Engine::resume); total_iterations then includes the iterations the
  /// original run had completed before the manifest was taken.
  bool resumed = false;
  ProfileSummary profile;      // identical on every rank
  vmpi::CommStats comm_total;  // identical on every rank
  /// Whole-run local-join kernel counters (core/local_join.hpp), summed
  /// over ranks and rules; identical on every rank.
  JoinKernelTotals kernel;
  /// Max-over-ranks of each kernel counter (identical on every rank) —
  /// the straggler's view.  kernel / kernel_max is the skew story: a
  /// uniform workload has kernel_max ≈ kernel / nranks, a hub-dominated
  /// one concentrates kernel_max on the hub's owner.
  JoinKernelTotals kernel_max;
  /// Heavy-hitter routing activity (identical on every rank): detections
  /// and hot_iterations are max-over-ranks, row counts are summed.
  SkewStats skew;
  /// Router rows summed over ranks and flushes (identical on every rank):
  /// sent, collapsed by sender-side pre-aggregation, and dropped by the
  /// cross-flush dominance filter.  The async engine adds its loops' STAGE
  /// rows sent and dropped by the same filter.
  RouterTotals router;
  double wall_seconds = 0;     // this rank's view
};

/// Fill `result.kernel` (sums over ranks) and `result.kernel_max` (maxima)
/// from this rank's kernel counters.  Collective; both engines' run
/// summaries call it.
void reduce_kernel_totals(vmpi::Comm& comm, const JoinKernelTotals& local, RunResult& result);

/// Fill `result.router` with this rank's router counters summed over
/// ranks.  Collective; both engines' run summaries call it.
void reduce_router_totals(vmpi::Comm& comm, const RouterTotals& local, RunResult& result);

class Engine {
 public:
  Engine(vmpi::Comm& comm, EngineConfig cfg = {}) : comm_(&comm), cfg_(cfg) {}

  [[nodiscard]] RankProfile& rank_profile() { return profile_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  /// Execute one stratum to completion.  Collective.  `start_iteration`
  /// skips the first loop iterations (a resumed stratum continues where
  /// the manifest left off); `skip_init` suppresses the init rules (their
  /// effects are already part of the restored full versions).
  StratumResult run_stratum(const Stratum& stratum, std::size_t start_iteration = 0,
                            bool skip_init = false);

  /// Validate and execute a whole program, then assemble the cross-rank
  /// summary.  Collective; the result is identical on every rank.
  RunResult run(Program& program);

  /// Restart from a checkpoint manifest: restore every relation, then run
  /// from the recorded (stratum, iteration) to completion.  The program
  /// must be the SPMD-identical program that wrote the manifest (same
  /// relations, same strata), at any rank count.  Collective; throws
  /// CheckpointError if the manifest is missing or corrupt.
  RunResult resume(Program& program, const std::string& manifest_path);

  /// Delta-seeded continuation for incremental serving: run every stratum
  /// in order, suppressing init rules for recursive strata (their targets
  /// are incrementally maintained and the caller has already materialized
  /// the seed delta), while init-only strata (projections over the evolved
  /// state) re-run their init rules.  Semi-naive evaluation from whatever
  /// deltas the caller staged; collective, same summary as run().
  RunResult run_delta(Program& program);

 private:
  /// Execute one rule (join or copy) into `router`, honouring the engine's
  /// join-order override.  Pure local-emit: the exchange schedule (fused /
  /// per-rule) is run_rules' business.
  RuleExecStats execute_rule(const Rule& rule, ExchangeRouter& router);

  /// Execute a rule list under the configured exchange schedule: one fused
  /// flush after all rules, or one flush per rule (legacy).  On return
  /// every emitted row is staged.
  void run_rules(const std::vector<Rule>& rules, ExchangeRouter& router);

  /// Distinct relations targeted by a rule list, in first-use order.
  static std::vector<Relation*> targets_of(const std::vector<Rule>& rules);
  /// Distinct relations read by a rule list (join sides / copy sources).
  static std::vector<Relation*> sources_of(const std::vector<Rule>& rules);

  /// Shared tail of run()/resume()/run_delta(): execute strata
  /// `first..end`, catching vmpi::FaultError into aborted_fault, then
  /// assemble the cross-rank summary (skipped when the world is poisoned
  /// by a fault).  `delta_mode` overrides the init-skip decision per
  /// stratum: recursive strata skip init, init-only strata run it.
  RunResult run_from(Program& program, std::size_t first_stratum,
                     std::size_t start_iteration, bool skip_init,
                     std::uint64_t prior_iterations, bool delta_mode = false);

  /// Relations of this stratum's loop joins eligible for the hot-key
  /// layout: non-anti join sides with non-join independent columns to
  /// spread by, minus anything negated anywhere in the program (absence
  /// is a global property; a spread inner could conclude it locally).
  [[nodiscard]] std::vector<Relation*> skew_candidates(const Stratum& stratum) const;

  vmpi::Comm* comm_;
  EngineConfig cfg_;
  RankProfile profile_;
  std::uint64_t cumulative_materialized_ = 0;
  JoinKernelTotals local_kernel_;  // this rank's share; summed in run()
  RouterTotals local_router_;      // this rank's share; summed in run()
  SkewStats local_skew_;           // this rank's share; reduced in run()
  // Checkpoint context, valid only inside run_from(): the program being
  // executed, the index of the stratum in flight, and the loop iterations
  // completed in earlier strata (for the manifest's total count).
  Program* program_ = nullptr;
  std::size_t stratum_index_ = 0;
  std::uint64_t prior_iterations_ = 0;
};

}  // namespace paralagg::core
