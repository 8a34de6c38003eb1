#pragma once

// Asynchronous fixpoint executor: nonblocking delta propagation.
//
// Runs the same Program/Stratum IR as core::Engine, but the recursive loop
// has no collectives at all.  Where the BSP engine's iteration is
//
//   plan vote → intra-bucket alltoallv → local join → router flush
//   (alltoallv) → materialize → termination allreduce,
//
// each rank here loops independently:
//
//   drain inbound messages → materialize staged rows → join the fresh
//   delta frontier locally → isend generated rows point-to-point,
//
// and quiescence is decided by a Safra token ring (async::TerminationDetector)
// instead of an allreduce.  Two message kinds circulate, both vmpi row
// frames (DESIGN.md §6.2) with one [id | count | rows] section per rule or
// target, like the ExchangeRouter's.  Frames carry no integrity metadata: under
// a message-faulting plan vmpi::ReliableChannel checks and deduplicates
// every frame, so each receive balances exactly one Safra-counted send:
//
//   * PROBE (per join rule): a fresh delta row of the recursive side,
//     replicated from its owner to every rank holding a sub-bucket of the
//     static side's bucket — the asynchronous double of the BSP
//     intra-bucket exchange.  Receivers join it against their local static
//     partition.
//   * STAGE (per target relation): a generated row, sent to the rank owning
//     its independent columns, where the fused dedup/lattice-aggregation
//     decides whether it is a strict ascent (→ new delta row) or noise.
//     A row this rank already queued its owner an absorbing value for is
//     dropped before its buffer (core::DominanceFilter, DESIGN.md §6.3).
//
// Safety: this schedule delivers deltas stale and out of order, so it is
// only sound when every recursive aggregate is a *genuine* semilattice
// join — commutative, associative, and idempotent (RecursiveAggregator::
// idempotent()).  Then the fixpoint is the join over all generated values,
// independent of delivery order, and bit-identical to the BSP engine's.
// check_supported() rejects everything else (antijoins, non-delta-driven
// loop rules, and — unless stale-synchronous mode is enabled — kRefresh /
// non-idempotent aggregates) with one typed UnsupportedProgramError that
// lists every violation once.
//
// Stale-synchronous mode (AsyncConfig::ssp, DESIGN.md §12): bounded-round
// Jacobi strata (fixpoint = false, e.g. PageRank) run as an epoch-pipelined
// exactly-once protocol instead of being rejected.  Every contribution is
// tagged (source rank, epoch) at frame granularity; each owner folds a
// given (source, epoch) partial exactly once — a per-source epoch ledger
// rejects a second frame, or one for a retired epoch, as a typed
// FaultError before the fold — so commutative+associative aggregates that
// are not idempotent
// ($SUM: RecursiveAggregator::exactly_once_capable()) reach fixpoints
// bit-identical to the BSP engine's.  Epoch watermarks ride the Safra
// token: the ring-wide minimum of folded epochs is both the flow-control
// signal that keeps a rank at most `ssp_staleness` epochs ahead of the
// slowest peer and the gate that keeps rank 0 from announcing termination
// before every rank has folded every epoch.
//
// Init rules and inter-stratum boundaries still use the collective path:
// the prohibition is on per-iteration collectives inside the loop, which
// is where the barrier-wait cost of skew lives.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/program.hpp"
#include "core/profile.hpp"

namespace paralagg::async {

/// Typed rejection for AsyncConfig values that cannot describe a run
/// (batch_rows == 0).  A config error is the caller's flag mistake —
/// distinct from UnsupportedProgramError, which indicts the program, not
/// the knobs.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Typed rejection for programs the asynchronous schedule cannot run
/// soundly.  One instance carries *every* violation (deduplicated), so a
/// program with two offending rules produces one diagnostic, not two.
class UnsupportedProgramError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct AsyncConfig {
  /// Rows buffered per (relation, destination) before an eager send; every
  /// productive local round flushes whatever is left below the threshold.
  /// 0 is a ConfigError.
  std::size_t batch_rows = 128;
  /// Safety net against runaway local loops (mirrors EngineConfig's
  /// max_iterations; exceeding it aborts the world).
  std::size_t max_rounds = 1'000'000;
  /// Stale-synchronous mode: run bounded-round Jacobi strata (fixpoint =
  /// false) under the epoch-pipelined exactly-once protocol instead of
  /// rejecting them.  Off by default — SSP admits non-idempotent
  /// aggregates, so it is an explicit opt-in.
  bool ssp = false;
  /// SSP flow-control window: how many epochs a rank may scan ahead of the
  /// watermark (the token-carried minimum of folded epochs across ranks).
  /// 0 is honest lockstep — every rank waits for the ring to confirm the
  /// previous epoch before scanning the next; >= 1 pipelines epochs.
  /// Exactness never depends on this value: the epoch ledger makes every
  /// setting reach the same bit-identical fixpoint.
  std::size_t ssp_staleness = 1;
};

/// Per-rank counters for one engine's async loops (cumulative over strata).
struct AsyncLoopStats {
  std::uint64_t rounds = 0;            // local rounds with actual work
  std::uint64_t messages_sent = 0;     // app messages (stage + probe)
  std::uint64_t messages_received = 0;
  std::uint64_t stage_rows_sent = 0;   // generated rows shipped to owners
  /// Remote rows dropped before their STAGE buffer: this rank had already
  /// queued the owner a value that absorbs them (core::DominanceFilter).
  std::uint64_t stage_rows_dominated = 0;
  /// Targets whose dominance filter this rank released for the rest of a
  /// stratum because it dropped too little.
  std::uint64_t filters_released = 0;
  std::uint64_t probe_rows_sent = 0;   // delta rows replicated for joining
  std::uint64_t rows_loopback = 0;     // self-owned rows staged directly
  /// Collective calls observed during the loop (excludes init rules and the
  /// post-loop stratum summary).  The whole point is that this stays 0.
  std::uint64_t collective_calls_in_loop = 0;
  /// Wall seconds parked in blocking recv while passive (the async
  /// counterpart of BSP barrier-wait time).
  double blocked_seconds = 0;
  std::uint64_t token_probes = 0;      // Safra probes rank 0 launched
  std::uint64_t tokens_forwarded = 0;

  // Stale-synchronous mode only (zero for fixpoint loops).
  std::uint64_t ssp_epochs = 0;  // epochs this rank folded
  /// (source, epoch) partial frames folded into an accumulator — the
  /// exactly-once invariant is that this equals nranks * epochs on every
  /// rank, no matter what the fault plan injected.
  std::uint64_t ssp_partials_folded = 0;
};

class AsyncEngine {
 public:
  explicit AsyncEngine(vmpi::Comm& comm, AsyncConfig cfg = {})
      : comm_(&comm), cfg_(cfg) {}

  [[nodiscard]] core::RankProfile& rank_profile() { return profile_; }
  [[nodiscard]] const AsyncConfig& config() const { return cfg_; }
  [[nodiscard]] const AsyncLoopStats& loop_stats() const { return loop_stats_; }

  /// Throws UnsupportedProgramError listing every construct the
  /// asynchronous schedule cannot run soundly under `cfg` (antijoins, loop
  /// rules not driven by a recursive delta, and — without cfg.ssp —
  /// non-fixpoint strata and kRefresh / non-idempotent aggregates).  All
  /// violations are collected and deduplicated into one diagnostic.
  static void check_supported(const core::Program& program, const AsyncConfig& cfg = {});

  /// Throws ConfigError on knob values that describe no schedule
  /// (batch_rows == 0).  run() calls this first.
  static void validate_config(const AsyncConfig& cfg);

  /// Execute one stratum: init rules on the collective path, then the
  /// nonblocking loop to quiescence.  Collective at entry and exit only.
  core::StratumResult run_stratum(const core::Stratum& stratum);

  /// Validate, check_supported, execute all strata, assemble the cross-rank
  /// summary.  Collective; the RunResult is identical on every rank.
  core::RunResult run(core::Program& program);

 private:
  vmpi::Comm* comm_;
  AsyncConfig cfg_;
  core::RankProfile profile_;
  AsyncLoopStats loop_stats_;
  core::JoinKernelTotals local_kernel_;  // this rank's share; reduced in run()
  core::RouterTotals local_router_;      // init flushes; run() adds the loops' STAGE rows
  std::uint64_t stratum_seq_ = 0;  // offsets detector tags per stratum
};

}  // namespace paralagg::async
