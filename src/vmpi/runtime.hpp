#pragma once

// SPMD launcher for the virtual MPI substrate.
//
// `run(nranks, fn)` plays the role of `mpirun -n nranks`: it spawns one
// thread per rank, hands each a Comm bound to a fresh World, and joins.
// Exceptions thrown by any rank are captured and the first (by rank order)
// is rethrown on the caller's thread, so a failing assertion inside a rank
// surfaces as an ordinary test failure.

#include <functional>

#include "vmpi/comm.hpp"

namespace paralagg::vmpi {

/// Launch-time knobs beyond the rank count.  The fault plan and watchdog
/// are installed on the World before any rank thread starts, so every
/// rank observes the same schedule from its first message.
struct RunOptions {
  FaultPlan fault{};
  /// Retransmit budget for the self-healing transport (vmpi/reliable.hpp).
  /// Engages only when `fault` injects message faults; default-on, so
  /// seeded drop/corrupt legs heal to bit-identical fixpoints instead of
  /// aborting.  max_attempts = 0 is fail-stop: the channel still checks
  /// every frame, and the first damaged one aborts typed.
  RetryPolicy retry{};
  /// Deadline (seconds) for every blocking wait; 0 disables the watchdog.
  /// A fault sweep sets a few seconds: long enough for slow CI, short
  /// enough that an injected hang fails the test instead of the runner.
  double watchdog_seconds = 0;
  /// Rank-to-node grouping for locality accounting and the hierarchical
  /// exchange (vmpi/topology.hpp).  Default: flat (every rank its own
  /// node, all remote traffic cross-node).
  Topology topology{};
};

/// Run `fn(comm)` on `nranks` ranks; blocks until all ranks return.
/// Returns the aggregated communication stats of the whole run.
CommStats run(int nranks, const std::function<void(Comm&)>& fn);
CommStats run(int nranks, const RunOptions& options,
              const std::function<void(Comm&)>& fn);

/// As `run`, but also copies each rank's CommStats into `per_rank`.
CommStats run_collect(int nranks, const std::function<void(Comm&)>& fn,
                      std::vector<CommStats>& per_rank);
CommStats run_collect(int nranks, const RunOptions& options,
                      const std::function<void(Comm&)>& fn,
                      std::vector<CommStats>& per_rank);

}  // namespace paralagg::vmpi
