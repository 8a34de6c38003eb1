#pragma once

// Deterministic fault injection for the virtual MPI substrate.
//
// The paper's Theta runs assume a perfect interconnect; production never
// has one.  A FaultPlan installed on a World perturbs the message layer —
// drop, duplicate, bounded reorder/delay, single-byte corruption, and
// rank stall/kill at a chosen epoch — and every decision is a pure
// function of (seed, src, dst, per-edge sequence number), so any observed
// schedule is replayable from its seed alone.
//
// Scope: a running engine's row frames are faultable; collective relays
// and one-shot moves are not.  Faultable are messages sent via isend
// (async deltas, the Safra token, the hierarchical router's intra-node
// legs), the Bruck relay, and alltoallv_mailbox (router flushes, the
// join's intra-bucket exchange, the hierarchical leaders' exchange,
// serving's mutation rows).  The plain alltoallv (fact loads, reshuffles,
// hot-key moves), bcast, gatherv and the symmetric collectives' rounds
// relay over a direct enqueue that models MPI's reliable transport; they
// are perturbed only via the stall/kill epochs and the watchdog.  A fact
// load on the faultable path would let a retry-0 drop escape the
// engines' single catch site as an exception out of the load.
//
// Failure surfacing is layered on top (see comm.hpp): a watchdog deadline
// on every blocking wait converts the silent hang an injected fault would
// cause into a typed TimeoutError carrying this rank's CommStats snapshot.
//
// Whenever a plan faults messages, every faultable frame is wrapped by the
// self-healing transport (vmpi/reliable.hpp), the one integrity layer:
// it CRC-checks and deduplicates each frame before any application decoder
// sees it.  With a nonzero RetryPolicy the injected drops and corruptions
// are retransmitted to bit-identical completion, and the typed abort fires
// only when the retry budget is exhausted.  RetryPolicy::max_attempts = 0
// keeps the checks but heals nothing: corruption aborts typed at once and
// a drop starves into the watchdog abort described above.  Retransmits
// re-enter this layer with a fresh per-edge physical sequence number, so
// every retransmit rolls its own fault.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "vmpi/stats.hpp"

namespace paralagg::vmpi {

/// Base class of every injected-failure condition the substrate raises.
/// Engines catch this (not individual subclasses) to turn a fault into a
/// clean RunResult instead of a wedged process.
struct FaultError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A blocking wait (barrier, recv, collective rendezvous) exceeded the
/// watchdog deadline — or was released because a peer's wait did.
/// Carries the waiting rank's communication counters at the moment of the
/// timeout, so a post-mortem can see e.g. which edge retransmitted, or
/// wait_seconds dwarfing useful work.
struct TimeoutError : FaultError {
  TimeoutError(std::string where_, double deadline_seconds_, CommStats snapshot);

  std::string where;        // which primitive timed out
  double deadline_seconds;  // the watchdog setting that fired
  CommStats stats;          // this rank's counters at the timeout
};

/// Thrown on the victim rank when FaultPlan::kill_rank reaches its epoch:
/// the simulated process death.  Peers observe it only as silence (and
/// eventually a TimeoutError), exactly like a real rank crash.
struct FaultInjectedDeath : FaultError {
  FaultInjectedDeath(int rank_, std::uint64_t epoch_);

  int rank;
  std::uint64_t epoch;
};

/// A received frame failed a decoder's structural check (a row frame's
/// route, row count or varint; a relay rank or length; a token field):
/// raised instead of decoding a malformed buffer.  Derives from FaultError
/// so one catch site in the engines covers every injected-failure surface.
struct FrameDecodeError : FaultError {
  using FaultError::FaultError;
};

/// Seeded description of what to break.  All probabilities are per
/// message, evaluated independently per (src, dst, edge-sequence) triple;
/// at most one fault class applies to a message (cumulative thresholds in
/// the order drop, duplicate, delay, corrupt).
struct FaultPlan {
  std::uint64_t seed = 0;

  // -- message faults (mailbox path only) -----------------------------------
  double drop_prob = 0;     // message vanishes
  double dup_prob = 0;      // message delivered twice (back to back)
  double delay_prob = 0;    // message held back, released out of order
  double corrupt_prob = 0;  // one payload byte flipped
  /// Upper bound on how many subsequent same-edge sends a delayed message
  /// may be held behind (it is also released whenever the sender blocks,
  /// so delivery is always eventual).
  std::uint32_t max_delay_msgs = 3;
  /// Directed-edge filter: when >= 0, message faults fire only on sends
  /// from only_src / to only_dst (both set = one directed edge).  This is
  /// how a test expresses "drop every retransmit of edge a->b" without
  /// touching the rest of the traffic.
  int only_src = -1;
  int only_dst = -1;

  // -- rank faults ----------------------------------------------------------
  /// Kill `kill_rank` when its epoch counter reaches `kill_epoch` (epochs
  /// are advanced by the engines at iteration boundaries via
  /// Comm::advance_epoch).  -1 = disabled.
  int kill_rank = -1;
  std::uint64_t kill_epoch = 0;
  /// Stall `stall_rank` for `stall_seconds` at `stall_epoch`.  -1 = disabled.
  int stall_rank = -1;
  std::uint64_t stall_epoch = 0;
  double stall_seconds = 0;

  /// Any fault configured at all?
  [[nodiscard]] bool active() const {
    return faults_messages() || kill_rank >= 0 || stall_rank >= 0;
  }
  /// Any per-message fault configured (the isend fast path gate)?
  [[nodiscard]] bool faults_messages() const {
    return drop_prob > 0 || dup_prob > 0 || delay_prob > 0 || corrupt_prob > 0;
  }
};

/// What to do with one message.
enum class FaultAction : std::uint8_t {
  kDeliver = 0,
  kDrop,
  kDuplicate,
  kDelay,
  kCorrupt,
};

struct FaultDecision {
  FaultAction action = FaultAction::kDeliver;
  std::uint32_t delay_msgs = 0;    // kDelay: hold behind this many sends
  std::uint64_t corrupt_index = 0; // kCorrupt: byte offset selector
};

/// The single source of randomness: a splitmix64-style hash of
/// (seed, src, dst, seq).  Identical across replays by construction.
[[nodiscard]] std::uint64_t fault_hash(std::uint64_t seed, int src, int dst,
                                       std::uint64_t seq);

/// Decide the fate of the seq-th message on edge src→dst under `plan`.
[[nodiscard]] FaultDecision fault_decide(const FaultPlan& plan, int src, int dst,
                                         std::uint64_t seq);

}  // namespace paralagg::vmpi
