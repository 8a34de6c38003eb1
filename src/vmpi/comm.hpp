#pragma once

// Virtual MPI communicator.
//
// PARALAGG as published runs on real MPI (OpenMPI / Cray MPICH on Theta).
// This substrate reproduces the subset of MPI the engine uses — blocking
// and nonblocking point-to-point, barrier, allreduce, allgather(v), bcast,
// gather(v), alltoall(v) — with ranks realised as OS threads inside one
// process.  Semantics follow MPI: ranks share no buffers (a payload is
// copied into, or moved through, the receiver's mailbox), collectives are
// collective (every rank of the communicator must call them, in the same
// order), and results are deterministic (reductions fold in rank order).
//
// Every collective moves its payloads through per-rank mailboxes; only
// the barrier, a generation counter, moves nothing.
//
// Why a substrate and not a mock: the engine's communication pattern (who
// sends how many bytes to whom, in which phase) *is* the paper's subject.
// Running the real pattern through a real exchange, with byte-exact
// accounting, preserves everything the evaluation measures except absolute
// wall-clock — which a 1-core container could not reproduce anyway.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "vmpi/fault.hpp"
#include "vmpi/reliable.hpp"
#include "vmpi/serialize.hpp"
#include "vmpi/stats.hpp"
#include "vmpi/topology.hpp"

namespace paralagg::vmpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Deterministic reduction operators for typed allreduce.
enum class ReduceOp : std::uint8_t { kSum, kMin, kMax, kLand, kLor };

/// Thrown inside blocked ranks when a peer rank failed: without this, one
/// rank dying with an exception would leave the others waiting forever at
/// the next barrier.  (Real MPI has the same hazard; mpirun kills the job.)
struct WorldAborted : std::exception {
  const char* what() const noexcept override { return "vmpi: a peer rank aborted"; }
};

namespace detail {

/// Internal wake reasons for watchdog-bounded waits; converted by Comm
/// into TimeoutError (with a stats snapshot) before they leave vmpi.
struct WaitTimeout {};  // this waiter's own deadline expired
struct FaultWake {};    // a peer's timeout / fault poisoned the world

/// Park slice of a wait that services the reliable channel: short against
/// the retry backoff, coarse enough not to spin.  Waits without an engaged
/// channel are never sliced.
inline constexpr std::chrono::milliseconds kServiceSlice{10};

/// Classic generation-counting barrier (condition-variable based; the
/// container has one physical core, so spinning would be pathological).
/// Abortable two ways: `abort()` releases all current and future waiters
/// with WorldAborted (a peer rank died with an exception); `fault_abort()`
/// releases them with FaultWake (a peer hit its watchdog deadline or an
/// injected fault — the typed-failure path).  A waiter whose own
/// `timeout_seconds` expires first leaves with WaitTimeout.
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}

  /// Arrive and park until the generation completes, for at most
  /// `timeout_seconds` (0 = no deadline): one condition-variable wait, or,
  /// with a `service` pump (the reliable channel's, while one is engaged),
  /// 10 ms slices so a sender with unacked frames keeps healing its peers.
  /// `service` runs with the lock dropped and this rank's arrival counted;
  /// returning true (healing progress) re-arms the deadline.
  void arrive_and_wait(double timeout_seconds = 0,
                       const std::function<bool()>& service = {}) {
    std::unique_lock lock(m_);
    if (aborted_) throw WorldAborted{};
    if (faulted_) throw FaultWake{};
    const auto my_gen = gen_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    const auto pred = [&] { return gen_ != my_gen || aborted_ || faulted_; };
    // Withdraw our arrival so the count cannot complete a generation we
    // gave up on (the caller fault-aborts the world next).
    const auto withdraw = [&] {
      if (gen_ == my_gen && arrived_ > 0) --arrived_;
    };
    using Clock = std::chrono::steady_clock;
    const auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(timeout_seconds));
    auto armed = Clock::now();
    while (!pred()) {
      if (timeout_seconds > 0 && Clock::now() - armed >= budget) {
        withdraw();
        throw WaitTimeout{};
      }
      if (service) {
        if (!cv_.wait_for(lock, kServiceSlice, pred)) {
          lock.unlock();
          bool progressed = false;
          try {
            progressed = service();
          } catch (...) {
            lock.lock();
            withdraw();
            throw;
          }
          lock.lock();
          if (progressed) armed = Clock::now();
        }
      } else if (timeout_seconds > 0) {
        cv_.wait_until(lock, armed + budget, pred);
      } else {
        cv_.wait(lock, pred);
      }
    }
    if (gen_ == my_gen) {
      if (aborted_) throw WorldAborted{};
      if (faulted_) throw FaultWake{};
    }
  }

  void abort() {
    std::lock_guard lock(m_);
    aborted_ = true;
    cv_.notify_all();
  }

  void fault_abort() {
    std::lock_guard lock(m_);
    faulted_ = true;
    cv_.notify_all();
  }

  /// Clear fault poisoning (the serving engine's post-rollback world
  /// reset).  Waiters a fault released never withdrew their arrivals, so
  /// the count and generation are re-zeroed together.
  void reset_fault() {
    std::lock_guard lock(m_);
    faulted_ = false;
    arrived_ = 0;
    ++gen_;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int n_;
  int arrived_ = 0;
  bool aborted_ = false;
  bool faulted_ = false;
  std::uint64_t gen_ = 0;
};

struct Message {
  int src;
  int tag;
  Bytes payload;
  /// True while the payload is still wrapped in a ReliableChannel
  /// envelope: invisible to recv / iprobe matching until the receiver's
  /// service pass strips (fresh frame) or consumes (dup, corrupt) it.
  bool enveloped = false;
};

/// Deliverable to the application — reliable-layer frames are not, even
/// under the kAnySource / kAnyTag wildcards.
inline bool deliverable(const Message& m) {
  return !m.enveloped && m.tag != kReliableCtrlTag;
}

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Message> q;
  bool aborted = false;
  bool faulted = false;
  /// Count of queued messages that are NOT deliverable (enveloped data +
  /// control frames); lets consumers skip the service scan when zero.
  std::size_t undelivered = 0;
  /// Deliverable arrivals that land without waking the parked owner (set
  /// by a receive leg expecting several frames; cleared when it wakes).
  std::size_t quiet = 0;
};

}  // namespace detail

/// Shared state for one group of ranks: one mailbox per rank, the barrier,
/// and the launch-time settings.  It holds no collective buffers — every
/// collective moves its payloads through the mailboxes.  Constructed once,
/// handed to every rank thread; all members are synchronised internally.
class World {
 public:
  explicit World(int nranks);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return nranks_; }

  /// Wake every rank blocked in a barrier or recv; they throw WorldAborted.
  /// Called by the runtime when a rank exits exceptionally.
  void abort();

  /// Typed-failure twin of abort(): wake every blocked rank so each throws
  /// a TimeoutError instead of hanging.  Called by the rank whose watchdog
  /// fired (or that detected a corrupt frame); idempotent and thread-safe.
  /// The world stays poisoned — any later blocking call fails fast — so
  /// callers must not attempt further collectives after catching.
  void fault_abort();

  /// Install the fault schedule.  Call before the rank threads start
  /// communicating (vmpi::run does this from RunOptions); the plan is
  /// read-only afterwards.
  void set_fault_plan(const FaultPlan& plan) { plan_ = plan; }
  [[nodiscard]] const FaultPlan& fault_plan() const { return plan_; }

  /// Retransmit budget for the self-healing transport (vmpi/reliable.hpp);
  /// like the fault plan, installed before the rank threads start.  The
  /// channel engages whenever the plan faults messages, so a clean world
  /// pays nothing; max_attempts = 0 keeps its checks but heals nothing
  /// (fail-stop on the first damaged frame).
  void set_retry(const RetryPolicy& r) { retry_ = r; }
  [[nodiscard]] const RetryPolicy& retry() const { return retry_; }

  /// Collective un-poisoning after a typed abort — the serving engine's
  /// batch rollback needs it, because lookups are collectives and serving
  /// after an aborted batch requires a clean world.  Every live rank must
  /// call this; the last arrival clears the barrier/mailbox poison and
  /// purges stranded messages while all peers are parked here (so no rank
  /// is mid-send).  Returns false if the
  /// rendezvous does not complete within `timeout_seconds` (a rank is
  /// truly gone): the world stays poisoned and the caller must stop
  /// serving.  abort() poisoning (real process death) is not resettable.
  bool fault_reset(double timeout_seconds);

  /// Deadline (seconds) for every blocking wait: the barrier and recv,
  /// which every collective's receive legs use.  0 disables the watchdog
  /// (the default — fault-free runs must not pay spurious wakeups).
  void set_watchdog(double seconds) { watchdog_seconds_ = seconds; }
  [[nodiscard]] double watchdog_seconds() const { return watchdog_seconds_; }

  /// Install the rank-to-node grouping (vmpi/topology.hpp).  Like the
  /// fault plan: set before the rank threads start, read-only afterwards.
  /// Pure accounting — no data moves differently — but every remote byte
  /// is classified intra- vs cross-node against it.
  void set_topology(const Topology& topo) { topo_ = topo; }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Aggregate of all per-rank stats (call only after the ranks joined).
  [[nodiscard]] CommStats total_stats() const;
  [[nodiscard]] const CommStats& stats_of(int rank) const { return stats_[static_cast<std::size_t>(rank)]; }

 private:
  friend class Comm;

  int nranks_;
  FaultPlan plan_;
  RetryPolicy retry_{};
  Topology topo_{};
  double watchdog_seconds_ = 0;
  detail::Barrier barrier_;
  // Rendezvous for fault_reset: poison-immune counter/cv pair (the barrier
  // itself may be the thing being reset).
  std::mutex reset_mu_;
  std::condition_variable reset_cv_;
  int reset_arrived_ = 0;
  std::uint64_t reset_gen_ = 0;
  std::vector<detail::Mailbox> mailboxes_;
  std::vector<CommStats> stats_;
};

/// Per-rank communicator handle.  Exactly one per rank thread; not shared
/// across threads.  All collective calls must be made by every rank of the
/// world in the same order (MPI semantics).
class Comm {
 public:
  Comm(World& world, int rank) : world_(&world), rank_(rank) {
    if (world.plan_.faults_messages()) {
      channel_ = std::make_unique<ReliableChannel>(
          rank, world.size(), world.retry_, &world.stats_[static_cast<std::size_t>(rank)]);
    }
  }
  /// A dying rank must not strand messages an injected delay held back:
  /// peers blocked on them would otherwise only learn via the watchdog.
  /// Likewise the reliable channel gets one best-effort final pump so
  /// pending acks and retransmits ship before this rank goes silent
  /// (escalation is meaningless mid-destruction and is swallowed).
  ~Comm() {
    flush_delayed();
    if (channel_) {
      try {
        service_reliable();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
  }
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return world_->size(); }
  [[nodiscard]] bool is_root() const { return rank_ == 0; }
  [[nodiscard]] CommStats& stats() { return world_->stats_[static_cast<std::size_t>(rank_)]; }
  [[nodiscard]] World& world() { return *world_; }
  [[nodiscard]] double watchdog_seconds() const { return world_->watchdog_seconds_; }
  [[nodiscard]] const Topology& topology() const { return world_->topo_; }

  /// Record `bytes` moved toward `dst` under `op`, locality-classified
  /// against the world topology (self -> local, same node -> intra-node
  /// remote, otherwise cross-node remote).  No-op under StatsPause.  For
  /// callers (the hierarchical router) that move data over raw p2p legs
  /// but attribute it to a collective op.
  void account_send(Op op, std::uint64_t bytes, int dst) {
    if (!stats_enabled_) return;
    const bool remote = dst != rank_;
    stats().record_send(op, bytes, remote,
                        remote && !world_->topo_.same_node(rank_, dst));
  }
  /// Record schedule steps under `op`; no-op under StatsPause.
  void account_steps(Op op, std::uint64_t n) {
    if (stats_enabled_) stats().record_steps(op, n);
  }

  /// Engines call this at every iteration boundary (BSP) or local round
  /// (async): releases delayed messages, then applies the FaultPlan's
  /// rank-level faults for the new epoch — FaultInjectedDeath on the kill
  /// victim, a sleep on the stall victim.  Cheap no-op without a plan.
  void advance_epoch();
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Release every message an injected delay is still holding back.
  /// Called automatically at each blocking-wait entry (and from
  /// advance_epoch / the destructor), which is what bounds the reorder:
  /// a rank either keeps sending — releasing by sequence — or blocks.
  void flush_delayed();

  /// Toggle byte accounting; returns the previous setting.  Used to keep
  /// instrumentation exchanges (profile gathering, test oracles) out of the
  /// measured communication volume.
  bool set_stats_enabled(bool enabled) {
    const bool prev = stats_enabled_;
    stats_enabled_ = enabled;
    return prev;
  }
  [[nodiscard]] bool stats_enabled() const { return stats_enabled_; }

  /// Reset this rank's transport state (drop held frames, fresh channel)
  /// and rendezvous with every peer to un-poison the world — the serving
  /// engine's post-rollback path.  Returns false if the rendezvous timed
  /// out; the world then stays poisoned.
  bool fault_reset(double timeout_seconds);

  // -- synchronisation ------------------------------------------------------

  /// Park until every rank arrived, bounded by the watchdog, servicing an
  /// engaged reliable channel meanwhile.  Touches no mailbox.
  void barrier();

  // -- point-to-point -------------------------------------------------------

  /// Nonblocking-style send: enqueues a copy and returns.  (vmpi buffers
  /// internally, so MPI_Isend and MPI_Send coincide; the engine treats the
  /// call as Isend per the paper.)
  void isend(int dst, int tag, std::span<const std::byte> data);

  /// Blocking receive matching (src, tag); kAnySource / kAnyTag wildcard.
  /// Returns the payload; out_src / out_tag receive the envelope if non-null.
  /// Matching is FIFO over this rank's mailbox: among queued messages that
  /// match the pattern, the earliest-enqueued one is delivered first.
  /// Bounded by the watchdog; with a reliable channel engaged the wait
  /// services it, and healing progress re-arms the deadline.
  Bytes recv(int src, int tag, int* out_src = nullptr, int* out_tag = nullptr) {
    return receive(src, tag, out_src, out_tag, /*relay=*/false, 1);
  }

  /// Nonblocking probe: true if a matching message is queued.
  [[nodiscard]] bool iprobe(int src, int tag);

  /// Drain every currently queued message matching `tag` (any source)
  /// without blocking: `on_msg(src, payload)` is invoked per message in
  /// arrival order.  Returns the number of messages delivered.  This is the
  /// iprobe/recv loop every nonblocking consumer would otherwise hand-roll
  /// (the async engine's inbound delta pump).
  template <typename F>
  std::size_t drain(int tag, F&& on_msg) {
    std::size_t delivered = 0;
    int src = 0;
    while (iprobe(kAnySource, tag)) {
      Bytes payload = recv(kAnySource, tag, &src);
      on_msg(src, std::move(payload));
      ++delivered;
    }
    return delivered;
  }

  // -- collectives (byte-level) ---------------------------------------------

  /// Each rank contributes a buffer; every rank gets all buffers, indexed by
  /// rank.
  std::vector<Bytes> allgatherv(std::span<const std::byte> mine);

  /// Root's buffer is copied to every rank: one relay send to each peer
  /// (no fault injection, like every collective but alltoallv_mailbox).
  Bytes bcast(int root, std::span<const std::byte> data);

  /// Root receives all buffers (indexed by rank); non-roots get empty.
  /// Each non-root makes one relay send to the root.
  std::vector<Bytes> gatherv(int root, std::span<const std::byte> mine);

  /// Personalised exchange (MPI_Alltoallv): send[d] goes to rank d;
  /// returns recv[s] from each rank s, the self-destined buffer included.
  /// n-1 relay sends (moved, not copied) and n-1 receives on one rotated
  /// tag, recorded as one call and one step.  The one-shot row moves run
  /// here as row frames through vmpi::exchange_rows (fact loads,
  /// reshuffles, hot-key moves, the comparators' shuffles); so does
  /// alltoallv_t.
  std::vector<Bytes> alltoallv(std::vector<Bytes> send) {
    return exchange(std::move(send), /*faultable=*/false);
  }

  /// alltoallv with the remote buffers on the faultable path, where the
  /// FaultPlan reaches them and the reliable channel heals them; the same
  /// exchange without an engaged channel.  A running engine's row frames
  /// ride it: router flushes, the hierarchical leaders' exchange, and
  /// (through vmpi::exchange_rows) intra-bucket exchanges and serving's
  /// mutation rows.
  std::vector<Bytes> alltoallv_mailbox(std::vector<Bytes> send) {
    return exchange(std::move(send), /*faultable=*/true);
  }

  /// Same contract as alltoallv, routed through ceil(log2 n) point-to-point
  /// rounds (the Bruck algorithm the PARALAGG authors optimise in their
  /// HPDC'22 work, cited by the paper): each rank sends at most one message
  /// per round, relaying items toward their destination by the set bits of
  /// (dst - rank) mod n.  Trades message count (log n vs n-1) for byte
  /// volume (each item is relayed once per set bit) — the right trade for
  /// sparse, latency-bound exchanges.  Received buffers are concatenations
  /// of everything rank s sent to this rank (possibly out of send order).
  std::vector<Bytes> alltoallv_bruck(std::vector<Bytes> send);

  // -- collectives (typed helpers) ------------------------------------------

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T allreduce(T local, ReduceOp op) {
    BufferWriter w(sizeof(T));
    w.put(local);
    // Block allgather, then a local fold in rank order: the deterministic
    // reduction-order contract holds because the fold never depends on
    // arrival order.
    auto all = gather_blocks(w.take(), Op::kAllreduce);
    T acc{};
    bool first = true;
    for (const auto& b : all) {
      BufferReader r(b);
      const T v = r.get<T>();
      if (first) {
        acc = v;
        first = false;
        continue;
      }
      switch (op) {
        case ReduceOp::kSum: acc = static_cast<T>(acc + v); break;
        case ReduceOp::kMin: acc = v < acc ? v : acc; break;
        case ReduceOp::kMax: acc = acc < v ? v : acc; break;
        case ReduceOp::kLand: acc = static_cast<T>(acc && v); break;
        case ReduceOp::kLor: acc = static_cast<T>(acc || v); break;
      }
    }
    return acc;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> allgather(T v) {
    BufferWriter w(sizeof(T));
    w.put(v);
    auto all = gather_blocks(w.take(), Op::kAllgather);
    std::vector<T> out;
    out.reserve(all.size());
    for (const auto& b : all) {
      BufferReader r(b);
      out.push_back(r.get<T>());
    }
    return out;
  }

  /// allgather for CommStats, which the per-edge heal vectors make
  /// non-trivially-copyable: byte-serialized over the same block
  /// allgather, so accounting and determinism match allgather<T>.
  std::vector<CommStats> allgather_stats(const CommStats& mine) {
    auto all = gather_blocks(mine.to_bytes(), Op::kAllgather);
    std::vector<CommStats> out;
    out.reserve(all.size());
    for (const auto& b : all) out.push_back(CommStats::from_bytes(b));
    return out;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T bcast_value(int root, T v) {
    BufferWriter w(sizeof(T));
    w.put(v);
    auto b = bcast(root, w.take());
    BufferReader r(b);
    return r.get<T>();
  }

  /// Typed alltoallv over vectors of trivially copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<std::vector<T>> alltoallv_t(const std::vector<std::vector<T>>& send) {
    std::vector<Bytes> raw(send.size());
    for (std::size_t d = 0; d < send.size(); ++d) {
      BufferWriter w(send[d].size() * sizeof(T));
      w.put_span(std::span<const T>(send[d]));
      raw[d] = w.take();
    }
    auto got = alltoallv(std::move(raw));
    std::vector<std::vector<T>> out(got.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      out[s].resize(got[s].size() / sizeof(T));
      BufferReader r(got[s]);
      r.get_into(std::span<T>(out[s]));
    }
    return out;
  }

 private:
  /// Block allgather: every rank contributes one block and receives all n,
  /// indexed by rank, in ceil(log2 n) point-to-point rounds over the
  /// mailboxes — recursive doubling for power-of-two rank counts,
  /// dissemination otherwise.  Accounting is payload-only: both ship
  /// exactly n-1 blocks per rank.  The relay legs model MPI's reliable
  /// transport underneath collectives: they bypass fault injection
  /// (fault.hpp's scope note).
  std::vector<Bytes> gather_blocks(Bytes mine, Op op);

  /// The one body of alltoallv and alltoallv_mailbox.
  std::vector<Bytes> exchange(std::vector<Bytes> send, bool faultable);

  /// The one blocking receive.  A `relay` leg (a collective's) touches no
  /// p2p counter, and its caller takes `coming` matches back to back: a
  /// parked wait sleeps until the last of them could have arrived.
  Bytes receive(int src, int tag, int* out_src, int* out_tag, bool relay,
                std::size_t coming);
  Bytes relay_recv(int src, int tag, int* out_src = nullptr, std::size_t coming = 1) {
    return receive(src, tag, out_src, nullptr, /*relay=*/true, coming);
  }

  /// Tag of the next alltoallv, alltoallv_mailbox, bcast or gatherv.
  int next_mailbox_tag() {
    return kMailboxTagBase + static_cast<int>(mailbox_seq_++ % kMailboxTagWindow);
  }

  /// Direct mailbox enqueue: no fault injection, no stats — the reliable
  /// substrate every collective relays over.
  void reliable_send(int dst, int tag, Bytes payload);

  /// Enqueue an enveloped reliable-transport frame for `dst` under the
  /// installed FaultPlan: may drop, duplicate, corrupt, or hold the frame
  /// back, and releases held frames whose delay ran out.  All copies of
  /// one frame are published under a single mailbox lock, so a duplicate
  /// is never observable without its original already queued ahead of it.
  /// First sends and retransmits both ride this path — every retransmit
  /// rolls its own fault.
  void faulted_enqueue(int dst, int tag, Bytes payload);

  /// The reliable-transport pump: strip or consume enveloped frames in
  /// this rank's mailbox (in place — FIFO positions are preserved),
  /// absorb control frames, fire retransmit timers, ship the channel's
  /// outbox, and escalate a retry-budget exhaustion to the typed abort.
  /// Called from every blocking wait's slices, iprobe, isend, and epoch
  /// boundaries; no-op without an engaged channel.
  void service_reliable();

  // Tag space of alltoallv, bcast and gatherv, disjoint from the Bruck
  // relay (0x42......) and the async engine's tags.  Rotated per call in
  // SPMD order: a fast rank's next collective may land in a peer's mailbox
  // while that peer still drains the current one, and must not match it.
  static constexpr int kMailboxTagBase = 0x41A20000;
  static constexpr std::uint64_t kMailboxTagWindow = 4096;

  // Bruck relay tags rotate with a per-call sequence so a duplicated or
  // delayed relay frame from one call can never match a later call's
  // receive (the old fixed 0x42000000+k scheme relied on perfect
  // delivery).  Each call claims kBruckRoundsPerCall consecutive tags.
  static constexpr int kBruckTagBase = 0x42000000;
  static constexpr std::uint64_t kBruckTagWindow = 1024;
  static constexpr int kBruckRoundsPerCall = 64;  // log2(nranks) bound

  // Block-allgather relay tags (recursive doubling / dissemination
  // rounds), disjoint from the personalised collectives (0x41A2....),
  // Bruck (0x42......), async (0x51A5..../0x53AF....), and hierarchical
  // router (0x48A.....) spaces.  Rotated per call like the Bruck tags.
  static constexpr int kSchedTagBase = 0x44000000;
  static constexpr std::uint64_t kSchedTagWindow = 2048;
  static constexpr int kSchedRoundsPerCall = 64;  // log2(nranks) bound

  /// Per-destination fault state: the edge's send sequence number and the
  /// messages an injected delay is holding back.
  struct Held {
    int tag;
    Bytes payload;
    std::uint64_t release_at;  // edge seq at/after which the message ships
  };
  struct EdgeState {
    std::uint64_t seq = 0;
    std::deque<Held> held;
  };

  World* world_;
  int rank_;
  bool stats_enabled_ = true;
  std::uint64_t mailbox_seq_ = 0;
  std::uint64_t bruck_seq_ = 0;
  std::uint64_t sched_seq_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<EdgeState> edges_;  // sized lazily when a plan faults messages
  std::unique_ptr<ReliableChannel> channel_;  // engaged when the plan faults messages
};

/// RAII guard suspending byte accounting on a Comm.
class StatsPause {
 public:
  explicit StatsPause(Comm& comm) : comm_(&comm), prev_(comm.set_stats_enabled(false)) {}
  ~StatsPause() { comm_->set_stats_enabled(prev_); }
  StatsPause(const StatsPause&) = delete;
  StatsPause& operator=(const StatsPause&) = delete;

 private:
  Comm* comm_;
  bool prev_;
};

}  // namespace paralagg::vmpi
