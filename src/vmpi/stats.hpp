#pragma once

// Per-rank communication statistics for the virtual MPI substrate.
//
// The paper's central claim is about communication *volume*: recursive
// aggregation can be fused with deduplication so that aggregated relations
// add zero bytes of extra traffic.  The real system measures this with
// profilers on Theta; here every byte that crosses a rank boundary is
// counted at the point of transfer, which makes the communication-avoidance
// property directly observable in tests and benchmarks.

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "vmpi/serialize.hpp"

namespace paralagg::vmpi {

/// The communication primitive a byte was moved by.  Used to attribute
/// traffic to phases of the engine (e.g. the join-planning vote is expected
/// to contribute exactly one integer per rank per iteration).
enum class Op : std::uint8_t {
  kP2P = 0,
  kBarrier,
  kAllreduce,
  kAllgather,
  kBcast,
  kGather,
  kAlltoall,
  kAlltoallv,
  kCount,  // sentinel
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

constexpr std::string_view op_name(Op op) {
  switch (op) {
    case Op::kP2P: return "p2p";
    case Op::kBarrier: return "barrier";
    case Op::kAllreduce: return "allreduce";
    case Op::kAllgather: return "allgather";
    case Op::kBcast: return "bcast";
    case Op::kGather: return "gather";
    case Op::kAlltoall: return "alltoall";
    case Op::kAlltoallv: return "alltoallv";
    case Op::kCount: break;
  }
  return "?";
}

/// Counters for one rank.  "Remote" bytes crossed a rank boundary; "local"
/// bytes were logically communicated but stayed on-rank (MPI would also
/// shortcut these through shared memory, but they matter for modelling:
/// a well-placed distribution turns remote bytes into local ones).
struct CommStats {
  std::array<std::uint64_t, kOpCount> bytes_sent{};   // remote only
  std::array<std::uint64_t, kOpCount> bytes_local{};  // self-destined
  /// Subset of bytes_sent whose destination lives on a *different node*
  /// under the World's Topology (vmpi/topology.hpp).  Flat topology makes
  /// this identical to bytes_sent; a grouped topology splits remote
  /// traffic into cheap intra-node and expensive cross-node shares — the
  /// quantity the hierarchical exchange exists to shrink.
  std::array<std::uint64_t, kOpCount> bytes_cross_node{};
  /// Schedule steps (latency-bound rounds) per op: ceil(log2 n) for the
  /// recursive-doubling / dissemination collectives and the Bruck relay,
  /// 1 for a dense alltoallv, 3 for the hierarchical exchange (gather,
  /// leaders, scatter).
  std::array<std::uint64_t, kOpCount> steps{};
  std::array<std::uint64_t, kOpCount> calls{};
  std::uint64_t messages_sent = 0;      // p2p messages enqueued by isend
  std::uint64_t messages_received = 0;  // p2p messages delivered by recv
  std::uint64_t p2p_bytes_received = 0; // payload bytes delivered by recv
  /// Wall seconds this rank spent parked inside blocking primitives
  /// (barriers, collectives' receive legs, recv).  For BSP runs this is
  /// the collective-wait cost skew inflicts; for async runs it is idle
  /// drain time.
  double wait_seconds = 0;
  /// Fault-injection accounting (always recorded, even under StatsPause:
  /// a fault schedule is diagnostic state, not measured traffic).  Sender
  /// side: messages this rank's sends had dropped / duplicated / delayed /
  /// corrupted by the installed FaultPlan.  Receiver side: frames
  /// discarded as duplicates or stale (the reliable channel's sequence
  /// dedup, a stale Safra token, a foreign-tag async frame).
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_corrupted = 0;
  std::uint64_t dup_frames_discarded = 0;
  /// Self-healing transport accounting (vmpi/reliable.hpp; recorded even
  /// under StatsPause, like the fault counters — healing is diagnostic
  /// state, not measured traffic, and retransmitted bytes are deliberately
  /// excluded from the byte counters so volume totals stay
  /// schedule-deterministic).  `retransmits` counts data frames re-sent,
  /// split by trigger: `retransmits_gap` (a gap NACK's SACK evidence
  /// showed the copy lost), `retransmits_corrupt` (a corrupt NACK) and
  /// `retransmits_timer` (the backoff timer, for a lost tail frame).
  /// `nacks_sent` counts NACKs this rank sent, for a corrupt arrival or a
  /// gap; `reliable_dups_discarded` counts frames
  /// the envelope-sequence dedup consumed (these also count into
  /// dup_frames_discarded); `frames_healed` counts frames that needed at least one
  /// retransmit and were eventually acknowledged, with `heal_seconds`
  /// their total first-send-to-ack exposure.  The edge_* vectors (indexed
  /// by peer rank) locate the sick link.
  std::uint64_t retransmits = 0;
  std::uint64_t retransmits_gap = 0;
  std::uint64_t retransmits_corrupt = 0;
  std::uint64_t retransmits_timer = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t reliable_dups_discarded = 0;
  std::uint64_t frames_healed = 0;
  double heal_seconds = 0;
  std::vector<std::uint64_t> edge_retransmits;
  std::vector<std::uint64_t> edge_nacks;
  std::vector<double> edge_heal_seconds;

  void record_send(Op op, std::uint64_t bytes, bool remote) {
    const auto i = static_cast<std::size_t>(op);
    (remote ? bytes_sent : bytes_local)[i] += bytes;
  }
  /// Locality-classified variant: `cross` marks bytes whose destination is
  /// on another node (implies remote).  Comm::account_send derives the
  /// flags from the World's Topology; call sites without a Comm can pass
  /// cross == remote (the flat-fabric classification).
  void record_send(Op op, std::uint64_t bytes, bool remote, bool cross) {
    const auto i = static_cast<std::size_t>(op);
    (remote ? bytes_sent : bytes_local)[i] += bytes;
    if (cross) bytes_cross_node[i] += bytes;
  }
  void record_call(Op op) { calls[static_cast<std::size_t>(op)] += 1; }
  void record_steps(Op op, std::uint64_t n) { steps[static_cast<std::size_t>(op)] += n; }

  [[nodiscard]] std::uint64_t total_remote_bytes() const {
    std::uint64_t total = 0;
    for (auto b : bytes_sent) total += b;
    return total;
  }
  [[nodiscard]] std::uint64_t total_local_bytes() const {
    std::uint64_t total = 0;
    for (auto b : bytes_local) total += b;
    return total;
  }
  [[nodiscard]] std::uint64_t remote_bytes(Op op) const {
    return bytes_sent[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] std::uint64_t cross_node_bytes(Op op) const {
    return bytes_cross_node[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] std::uint64_t total_cross_node_bytes() const {
    std::uint64_t total = 0;
    for (auto b : bytes_cross_node) total += b;
    return total;
  }
  /// Remote bytes that stayed inside the sender's node.
  [[nodiscard]] std::uint64_t intra_node_bytes(Op op) const {
    return remote_bytes(op) - cross_node_bytes(op);
  }
  [[nodiscard]] std::uint64_t steps_of(Op op) const {
    return steps[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] std::uint64_t total_steps() const {
    std::uint64_t total = 0;
    for (auto s : steps) total += s;
    return total;
  }
  [[nodiscard]] std::uint64_t calls_of(Op op) const {
    return calls[static_cast<std::size_t>(op)];
  }
  /// Collective tuple-exchange rounds issued so far.  Both the dense and
  /// the Bruck alltoallv count one round per logical exchange, so this is
  /// the "exchanges per iteration" metric of the fused router: R+1 rounds
  /// per iteration for a fused R-join stratum vs 2R unfused.
  [[nodiscard]] std::uint64_t exchange_rounds() const {
    return calls_of(Op::kAlltoall) + calls_of(Op::kAlltoallv);
  }

  CommStats& operator+=(const CommStats& other) {
    for (std::size_t i = 0; i < kOpCount; ++i) {
      bytes_sent[i] += other.bytes_sent[i];
      bytes_local[i] += other.bytes_local[i];
      bytes_cross_node[i] += other.bytes_cross_node[i];
      steps[i] += other.steps[i];
      calls[i] += other.calls[i];
    }
    messages_sent += other.messages_sent;
    messages_received += other.messages_received;
    p2p_bytes_received += other.p2p_bytes_received;
    wait_seconds += other.wait_seconds;
    faults_dropped += other.faults_dropped;
    faults_duplicated += other.faults_duplicated;
    faults_delayed += other.faults_delayed;
    faults_corrupted += other.faults_corrupted;
    dup_frames_discarded += other.dup_frames_discarded;
    retransmits += other.retransmits;
    retransmits_gap += other.retransmits_gap;
    retransmits_corrupt += other.retransmits_corrupt;
    retransmits_timer += other.retransmits_timer;
    nacks_sent += other.nacks_sent;
    acks_sent += other.acks_sent;
    reliable_dups_discarded += other.reliable_dups_discarded;
    frames_healed += other.frames_healed;
    heal_seconds += other.heal_seconds;
    merge_edges(edge_retransmits, other.edge_retransmits);
    merge_edges(edge_nacks, other.edge_nacks);
    merge_edges(edge_heal_seconds, other.edge_heal_seconds);
    return *this;
  }

  /// Wire round-trip for the stats-gathering collectives: the per-edge
  /// heal vectors make CommStats non-trivially-copyable, so it can no
  /// longer ride the typed allgather.  Fixed fields first, then each edge
  /// vector length-prefixed (lengths may differ after merges).
  [[nodiscard]] Bytes to_bytes() const {
    BufferWriter w;
    w.put_span(std::span<const std::uint64_t>(bytes_sent));
    w.put_span(std::span<const std::uint64_t>(bytes_local));
    w.put_span(std::span<const std::uint64_t>(bytes_cross_node));
    w.put_span(std::span<const std::uint64_t>(steps));
    w.put_span(std::span<const std::uint64_t>(calls));
    w.put(messages_sent);
    w.put(messages_received);
    w.put(p2p_bytes_received);
    w.put(wait_seconds);
    w.put(faults_dropped);
    w.put(faults_duplicated);
    w.put(faults_delayed);
    w.put(faults_corrupted);
    w.put(dup_frames_discarded);
    w.put(retransmits);
    w.put(retransmits_gap);
    w.put(retransmits_corrupt);
    w.put(retransmits_timer);
    w.put(nacks_sent);
    w.put(acks_sent);
    w.put(reliable_dups_discarded);
    w.put(frames_healed);
    w.put(heal_seconds);
    w.put<std::uint64_t>(edge_retransmits.size());
    w.put_span(std::span<const std::uint64_t>(edge_retransmits));
    w.put<std::uint64_t>(edge_nacks.size());
    w.put_span(std::span<const std::uint64_t>(edge_nacks));
    w.put<std::uint64_t>(edge_heal_seconds.size());
    w.put_span(std::span<const double>(edge_heal_seconds));
    return w.take();
  }

  [[nodiscard]] static CommStats from_bytes(const Bytes& b) {
    CommStats s;
    BufferReader r(b);
    r.get_into(std::span<std::uint64_t>(s.bytes_sent));
    r.get_into(std::span<std::uint64_t>(s.bytes_local));
    r.get_into(std::span<std::uint64_t>(s.bytes_cross_node));
    r.get_into(std::span<std::uint64_t>(s.steps));
    r.get_into(std::span<std::uint64_t>(s.calls));
    s.messages_sent = r.get<std::uint64_t>();
    s.messages_received = r.get<std::uint64_t>();
    s.p2p_bytes_received = r.get<std::uint64_t>();
    s.wait_seconds = r.get<double>();
    s.faults_dropped = r.get<std::uint64_t>();
    s.faults_duplicated = r.get<std::uint64_t>();
    s.faults_delayed = r.get<std::uint64_t>();
    s.faults_corrupted = r.get<std::uint64_t>();
    s.dup_frames_discarded = r.get<std::uint64_t>();
    s.retransmits = r.get<std::uint64_t>();
    s.retransmits_gap = r.get<std::uint64_t>();
    s.retransmits_corrupt = r.get<std::uint64_t>();
    s.retransmits_timer = r.get<std::uint64_t>();
    s.nacks_sent = r.get<std::uint64_t>();
    s.acks_sent = r.get<std::uint64_t>();
    s.reliable_dups_discarded = r.get<std::uint64_t>();
    s.frames_healed = r.get<std::uint64_t>();
    s.heal_seconds = r.get<double>();
    s.edge_retransmits.resize(static_cast<std::size_t>(r.get<std::uint64_t>()));
    r.get_into(std::span<std::uint64_t>(s.edge_retransmits));
    s.edge_nacks.resize(static_cast<std::size_t>(r.get<std::uint64_t>()));
    r.get_into(std::span<std::uint64_t>(s.edge_nacks));
    s.edge_heal_seconds.resize(static_cast<std::size_t>(r.get<std::uint64_t>()));
    r.get_into(std::span<double>(s.edge_heal_seconds));
    return s;
  }

 private:
  template <typename T>
  static void merge_edges(std::vector<T>& into, const std::vector<T>& from) {
    if (into.size() < from.size()) into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  }
};

}  // namespace paralagg::vmpi
