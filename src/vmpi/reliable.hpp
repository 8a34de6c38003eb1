#pragma once

// Self-healing transport for the virtual MPI substrate.
//
// The channel is the one transport-integrity layer: whenever the world's
// FaultPlan faults messages, every faultable mailbox frame passes through
// it, so application decoders only ever see intact, once-delivered frames
// and carry no seals, sequence numbers, or dedup sets of their own.  It
// provides per-edge sequence-numbered delivery over the faultable path:
//
//   * every faultable send is wrapped in a 4-word envelope
//     [magic | logical seq | piggybacked cumulative ack | crc], where the
//     CRC covers the sequence number, the piggybacked ack, and the payload
//     — so a corrupted frame (empty ones included) is detected before any
//     application decoder sees a byte of it;
//   * the receiver hands every fresh frame to the application on first
//     arrival; a frame beyond its cumulative watermark also records its
//     seq in the edge's SACK set (the frames received beyond the gap);
//   * the sender keeps each unacknowledged frame in a per-edge retransmit
//     ring, trimmed at the receiver's cumulative-ACK high watermark
//     (piggybacked on reverse data traffic, or carried by explicit ACK
//     control messages when no reverse traffic exists);
//   * losses heal on evidence, as in TCP (RFC 5681's duplicate-ACK
//     threshold, RFC 6675's SACK loss rule).  The receiver NACKs at once
//     when a frame fails its CRC, and at the end of a service pass in
//     which an edge's SACK set holds at least kDupThresh seqs and has
//     grown since that edge's last NACK.  Every NACK carries the cumulative
//     watermark and the whole SACK set.  The sender resends each unacked
//     frame with kDupThresh SACKed frames first sent after its latest copy;
//     a corrupt NACK also resends the first unacked frame above the
//     highest SACKed seq (a corrupt header names no seq, and arrivals
//     follow send order);
//   * deterministic exponential-backoff timers remain only for a lost
//     tail frame: with nothing behind it, the receiver has no evidence to
//     NACK;
//   * duplicates (injected dups, or retransmits racing a delayed
//     original) are discarded by logical sequence number before the
//     application sees them;
//   * when the RetryPolicy budget is exhausted — max_attempts retransmits
//     of one frame, whatever triggered them, or the per-frame deadline —
//     the channel escalates to the fail-stop path: the caller poisons the
//     world (World::fault_abort) and raises a TimeoutError whose message
//     embeds the healing counters, so the outer typed-abort safety net is
//     unchanged.
//
// max_attempts = 0 keeps the sequence, CRC, and dedup checks but heals
// nothing: a corrupt NACK escalates at once, no gap NACK is sent, and no
// retransmit timer ever fires, so a merely delayed frame never aborts.  A
// dropped frame is never resent and starves the blocked receiver into the
// watchdog's typed abort.
//
// A gap is not proof of loss, but a bounded reorder never reaches the
// threshold: FaultPlan releases a delayed frame in the same locked batch
// as the later send that ends its hold, and a service pass drains whole
// batches, so at a pass boundary at most max_delay_msgs - 1 later frames
// can have overtaken it — 2 under the default max_delay_msgs = 3.
//
// Control traffic (ACK/NACK) rides the unfaulted reliable_send path, the
// same modelling choice as the scheduled-collective relay legs: acks model
// the transport-level control traffic under real MPI, and keeping them
// lossless makes healing convergent (no ack-of-ack recursion) and the
// escalation deterministic.  Retransmitted *data* frames, in contrast,
// re-enter the faultable path with a fresh per-edge physical sequence
// number — every retransmit gets an independent fault roll, which is what
// makes "drop every retransmit of one edge" an expressible test plan.
//
// Determinism note: retransmit *timing* is wall-clock driven, so healing
// counters are schedule-deterministic only when the plan makes them so
// (e.g. a directed drop_prob = 1 edge retransmits exactly max_attempts
// times and then escalates).  Fixpoints stay bit-identical regardless:
// the layer delivers every logical frame exactly once or aborts.

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vmpi/serialize.hpp"
#include "vmpi/stats.hpp"

namespace paralagg::vmpi {

/// Retransmit budget for the self-healing transport.  max_attempts = 0 is
/// fail-stop: sequence + CRC + dedup, and abort on the first damaged frame.
struct RetryPolicy {
  /// Retransmits allowed per frame beyond the initial send, whatever
  /// triggered them (gap NACK, corrupt NACK or timer).
  std::uint32_t max_attempts = 5;
  /// Seconds an unacked ring-front frame waits before its timer resends
  /// it; the wait doubles with each retransmit (base_backoff * 2^k after
  /// the k-th).  Only a lost tail frame, with no later frame behind it to
  /// trigger a gap NACK, normally waits this out.
  double base_backoff = 0.05;
  /// Hard ceiling (seconds) on how long one frame may stay unacked before
  /// the channel escalates, even with attempts left.
  double deadline = 8.0;
};

/// Tag of the ACK/NACK control messages; disjoint from every application
/// tag space (alltoallv / bcast / gatherv 0x41A2...., Bruck 0x42......, scheduled
/// collectives 0x44......, hierarchical router 0x48A....., async
/// 0x51A5..../0x53AF....).  Control frames are never visible to recv /
/// iprobe matching.
inline constexpr int kReliableCtrlTag = 0x4AC50000;

/// TCP's duplicate-ACK threshold (RFC 5681) and RFC 6675's DupThresh: a
/// receiver sends a gap NACK once this many frames sit beyond an edge's
/// hole, and a sender counts a copy lost once this many SACKed frames were
/// first sent after it.
inline constexpr std::size_t kDupThresh = 3;

/// Per-rank reliable-delivery state machine.  Owned by Comm (one per rank
/// thread, no internal locking); Comm moves bytes, the channel decides
/// what to (re)send, deliver, discard, or escalate.
class ReliableChannel {
 public:
  /// One wire operation the channel wants performed.  Data frames go back
  /// through the faultable enqueue (fresh fault roll per retransmit);
  /// control frames go through the reliable enqueue under kReliableCtrlTag.
  struct WireAction {
    bool ctrl;
    int dst;
    int tag;  // data frames only: the original application tag
    Bytes bytes;
  };

  /// The frame that exhausted its retry budget (sticky once set).
  struct Failure {
    int dst = -1;
    std::uint64_t seq = 0;
    std::uint32_t attempts = 0;
    double waited_seconds = 0;
  };

  ReliableChannel(int rank, int nranks, const RetryPolicy& policy, CommStats* stats);

  /// Sender path: envelope `payload` for `dst` (logical seq + piggybacked
  /// ack), register it in the retransmit ring, and return the wire bytes.
  [[nodiscard]] Bytes send_data(int dst, int tag, std::span<const std::byte> payload,
                                double now);

  /// Receiver path: process one enveloped data frame from `src`.  Returns
  /// the stripped payload if the frame is fresh (deliver it to the
  /// application), or nullopt if the channel consumed it (duplicate, or
  /// corrupt-and-NACKed).
  std::optional<Bytes> on_data(int src, const Bytes& frame, double now);

  /// Sender path: process one ACK/NACK control frame from `src`.
  void on_ctrl(int src, const Bytes& frame, double now);

  /// End of a service pass: fire due retransmit timers, and queue a gap
  /// NACK for each edge whose SACK set reached kDupThresh and grew since
  /// its last NACK (neither at max_attempts = 0), else any pending ACK.
  void poll(double now);

  /// Drain the wire operations accumulated by on_data / on_ctrl / poll.
  [[nodiscard]] std::vector<WireAction> take_outbox();

  /// Set once a frame exhausts its budget; the caller escalates.
  [[nodiscard]] const std::optional<Failure>& failure() const { return failure_; }

  /// True if any healing progress (a cumulative ack advanced, a fresh
  /// frame was delivered) happened since the last call; consuming resets
  /// the flag.  Blocking waits use this to re-arm their watchdog per
  /// retransmit round instead of once per call.
  [[nodiscard]] bool take_progress() {
    const bool p = progressed_;
    progressed_ = false;
    return p;
  }

  /// Any frames still awaiting acknowledgement?
  [[nodiscard]] bool idle() const { return in_flight_ == 0; }

  /// One-line summary of the healing counters for embedding in escalated
  /// fault messages ("what healing was attempted before this abort").
  static std::string heal_summary(const CommStats& stats);

 private:
  struct TxFrame {
    std::uint64_t seq = 0;
    int tag = 0;
    Bytes payload;            // application payload (re-enveloped per send)
    std::uint32_t attempts = 0;  // retransmits so far (initial send excluded)
    double first_sent = 0;
    double next_retry = 0;
    /// Lowest seq first sent after this frame's latest copy: only SACKs at
    /// or above it are evidence that the latest copy was lost.
    std::uint64_t horizon = 0;
  };
  struct TxEdge {
    std::uint64_t next_seq = 1;   // 0 is never a valid logical seq
    std::uint64_t acked_cum = 0;  // peer's cumulative-ack high watermark
    std::deque<TxFrame> ring;     // unacked frames, ascending seq
  };
  struct RxEdge {
    std::uint64_t cum = 0;              // delivered contiguously through here
    std::vector<std::uint64_t> ahead;   // SACK set: delivered beyond the gap (sorted)
    bool ack_pending = false;
    bool ahead_grew = false;  // ahead gained a seq since this edge's last NACK
  };

  /// Control-frame kinds: [magic | kind | cum], then a NACK's SACK seqs.
  enum class CtrlKind : std::uint64_t { kAck = 0, kCorruptNack = 1, kGapNack = 2 };

  void absorb_ack(int src, std::uint64_t cum, double now);
  /// Resend `f`, or escalate if its budget is spent.  `trigger` is the
  /// CommStats counter naming what asked for it (retransmits_gap / _corrupt
  /// / _timer).
  void retransmit(TxEdge& edge, TxFrame& f, int dst, double now,
                  std::uint64_t CommStats::*trigger);
  /// Queue an ACK or NACK to `dst` carrying our watermark for that edge
  /// (and, for a NACK, its SACK set); either one settles a pending ACK.
  void send_ctrl(int dst, CtrlKind kind);
  Bytes envelope(int dst, std::uint64_t seq, std::span<const std::byte> payload);

  int rank_;
  RetryPolicy policy_;
  CommStats* stats_;
  std::vector<TxEdge> tx_;
  std::vector<RxEdge> rx_;
  std::vector<WireAction> outbox_;
  std::optional<Failure> failure_;
  std::size_t in_flight_ = 0;
  bool progressed_ = false;
};

}  // namespace paralagg::vmpi
