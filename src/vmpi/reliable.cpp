#include "vmpi/reliable.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "vmpi/crc32.hpp"

namespace paralagg::vmpi {

namespace {

// "PARARELI" / "PARACTRL": distinct, so a data envelope can never parse as
// a control frame (and vice versa).
constexpr std::uint64_t kEnvelopeMagic = 0x50'41'52'41'52'45'4C'49ULL;
constexpr std::uint64_t kCtrlMagic = 0x50'41'52'41'43'54'52'4CULL;
constexpr std::size_t kEnvelopeWords = 4;
constexpr std::size_t kEnvelopeBytes = kEnvelopeWords * sizeof(std::uint64_t);
constexpr std::size_t kCtrlHeadWords = 3;  // [magic | kind | cum]

// CRC over (seq, piggybacked cum, payload length, payload bytes): a flipped
// byte anywhere in the frame — header included — fails it.  Covering the cum
// word matters: an unprotected corrupt cum would be *believed* and falsely
// trim the sender's retransmit ring, losing the ability to heal later drops.
std::uint32_t frame_crc(std::uint64_t seq, std::uint64_t cum,
                        std::span<const std::byte> payload) {
  std::uint64_t head[3] = {seq, cum, payload.size()};
  std::uint32_t state = crc32_update(
      kCrc32Init, std::span<const std::byte>(reinterpret_cast<const std::byte*>(head),
                                             sizeof head));
  state = crc32_update(state, payload);
  return state ^ kCrc32Init;
}

std::uint64_t read_word(const Bytes& b, std::size_t i) {
  std::uint64_t w = 0;
  std::memcpy(&w, b.data() + i * sizeof(std::uint64_t), sizeof w);
  return w;
}

}  // namespace

ReliableChannel::ReliableChannel(int rank, int nranks, const RetryPolicy& policy,
                                 CommStats* stats)
    : rank_(rank), policy_(policy), stats_(stats) {
  tx_.resize(static_cast<std::size_t>(nranks));
  rx_.resize(static_cast<std::size_t>(nranks));
  // Grow-only: a channel is recreated after Comm::fault_reset, and the
  // accumulated per-edge heal counters must survive that.
  const auto n = static_cast<std::size_t>(nranks);
  if (stats_->edge_retransmits.size() < n) stats_->edge_retransmits.resize(n, 0);
  if (stats_->edge_nacks.size() < n) stats_->edge_nacks.resize(n, 0);
  if (stats_->edge_heal_seconds.size() < n) stats_->edge_heal_seconds.resize(n, 0);
}

Bytes ReliableChannel::envelope(int dst, std::uint64_t seq,
                                std::span<const std::byte> payload) {
  Bytes wire(kEnvelopeBytes + payload.size());
  auto& rx = rx_[static_cast<std::size_t>(dst)];
  const std::uint64_t words[kEnvelopeWords] = {
      kEnvelopeMagic, seq, rx.cum,
      static_cast<std::uint64_t>(frame_crc(seq, rx.cum, payload))};
  std::memcpy(wire.data(), words, kEnvelopeBytes);
  if (!payload.empty()) {
    std::memcpy(wire.data() + kEnvelopeBytes, payload.data(), payload.size());
  }
  // The data frame carries our cumulative ack for dst; an explicit ACK
  // would be redundant (and if this frame is lost, the dup-triggered
  // re-ack path converges).
  rx.ack_pending = false;
  return wire;
}

Bytes ReliableChannel::send_data(int dst, int tag, std::span<const std::byte> payload,
                                 double now) {
  auto& edge = tx_[static_cast<std::size_t>(dst)];
  const std::uint64_t seq = edge.next_seq++;
  TxFrame frame;
  frame.seq = seq;
  frame.tag = tag;
  frame.payload.assign(payload.begin(), payload.end());
  frame.first_sent = now;
  frame.next_retry = now + policy_.base_backoff;
  frame.horizon = edge.next_seq;
  Bytes wire = envelope(dst, seq, frame.payload);
  edge.ring.push_back(std::move(frame));
  ++in_flight_;
  return wire;
}

std::optional<Bytes> ReliableChannel::on_data(int src, const Bytes& frame, double now) {
  auto& rx = rx_[static_cast<std::size_t>(src)];
  const bool well_formed =
      frame.size() >= kEnvelopeBytes && read_word(frame, 0) == kEnvelopeMagic;
  std::uint64_t seq = 0;
  bool valid = false;
  if (well_formed) {
    seq = read_word(frame, 1);
    const std::span<const std::byte> payload(frame.data() + kEnvelopeBytes,
                                             frame.size() - kEnvelopeBytes);
    valid = static_cast<std::uint32_t>(read_word(frame, 3)) ==
            frame_crc(seq, read_word(frame, 2), payload);
  }
  if (!valid) {
    // Corrupt on the wire (a flipped byte anywhere in the frame).  The
    // header may be unreadable, so the NACK names no seq: it carries our
    // watermark and SACK set, from which the sender picks the likeliest
    // victim.
    send_ctrl(src, CtrlKind::kCorruptNack);
    return std::nullopt;
  }

  // Intact frame: absorb the piggybacked ack first (even a duplicate
  // carries fresh reverse-channel information).
  absorb_ack(src, read_word(frame, 2), now);

  if (seq <= rx.cum ||
      std::binary_search(rx.ahead.begin(), rx.ahead.end(), seq)) {
    // Duplicate: an injected dup, or a retransmit racing the (delayed)
    // original.  The sender clearly hasn't seen our ack — refresh it.
    stats_->reliable_dups_discarded += 1;
    stats_->dup_frames_discarded += 1;
    rx.ack_pending = true;
    return std::nullopt;
  }

  if (seq == rx.cum + 1) {
    ++rx.cum;
    // Absorb any out-of-order deliveries the new watermark now reaches.
    auto it = rx.ahead.begin();
    while (it != rx.ahead.end() && *it == rx.cum + 1) {
      ++rx.cum;
      ++it;
    }
    rx.ahead.erase(rx.ahead.begin(), it);
  } else {
    rx.ahead.insert(std::lower_bound(rx.ahead.begin(), rx.ahead.end(), seq), seq);
    rx.ahead_grew = true;
  }
  rx.ack_pending = true;
  progressed_ = true;
  return Bytes(frame.begin() + static_cast<std::ptrdiff_t>(kEnvelopeBytes), frame.end());
}

void ReliableChannel::on_ctrl(int src, const Bytes& frame, double now) {
  const std::size_t words = frame.size() / sizeof(std::uint64_t);
  if (frame.size() % sizeof(std::uint64_t) != 0 || words < kCtrlHeadWords ||
      read_word(frame, 0) != kCtrlMagic) {
    return;  // control rides the unfaulted path; a mismatch is a stray frame
  }
  const auto kind = static_cast<CtrlKind>(read_word(frame, 1));
  absorb_ack(src, read_word(frame, 2), now);
  if (kind == CtrlKind::kAck) return;

  std::vector<std::uint64_t> sack(words - kCtrlHeadWords);  // ascending
  for (std::size_t i = 0; i < sack.size(); ++i) sack[i] = read_word(frame, kCtrlHeadWords + i);
  const std::uint64_t highest = sack.empty() ? 0 : sack.back();
  auto& edge = tx_[static_cast<std::size_t>(src)];

  // A corrupt frame's header names no seq, but arrivals follow send order,
  // so the likeliest victim is the first unacked frame above the highest
  // SACKed seq — the ring front when nothing is SACKed, and also when no
  // frame lies above the SACKs (the corrupt copy was then a resend).
  std::uint64_t suspect = 0;
  if (kind == CtrlKind::kCorruptNack && !edge.ring.empty()) {
    const auto above = std::find_if(edge.ring.begin(), edge.ring.end(),
                                    [&](const TxFrame& f) { return f.seq > highest; });
    suspect = (above != edge.ring.end() ? *above : edge.ring.front()).seq;
  }
  for (auto& f : edge.ring) {
    if (f.seq > highest && f.seq > suspect) break;
    // RFC 6675 IsLost: kDupThresh SACKed frames first sent after this
    // frame's latest copy.  A resend moves the horizon past every seq sent
    // so far, so stale or repeated evidence never resends a frame twice.
    const bool lost =
        !std::binary_search(sack.begin(), sack.end(), f.seq) &&
        static_cast<std::size_t>(sack.end() - std::lower_bound(sack.begin(), sack.end(),
                                                                f.horizon)) >= kDupThresh;
    if (lost) {
      retransmit(edge, f, src, now, &CommStats::retransmits_gap);
    } else if (f.seq == suspect) {
      retransmit(edge, f, src, now, &CommStats::retransmits_corrupt);
    }
    if (failure_) return;
  }
}

void ReliableChannel::absorb_ack(int src, std::uint64_t cum, double now) {
  auto& edge = tx_[static_cast<std::size_t>(src)];
  if (cum <= edge.acked_cum) return;
  edge.acked_cum = cum;
  while (!edge.ring.empty() && edge.ring.front().seq <= cum) {
    const TxFrame& f = edge.ring.front();
    if (f.attempts > 0) {
      // This frame needed healing; charge the time it spent unacked.
      const double healed = now - f.first_sent;
      stats_->heal_seconds += healed;
      stats_->edge_heal_seconds[static_cast<std::size_t>(src)] += healed;
      stats_->frames_healed += 1;
    }
    edge.ring.pop_front();
    --in_flight_;
  }
  progressed_ = true;
}

void ReliableChannel::retransmit(TxEdge& edge, TxFrame& f, int dst, double now,
                                 std::uint64_t CommStats::*trigger) {
  if (failure_) return;
  if (f.attempts >= policy_.max_attempts || now - f.first_sent > policy_.deadline) {
    failure_ = Failure{dst, f.seq, f.attempts, now - f.first_sent};
    return;
  }
  ++f.attempts;
  // Deterministic exponential backoff: attempt k waits base * 2^k.
  f.next_retry = now + policy_.base_backoff * static_cast<double>(1ULL << f.attempts);
  f.horizon = edge.next_seq;
  stats_->retransmits += 1;
  stats_->*trigger += 1;
  stats_->edge_retransmits[static_cast<std::size_t>(dst)] += 1;
  outbox_.push_back(WireAction{false, dst, f.tag, envelope(dst, f.seq, f.payload)});
}

void ReliableChannel::send_ctrl(int dst, CtrlKind kind) {
  auto& rx = rx_[static_cast<std::size_t>(dst)];
  const std::span<const std::uint64_t> sack =
      kind == CtrlKind::kAck ? std::span<const std::uint64_t>() : rx.ahead;
  BufferWriter w((kCtrlHeadWords + sack.size()) * sizeof(std::uint64_t));
  w.put<std::uint64_t>(kCtrlMagic);
  w.put<std::uint64_t>(static_cast<std::uint64_t>(kind));
  w.put<std::uint64_t>(rx.cum);
  w.put_span(sack);
  outbox_.push_back(WireAction{true, dst, 0, w.take()});
  rx.ack_pending = false;
  if (kind == CtrlKind::kAck) {
    stats_->acks_sent += 1;
  } else {
    stats_->nacks_sent += 1;
    stats_->edge_nacks[static_cast<std::size_t>(dst)] += 1;
    rx.ahead_grew = false;
  }
}

void ReliableChannel::poll(double now) {
  for (std::size_t d = 0; d < tx_.size(); ++d) {
    auto& edge = tx_[d];
    // The timer covers what no NACK can: a lost frame with too few later
    // frames behind it for the receiver to see a gap — above all the tail.
    // It watches only the ring front, the frame gating the receiver's
    // watermark; later frames become the front in turn, and resending one
    // frame per edge per round keeps the healing traffic (and the fault
    // rolls it consumes) bounded.  At max_attempts = 0 no timer fires: a
    // frame that is merely late must not abort the run.
    if (policy_.max_attempts > 0 && !edge.ring.empty() &&
        edge.ring.front().next_retry <= now) {
      retransmit(edge, edge.ring.front(), static_cast<int>(d), now,
                 &CommStats::retransmits_timer);
    }
    if (failure_) return;
  }
  for (std::size_t s = 0; s < rx_.size(); ++s) {
    const auto& rx = rx_[s];
    if (policy_.max_attempts > 0 && rx.ahead_grew && rx.ahead.size() >= kDupThresh) {
      send_ctrl(static_cast<int>(s), CtrlKind::kGapNack);
    } else if (rx.ack_pending) {
      send_ctrl(static_cast<int>(s), CtrlKind::kAck);
    }
  }
}

std::vector<ReliableChannel::WireAction> ReliableChannel::take_outbox() {
  std::vector<WireAction> out;
  out.swap(outbox_);
  return out;
}

std::string ReliableChannel::heal_summary(const CommStats& stats) {
  std::string s = "healing attempted: " + std::to_string(stats.retransmits) +
                  " retransmits (" + std::to_string(stats.retransmits_gap) + " gap, " +
                  std::to_string(stats.retransmits_corrupt) + " corrupt, " +
                  std::to_string(stats.retransmits_timer) + " timer), " +
                  std::to_string(stats.nacks_sent) + " nacks, " +
                  std::to_string(stats.reliable_dups_discarded) + " dups discarded, " +
                  std::to_string(stats.heal_seconds) + "s first-send-to-ack on healed frames";
  std::uint64_t worst = 0;
  std::size_t worst_edge = 0;
  for (std::size_t d = 0; d < stats.edge_retransmits.size(); ++d) {
    if (stats.edge_retransmits[d] > worst) {
      worst = stats.edge_retransmits[d];
      worst_edge = d;
    }
  }
  if (worst > 0) {
    s += "; worst edge ->" + std::to_string(worst_edge) + " (" + std::to_string(worst) +
         " retransmits)";
  }
  return s;
}

}  // namespace paralagg::vmpi
