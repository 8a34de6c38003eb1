#include "vmpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace paralagg::vmpi {

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Push under the box lock, maintaining the undelivered count.  Returns
/// whether the owner must be woken: a deliverable message its parked wait
/// expects (Mailbox::quiet) lands silently.
bool enqueue_locked(detail::Mailbox& box, detail::Message m) {
  const bool deliverable = detail::deliverable(m);
  if (!deliverable) ++box.undelivered;
  box.q.push_back(std::move(m));
  if (deliverable && box.quiet > 0) {
    --box.quiet;
    return false;
  }
  return true;
}

}  // namespace

World::World(int nranks)
    : nranks_(nranks),
      barrier_(nranks),
      mailboxes_(static_cast<std::size_t>(nranks)),
      stats_(static_cast<std::size_t>(nranks)) {
  assert(nranks >= 1);
}

void World::abort() {
  barrier_.abort();
  for (auto& box : mailboxes_) {
    std::lock_guard lock(box.m);
    box.aborted = true;
    box.cv.notify_all();
  }
}

void World::fault_abort() {
  barrier_.fault_abort();
  for (auto& box : mailboxes_) {
    std::lock_guard lock(box.m);
    box.faulted = true;
    box.cv.notify_all();
  }
}

CommStats World::total_stats() const {
  CommStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

bool World::fault_reset(double timeout_seconds) {
  std::unique_lock lock(reset_mu_);
  const auto my_gen = reset_gen_;
  if (++reset_arrived_ == nranks_) {
    // Last arrival scrubs the shared state while every peer is parked in
    // this rendezvous — no rank is mid-send or mid-collective.
    barrier_.reset_fault();
    for (auto& box : mailboxes_) {
      std::lock_guard box_lock(box.m);
      box.faulted = false;
      box.q.clear();
      box.undelivered = 0;
    }
    reset_arrived_ = 0;
    ++reset_gen_;
    reset_cv_.notify_all();
    return true;
  }
  const auto pred = [&] { return reset_gen_ != my_gen; };
  if (timeout_seconds > 0) {
    if (!reset_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                            pred)) {
      if (reset_gen_ == my_gen && reset_arrived_ > 0) --reset_arrived_;
      return false;
    }
  } else {
    reset_cv_.wait(lock, pred);
  }
  return true;
}

void Comm::barrier() {
  if (stats_enabled_) stats().record_call(Op::kBarrier);
  flush_delayed();
  const double deadline = world_->watchdog_seconds_;
  const double t0 = wall_now();
  const auto charge_wait = [&] {
    if (stats_enabled_) stats().wait_seconds += wall_now() - t0;
  };
  try {
    std::function<bool()> service;
    if (channel_) {
      service = [this] {
        flush_delayed();
        service_reliable();
        return channel_->take_progress();
      };
    }
    world_->barrier_.arrive_and_wait(deadline, service);
  } catch (const detail::WaitTimeout&) {
    charge_wait();
    // Our deadline fired first: poison the world so peers blocked on us
    // unwind with their own TimeoutError instead of hanging.
    world_->fault_abort();
    throw TimeoutError("barrier", deadline, stats());
  } catch (const detail::FaultWake&) {
    charge_wait();
    throw TimeoutError("barrier (released by peer fault)", deadline, stats());
  } catch (...) {
    charge_wait();
    throw;
  }
  charge_wait();
}

void Comm::advance_epoch() {
  flush_delayed();
  service_reliable();
  const std::uint64_t e = epoch_++;
  const FaultPlan& plan = world_->plan_;
  if (plan.kill_rank == rank_ && plan.kill_epoch == e) {
    throw FaultInjectedDeath(rank_, e);
  }
  if (plan.stall_rank == rank_ && plan.stall_epoch == e && plan.stall_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(plan.stall_seconds));
  }
}

void Comm::flush_delayed() {
  if (edges_.empty()) return;
  for (std::size_t d = 0; d < edges_.size(); ++d) {
    auto& edge = edges_[d];
    if (edge.held.empty()) continue;
    auto& box = world_->mailboxes_[d];
    {
      std::lock_guard lock(box.m);
      for (auto& h : edge.held) {
        enqueue_locked(box, detail::Message{rank_, h.tag, std::move(h.payload), true});
      }
    }
    edge.held.clear();
    box.cv.notify_all();
  }
}

void Comm::faulted_enqueue(int dst, int tag, Bytes payload) {
  if (edges_.empty()) edges_.resize(static_cast<std::size_t>(size()));
  auto& edge = edges_[static_cast<std::size_t>(dst)];
  const std::uint64_t seq = edge.seq++;
  const FaultDecision decision = fault_decide(world_->plan_, rank_, dst, seq);

  // Copies of this message to publish now (0 for drop/delay, 2 for dup),
  // followed by any held messages whose delay ran out — publishing the
  // batch under one lock keeps the schedule a pure function of the seed
  // (a receiver can never observe a duplicate before its original, nor a
  // release without the send that triggered it).
  int copies = 1;
  switch (decision.action) {
    case FaultAction::kDeliver:
      break;
    case FaultAction::kDrop:
      stats().faults_dropped += 1;
      copies = 0;
      break;
    case FaultAction::kDuplicate:
      stats().faults_duplicated += 1;
      copies = 2;
      break;
    case FaultAction::kDelay:
      stats().faults_delayed += 1;
      edge.held.push_back(Held{tag, std::move(payload), seq + decision.delay_msgs});
      copies = 0;
      break;
    case FaultAction::kCorrupt:
      stats().faults_corrupted += 1;
      if (!payload.empty()) {
        payload[static_cast<std::size_t>(decision.corrupt_index % payload.size())] ^=
            std::byte{0x5A};
      }
      break;
  }

  auto& box = world_->mailboxes_[static_cast<std::size_t>(dst)];
  bool published = false;
  {
    std::lock_guard lock(box.m);
    for (int c = 0; c < copies; ++c) {
      enqueue_locked(box, detail::Message{rank_, tag, payload, true});
      published = true;
    }
    // Release held messages that have now been passed by enough newer
    // sends on this edge (this is what makes the delay a bounded reorder).
    while (!edge.held.empty() && edge.held.front().release_at <= seq) {
      enqueue_locked(box, detail::Message{rank_, edge.held.front().tag,
                                          std::move(edge.held.front().payload), true});
      edge.held.pop_front();
      published = true;
    }
  }
  if (published) box.cv.notify_all();
}

void Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  assert(dst >= 0 && dst < size());
  if (stats_enabled_) {
    auto& st = stats();
    st.record_call(Op::kP2P);
    const bool remote = dst != rank_;
    st.record_send(Op::kP2P, data.size(), remote,
                   remote && !world_->topo_.same_node(rank_, dst));
    st.messages_sent += 1;
  }

  // Self-sends are exempt from injection: a process does not lose messages
  // to itself, and the loopback staging paths rely on that.  Every other
  // send under a message-faulting plan rides the reliable channel.
  if (dst != rank_ && channel_) {
    faulted_enqueue(dst, tag, channel_->send_data(dst, tag, data, wall_now()));
    // A send is also a progress opportunity: pump timers and inbound acks
    // so a compute-and-send phase between blocking waits cannot let this
    // rank's retransmit obligations go stale.
    service_reliable();
    return;
  }

  reliable_send(dst, tag, Bytes(data.begin(), data.end()));
}

namespace {

bool matches(const detail::Message& m, int src, int tag) {
  return detail::deliverable(m) && (src == kAnySource || m.src == src) &&
         (tag == kAnyTag || m.tag == tag);
}

}  // namespace

void Comm::service_reliable() {
  if (!channel_) return;
  const double now = wall_now();
  auto& box = world_->mailboxes_[static_cast<std::size_t>(rank_)];
  {
    std::lock_guard lock(box.m);
    if (box.undelivered > 0) {
      for (auto it = box.q.begin(); it != box.q.end();) {
        if (it->tag == kReliableCtrlTag) {
          channel_->on_ctrl(it->src, it->payload, now);
          it = box.q.erase(it);
          --box.undelivered;
        } else if (it->enveloped) {
          auto payload = channel_->on_data(it->src, it->payload, now);
          --box.undelivered;
          if (payload) {
            // Strip in place: the message keeps its arrival position, so
            // FIFO matching is unchanged by the envelope detour.
            it->payload = std::move(*payload);
            it->enveloped = false;
            ++it;
          } else {
            it = box.q.erase(it);  // duplicate or corrupt: consumed
          }
        } else {
          ++it;
        }
      }
    }
  }
  channel_->poll(now);
  // Ship with our own mailbox lock released: these acquire peer box locks
  // (never two at once — no ordering hazard).
  for (auto& a : channel_->take_outbox()) {
    if (a.ctrl) {
      reliable_send(a.dst, kReliableCtrlTag, std::move(a.bytes));
    } else {
      faulted_enqueue(a.dst, a.tag, std::move(a.bytes));
    }
  }
  if (channel_->failure()) {
    const auto f = *channel_->failure();
    world_->fault_abort();
    throw TimeoutError("reliable delivery to rank " + std::to_string(f.dst) +
                           " (seq " + std::to_string(f.seq) + ", " +
                           std::to_string(f.attempts) + " retransmits over " +
                           std::to_string(f.waited_seconds) + "s)",
                       world_->retry_.deadline, stats());
  }
}

bool Comm::fault_reset(double timeout_seconds) {
  for (auto& e : edges_) e.held.clear();
  if (channel_) {
    // Fresh transport state: the old rings reference a purged world.  The
    // CommStats heal counters survive (the channel only appends).
    channel_ = std::make_unique<ReliableChannel>(rank_, size(), world_->retry_,
                                                 &stats());
  }
  // Ranks unwind from an abort at different phases, so the per-rank tag
  // stream counters have diverged; the first post-reset collective would
  // pair mismatched relay tags and hang.  Re-zero them — the rendezvous
  // below guarantees every rank does this before any new traffic.  The
  // epoch counter is deliberately NOT reset: one-shot epoch faults
  // (kill/stall) must not re-fire on the replayed work.
  mailbox_seq_ = 0;
  bruck_seq_ = 0;
  sched_seq_ = 0;
  return world_->fault_reset(timeout_seconds);
}

Bytes Comm::receive(int src, int tag, int* out_src, int* out_tag, bool relay,
                    std::size_t coming) {
  // About to block: anything our own injected delays still hold must go
  // out first, or two ranks could deadlock on each other's held messages.
  flush_delayed();
  using Clock = std::chrono::steady_clock;
  auto& box = world_->mailboxes_[static_cast<std::size_t>(rank_)];
  const double deadline = world_->watchdog_seconds_;
  const auto budget =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(deadline));
  const double t0 = wall_now();
  auto armed = Clock::now();
  const auto charge_wait = [&] {
    if (stats_enabled_) stats().wait_seconds += wall_now() - t0;
  };
  const auto match = [&](const detail::Message& m) { return matches(m, src, tag); };
  for (;;) {
    if (channel_) {
      service_reliable();  // may escalate to TimeoutError on budget exhaustion
      if (channel_->take_progress()) armed = Clock::now();
    }
    std::unique_lock lock(box.m);
    auto it = std::find_if(box.q.begin(), box.q.end(), match);
    if (it != box.q.end()) {
      detail::Message m = std::move(*it);
      box.q.erase(it);
      if (out_src != nullptr) *out_src = m.src;
      if (out_tag != nullptr) *out_tag = m.tag;
      if (stats_enabled_ && !relay) {
        stats().messages_received += 1;
        stats().p2p_bytes_received += m.payload.size();
      }
      charge_wait();
      return std::move(m.payload);
    }
    if (box.aborted) throw WorldAborted{};
    if (box.faulted) {
      lock.unlock();
      charge_wait();
      throw TimeoutError("recv (released by peer fault)", deadline, stats());
    }
    if (deadline > 0 && Clock::now() - armed >= budget) {
      lock.unlock();
      charge_wait();
      world_->fault_abort();
      throw TimeoutError("recv", deadline, stats());
    }
    // An undelivered frame (enveloped data, a control frame) wakes a
    // serviced wait early; without a channel there are none.
    const auto pred = [&] {
      return box.aborted || box.faulted || box.undelivered > 0 ||
             std::any_of(box.q.begin(), box.q.end(), match);
    };
    box.quiet = coming - 1;
    if (channel_) {
      box.cv.wait_for(lock, detail::kServiceSlice, pred);
    } else if (deadline > 0) {
      box.cv.wait_until(lock, armed + budget, pred);
    } else {
      box.cv.wait(lock, pred);
    }
    box.quiet = 0;
  }
}

bool Comm::iprobe(int src, int tag) {
  // Service first so a frame sitting in the queue enveloped (or a pending
  // ack/nack) is processed before the probe answers — otherwise a drain
  // loop over iprobe would spin on an undeliverable message forever.
  service_reliable();
  auto& box = world_->mailboxes_[static_cast<std::size_t>(rank_)];
  std::lock_guard lock(box.m);
  return std::any_of(box.q.begin(), box.q.end(),
                     [&](const detail::Message& m) { return matches(m, src, tag); });
}

std::vector<Bytes> Comm::allgatherv(std::span<const std::byte> mine) {
  return gather_blocks(Bytes(mine.begin(), mine.end()), Op::kAllgather);
}

void Comm::reliable_send(int dst, int tag, Bytes payload) {
  auto& box = world_->mailboxes_[static_cast<std::size_t>(dst)];
  bool wake = false;
  {
    std::lock_guard lock(box.m);
    wake = enqueue_locked(box, detail::Message{rank_, tag, std::move(payload)});
  }
  if (wake) box.cv.notify_all();
}

std::vector<Bytes> Comm::gather_blocks(Bytes mine, Op op) {
  const int n = size();
  if (n == 1) {
    if (stats_enabled_) {
      auto& st = stats();
      st.record_call(op);
      st.record_send(op, mine.size(), false, false);
    }
    std::vector<Bytes> out;
    out.push_back(std::move(mine));
    return out;
  }
  const bool pow2 = (n & (n - 1)) == 0;

  // Real point-to-point rounds over the mailboxes.  Byte accounting is
  // payload-only (the src/len relay envelope is the simulation's encoding,
  // not modelled traffic): recursive doubling ships 1 + 2 + ... + n/2 =
  // n-1 blocks per rank, and dissemination truncates its last step to
  // n - 2^floor(log2 n) blocks, so both move exactly n-1 blocks per rank.
  // Stats are recorded manually (call, per-partner locality, steps); the
  // relay legs touch no p2p counter, and relay_recv charges the exposed
  // wait.
  const bool record = stats_enabled_;
  const int tag_base =
      kSchedTagBase +
      static_cast<int>(sched_seq_++ % kSchedTagWindow) * kSchedRoundsPerCall;

  std::vector<Bytes> have(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> present(static_cast<std::size_t>(n), 0);
  have[static_cast<std::size_t>(rank_)] = std::move(mine);
  present[static_cast<std::size_t>(rank_)] = 1;

  auto& st = stats();
  if (record) {
    st.record_call(op);
    st.record_send(op, have[static_cast<std::size_t>(rank_)].size(), false, false);
  }

  std::uint64_t rounds = 0;
  // Serialize + ship the listed blocks to `to`; account their payload
  // bytes against the partner's locality.
  const auto send_blocks = [&](int to, const std::vector<int>& srcs) {
    BufferWriter w;
    std::uint64_t payload_bytes = 0;
    for (const int s : srcs) {
      const auto& block = have[static_cast<std::size_t>(s)];
      w.put<std::int32_t>(s);
      w.put<std::uint64_t>(block.size());
      w.put_span(std::span<const std::byte>(block));
      payload_bytes += block.size();
    }
    if (record) {
      st.record_send(op, payload_bytes, true, !world_->topo_.same_node(rank_, to));
    }
    reliable_send(to, tag_base + static_cast<int>(rounds), w.take());
  };

  // Receive one relay frame from `from` and absorb its blocks.
  const auto recv_blocks = [&](int from) {
    const Bytes frame = relay_recv(from, tag_base + static_cast<int>(rounds));
    BufferReader r(frame);
    while (!r.done()) {
      const auto src = r.get<std::int32_t>();
      const auto len = r.get<std::uint64_t>();
      if (src < 0 || src >= n || present[static_cast<std::size_t>(src)] != 0) {
        throw std::logic_error("vmpi: block allgather relayed a bad block");
      }
      auto& block = have[static_cast<std::size_t>(src)];
      block.resize(static_cast<std::size_t>(len));
      r.get_into(std::span<std::byte>(block));
      present[static_cast<std::size_t>(src)] = 1;
    }
  };

  const auto held = [&]() {
    std::vector<int> srcs;
    for (int s = 0; s < n; ++s) {
      if (present[static_cast<std::size_t>(s)] != 0) srcs.push_back(s);
    }
    return srcs;
  };

  if (pow2) {
    for (int k = 0; (1 << k) < n; ++k) {
      const int partner = rank_ ^ (1 << k);
      send_blocks(partner, held());
      recv_blocks(partner);
      ++rounds;
    }
  } else {
    // Dissemination (Bruck) fallback for non-power-of-two rank counts:
    // after k rounds this rank holds blocks {rank..rank+2^k-1} (mod n);
    // round k ships the first min(2^k, n-2^k) of them to rank-2^k, so
    // the truncated last round still totals exactly n-1 blocks.
    for (int pow = 1; pow < n; pow <<= 1) {
      const int to = ((rank_ - pow) % n + n) % n;
      const int from = (rank_ + pow) % n;
      const int cnt = pow < n - pow ? pow : n - pow;
      std::vector<int> srcs;
      srcs.reserve(static_cast<std::size_t>(cnt));
      for (int j = 0; j < cnt; ++j) srcs.push_back((rank_ + j) % n);
      send_blocks(to, srcs);
      recv_blocks(from);
      ++rounds;
    }
  }

  for (int s = 0; s < n; ++s) {
    if (present[static_cast<std::size_t>(s)] == 0) {
      throw std::logic_error("vmpi: block allgather finished incomplete");
    }
  }
  if (record) st.record_steps(op, rounds);
  return have;
}

Bytes Comm::bcast(int root, std::span<const std::byte> data) {
  if (stats_enabled_) {
    auto& st = stats();
    st.record_call(Op::kBcast);
    if (rank_ == root) {
      for (int d = 0; d < size(); ++d) {
        if (d == root) continue;
        st.record_send(Op::kBcast, data.size(), true,
                       !world_->topo_.same_node(root, d));
      }
    }
  }
  const int tag = next_mailbox_tag();
  if (rank_ != root) return relay_recv(root, tag);
  for (int d = 0; d < size(); ++d) {
    if (d != root) reliable_send(d, tag, Bytes(data.begin(), data.end()));
  }
  return Bytes(data.begin(), data.end());
}

std::vector<Bytes> Comm::gatherv(int root, std::span<const std::byte> mine) {
  if (stats_enabled_) {
    auto& st = stats();
    st.record_call(Op::kGather);
    st.record_send(Op::kGather, mine.size(), rank_ != root,
                   rank_ != root && !world_->topo_.same_node(rank_, root));
  }
  const int tag = next_mailbox_tag();
  if (rank_ != root) {
    reliable_send(root, tag, Bytes(mine.begin(), mine.end()));
    return {};
  }
  // Receive per source: a peer may run gathervs ahead of the root, and
  // FIFO matching on (source, tag) keeps each call's frames apart.
  std::vector<Bytes> all(static_cast<std::size_t>(size()));
  for (int s = 0; s < size(); ++s) {
    all[static_cast<std::size_t>(s)] =
        s == root ? Bytes(mine.begin(), mine.end()) : relay_recv(s, tag);
  }
  return all;
}

std::vector<Bytes> Comm::exchange(std::vector<Bytes> send, bool faultable) {
  const auto n = static_cast<std::size_t>(size());
  const auto me = static_cast<std::size_t>(rank_);
  assert(send.size() == n && "alltoallv send vector must have one buffer per rank");
  if (stats_enabled_) {
    auto& st = stats();
    st.record_call(Op::kAlltoallv);
    for (std::size_t d = 0; d < n; ++d) {
      const bool remote = d != me;
      st.record_send(Op::kAlltoallv, send[d].size(), remote,
                     remote && !world_->topo_.same_node(rank_, static_cast<int>(d)));
    }
    st.record_steps(Op::kAlltoallv, 1);
  }

  const int tag = next_mailbox_tag();
  std::vector<Bytes> got(n);
  got[me] = std::move(send[me]);
  // Every remote buffer ships, empty ones included: the receiver counts
  // exactly n-1 arrivals.
  const bool channelled = faultable && channel_ != nullptr;
  for (std::size_t d = 0; d < n; ++d) {
    if (d == me) continue;
    if (channelled) {
      faulted_enqueue(static_cast<int>(d), tag,
                      channel_->send_data(static_cast<int>(d), tag, send[d], wall_now()));
    } else {
      reliable_send(static_cast<int>(d), tag, std::move(send[d]));
    }
  }
  if (channelled) service_reliable();
  std::vector<std::uint8_t> arrived(n, 0);
  for (std::size_t left = n - 1; left > 0; --left) {
    int src = 0;
    Bytes payload = relay_recv(kAnySource, tag, &src, left);
    // The reliable channel delivers each faultable frame exactly once,
    // so a second frame from one source is a protocol violation.
    if (std::exchange(arrived[static_cast<std::size_t>(src)], 1) != 0) {
      throw std::logic_error("vmpi: alltoallv received a second frame from rank " +
                             std::to_string(src));
    }
    got[static_cast<std::size_t>(src)] = std::move(payload);
  }
  return got;
}

std::vector<Bytes> Comm::alltoallv_bruck(std::vector<Bytes> send) {
  const int n = size();
  assert(send.size() == static_cast<std::size_t>(n));
  if (stats_enabled_) {
    stats().record_call(Op::kAlltoallv);
    std::uint64_t rounds = 0;
    for (int k = 0; (1 << k) < n; ++k) ++rounds;
    if (rounds > 0) stats().record_steps(Op::kAlltoallv, rounds);
  }

  // Item pool: (final destination, source, payload).  Self-destined data
  // never leaves the rank.
  struct Item {
    int dst;
    int src;
    Bytes payload;
  };
  std::vector<Item> pool;
  for (int d = 0; d < n; ++d) {
    if (!send[static_cast<std::size_t>(d)].empty()) {
      pool.push_back(Item{d, rank_, std::move(send[static_cast<std::size_t>(d)])});
    }
  }

  // log2-ceil rounds; tags carry the call sequence and the round number so
  // neither interleaved calls nor an injected duplicate/delay surviving
  // into a later Bruck exchange can cross-match.
  const int tag_base =
      kBruckTagBase +
      static_cast<int>(bruck_seq_++ % kBruckTagWindow) * kBruckRoundsPerCall;
  for (int k = 0; (1 << k) < n; ++k) {
    const int hop = 1 << k;
    const int to = (rank_ + hop) % n;
    const int from = (rank_ - hop + n) % n;

    BufferWriter w;
    std::vector<Item> keep;
    for (auto& item : pool) {
      const int offset = (item.dst - rank_ + n) % n;
      if ((offset & hop) != 0) {
        w.put<std::int32_t>(item.dst);
        w.put<std::int32_t>(item.src);
        w.put<std::uint64_t>(item.payload.size());
        w.put_span(std::span<const std::byte>(item.payload));
      } else {
        keep.push_back(std::move(item));
      }
    }
    pool = std::move(keep);

    const auto outgoing = w.take();
    isend(to, tag_base + k, outgoing);
    const auto incoming = recv(from, tag_base + k);
    // Relay frames cross multiple hops, so a corrupted length or rank
    // field must surface as a typed decode error rather than feed the
    // unchecked reader.
    std::size_t pos = 0;
    const auto take = [&](std::size_t want) -> const std::byte* {
      if (incoming.size() - pos < want) {
        throw FrameDecodeError("vmpi: truncated Bruck relay frame");
      }
      const std::byte* p = incoming.data() + pos;
      pos += want;
      return p;
    };
    while (pos < incoming.size()) {
      Item item;
      std::int32_t dst32 = 0;
      std::int32_t src32 = 0;
      std::uint64_t len = 0;
      std::memcpy(&dst32, take(sizeof dst32), sizeof dst32);
      std::memcpy(&src32, take(sizeof src32), sizeof src32);
      std::memcpy(&len, take(sizeof len), sizeof len);
      if (dst32 < 0 || dst32 >= n || src32 < 0 || src32 >= n) {
        throw FrameDecodeError("vmpi: Bruck relay rank out of range");
      }
      if (len > incoming.size() - pos) {
        throw FrameDecodeError("vmpi: Bruck relay payload length overruns frame");
      }
      item.dst = dst32;
      item.src = src32;
      const std::byte* p = take(static_cast<std::size_t>(len));
      item.payload.assign(p, p + len);
      pool.push_back(std::move(item));
    }
  }

  std::vector<Bytes> out(static_cast<std::size_t>(n));
  for (auto& item : pool) {
    if (item.dst != rank_) {
      throw FrameDecodeError("vmpi: Bruck routing delivered a misrouted item");
    }
    auto& buf = out[static_cast<std::size_t>(item.src)];
    buf.insert(buf.end(), item.payload.begin(), item.payload.end());
  }
  // Fence: no rank leaves a call before every rank holds its buffers, so
  // a round starved by a lost relay frame fails the call on every rank.
  barrier();
  return out;
}

}  // namespace paralagg::vmpi
