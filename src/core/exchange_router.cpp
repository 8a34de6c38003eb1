#include "core/exchange_router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

#include "core/phase_scope.hpp"
#include "vmpi/row_frame.hpp"

namespace paralagg::core {

std::size_t ExchangeRouter::ShippedRun::filter(FoldRun& run, std::uint64_t& hits) {
  const std::size_t n = run.row_count();
  // Size the index for the worst case, every row new, so no probe below
  // meets a rehash.
  if (2 * (count_ + n) > slots_.size()) {
    std::size_t want = std::max<std::size_t>(64, slots_.size());
    while (2 * (count_ + n) > want) want *= 2;
    rehash(want);
  }
  const std::size_t mask = slots_.size() - 1;
  const value_t* const in = run.values().data();
  // Probes are random, so keep a few in flight: the home slot of row
  // r + kAhead and the stored row of r + kAhead / 2 are prefetched while
  // row r is checked.  drop_if only moves rows below the one it is
  // checking, so the rows ahead are still where `in` has them.
  std::array<std::size_t, kAhead> home{};
  const auto start = [&](std::size_t r) {
    home[r % kAhead] = slot_of(in + r * arity_);
    __builtin_prefetch(&slots_[home[r % kAhead]]);
  };
  for (std::size_t r = 0; r < std::min(n, kAhead); ++r) start(r);
  std::size_t r = 0;
  return run.drop_if([&](std::span<const value_t> row) {
    std::size_t i = home[r % kAhead];
    if (r + kAhead < n) start(r + kAhead);
    if (r + kAhead / 2 < n) {
      if (const std::uint32_t s = slots_[home[(r + kAhead / 2) % kAhead]]; s != 0) {
        __builtin_prefetch(rows_.data() + (s - 1) * arity_);
      }
    }
    ++r;
    const auto key = row.first(key_arity_);
    for (;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        rows_.insert(rows_.end(), row.begin(), row.end());
        slots_[i] = static_cast<std::uint32_t>(++count_);
        return false;
      }
      value_t* const stored = rows_.data() + (slots_[i] - 1) * arity_;
      if (!std::equal(key.begin(), key.end(), stored)) continue;
      ++hits;
      const std::span<value_t> acc(stored + key_arity_, arity_ - key_arity_);
      agg_->partial_agg(acc, row.subspan(key_arity_), joined_);
      if (std::equal(joined_.begin(), joined_.end(), acc.begin())) return true;
      std::copy(joined_.begin(), joined_.end(), acc.begin());
      return false;
    }
  });
}

void ExchangeRouter::ShippedRun::rehash(std::size_t slots) {
  std::vector<std::uint32_t>(slots).swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  const std::size_t mask = slots - 1;
  for (std::size_t r = 0; r < count_; ++r) {
    std::size_t i = slot_of(rows_.data() + r * arity_);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(r + 1);
  }
}

void ExchangeRouter::ShippedRun::release() {
  count_ = 0;
  std::vector<value_t>().swap(rows_);
  std::vector<std::uint32_t>().swap(slots_);
}

ExchangeRouter::ExchangeRouter(vmpi::Comm& comm, bool preaggregate)
    : comm_(&comm), preaggregate_(preaggregate) {}

std::uint32_t ExchangeRouter::add_target(Relation* rel) {
  assert(rel != nullptr);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i] == rel) return static_cast<std::uint32_t>(i);
  }
  targets_.push_back(rel);
  const RecursiveAggregator* agg = rel->config().aggregator.get();
  for (auto* runs : {&outgoing_, &node_runs_}) {
    for (int d = 0; d < comm_->size(); ++d) {
      runs->emplace_back(rel->arity(), rel->indep_arity(), agg, preaggregate_);
    }
  }
  for (int d = 0; d < comm_->size(); ++d) {
    shipped_.emplace_back(rel->arity(), rel->indep_arity(), agg);
  }
  // Dropping a dominated row is exact only where the owner's stored value
  // only ascends and a repeat adds nothing: an idempotent lattice.  SUM
  // and kRefresh re-fold every row; plain targets stay as they are.
  filters_.push_back({.live = preaggregate_ && rel->aggregated() &&
                              rel->config().agg_mode == AggMode::kLattice &&
                              agg->idempotent()});
  return static_cast<std::uint32_t>(targets_.size() - 1);
}

void ExchangeRouter::emit(std::uint32_t route_id, std::span<const value_t> row) {
  assert(route_id < targets_.size());
  Relation* rel = targets_[route_id];
  assert(row.size() == rel->arity());
  // route_rank: a row for a hot join key lands on its H2 spread rank so a
  // heavy hitter's derivations fan across all ranks (DESIGN.md §13).
  const int dst = rel->route_rank(row);
  if (rel->key_is_hot(row)) ++hot_routed_rows_;
  if (dst == comm_->rank()) {
    // Loopback fast path: the row never sees a serialization buffer.
    rel->stage(row);
    ++loopback_rows_;
    return;
  }
  const std::size_t folded = bucket(route_id, static_cast<std::size_t>(dst)).append(row);
  pending_rows_ = pending_rows_ + 1 - folded;
  combined_rows_ += folded;
}

RouterFlushStats ExchangeRouter::take_emit_stats() {
  RouterFlushStats st;
  st.rows_loopback = std::exchange(loopback_rows_, 0);
  st.rows_hot_routed = std::exchange(hot_routed_rows_, 0);
  st.rows_combined = std::exchange(combined_rows_, 0);
  return st;
}

void ExchangeRouter::fold_bucket(std::size_t route_id, std::size_t dest,
                                 RouterFlushStats& st) {
  auto& run = bucket(route_id, dest);
  st.rows_combined += run.fold();
  DominanceFilter& f = filters_[route_id];
  if (!f.live) return;
  ShippedRun& shipped = shipped_[route_id * static_cast<std::size_t>(comm_->size()) + dest];
  const std::size_t dropped = shipped.filter(run, f.hits);
  f.dominated += dropped;
  st.rows_dominated += dropped;
}

void ExchangeRouter::release_low_yield() {
  const auto n = static_cast<std::size_t>(comm_->size());
  for (std::size_t id = 0; id < filters_.size(); ++id) {
    DominanceFilter& f = filters_[id];
    if (!f.live || f.hits < kReleaseMinHits || f.dominated * kReleaseShare >= f.hits) continue;
    // Shipping what the filter would have dropped is what an unfiltered
    // router does, so releasing is exact whenever it happens.
    f.live = false;
    for (std::size_t d = 0; d < n; ++d) shipped_[id * n + d].release();
  }
}

std::vector<vmpi::Bytes> ExchangeRouter::pack(RouterFlushStats& st) {
  const auto n = static_cast<std::size_t>(comm_->size());
#ifndef NDEBUG
  const auto me = static_cast<std::size_t>(comm_->rank());
#endif
  std::vector<vmpi::Bytes> send(n);
  for (std::size_t d = 0; d < n; ++d) {
    vmpi::RowFrameWriter w;
    for (std::size_t id = 0; id < targets_.size(); ++id) {
      auto& run = bucket(id, d);
      if (run.empty()) continue;
      assert(d != me && "self-owned rows take the loopback path");
      fold_bucket(id, d, st);
      if (run.empty()) continue;  // every row was dominated
      w.section(id, arity_of(id), run.values());
      st.rows_sent += run.row_count();
    }
    send[d] = w.take();
  }
  release_low_yield();
  pending_rows_ = 0;
  return send;
}

void ExchangeRouter::recycle(std::vector<FoldRun>& runs) {
  for (auto& run : runs) {
    // Capacity is retained across flushes: a per-flush shrink forced a
    // full reallocation cycle every iteration of every stratum.  Memory
    // goes back only when the bucket is grossly over-provisioned for what
    // it just carried (e.g. the burst of a fixpoint's first iterations).
    if (run.capacity() > kShrinkFloorValues && run.values().size() < run.capacity() / 8) {
      run.release();
    } else {
      run.clear();
    }
  }
}

void ExchangeRouter::stage_frame(std::span<const std::byte> frame, RouterFlushStats& st) {
  vmpi::RowFrameReader r(frame);
  while (!r.done()) {
    rows_scratch_.clear();
    const auto s = r.section(
        targets_.size(), [&](std::uint64_t id) { return arity_of(id); }, rows_scratch_);
    targets_[s.route]->stage_rows(rows_scratch_);
    st.rows_staged += s.count;
  }
}

void ExchangeRouter::decode(const std::vector<vmpi::Bytes>& received, RouterFlushStats& st,
                            RankProfile& profile) {
  PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
  for (const auto& buf : received) stage_frame(buf, st);
  profile.add_work(Phase::kDedupAgg, st.rows_staged);
}

RouterFlushStats ExchangeRouter::flush(RankProfile& profile, ExchangeAlgorithm algo) {
  RouterFlushStats st = take_emit_stats();
  std::vector<vmpi::Bytes> received;
  if (algo == ExchangeAlgorithm::kHierarchical && comm_->topology().node_size > 1) {
    const vmpi::Topology& topo = comm_->topology();
    const std::uint64_t seq = hier_seq_++;
    std::vector<int> leaders;
    {
      PhaseScope scope(*comm_, profile, Phase::kAllToAll);
      {
        // Leader election by load: the member with the most staged delta
        // bytes aggregates, so the node's heaviest buffer never crosses
        // the intra-node wire.  Election metadata, not payload — the
        // allgather runs unaccounted (StatsPause) like the schedule
        // bookkeeping, keeping byte totals election-invariant.
        std::uint64_t my_load = 0;
        for (const auto& run : outgoing_) my_load += run.values().size() * sizeof(value_t);
        vmpi::StatsPause pause(*comm_);
        leaders = topo.elect_leaders(comm_->allgather<std::uint64_t>(my_load));
      }
      st.elected_leader = leaders[static_cast<std::size_t>(topo.node_of(comm_->rank()))];
      auto send = pack_hier(st, leaders, seq);
      profile.add_work(Phase::kAllToAll, st.rows_sent);
      received = comm_->alltoallv_mailbox(std::move(send));
      // Gather and scatter legs on top of the leaders' exchange (which
      // records its own step); recorded on every rank so per-rank step
      // counts stay uniform, as for the scheduled collectives' rounds.
      comm_->account_steps(vmpi::Op::kAlltoallv, 2);
    }
    recycle(outgoing_);
    absorb_hier(received, st, profile, leaders, seq);
    return st;
  }
  {
    PhaseScope scope(*comm_, profile, Phase::kAllToAll);
    auto send = pack(st);
    profile.add_work(Phase::kAllToAll, st.rows_sent);
    received = comm_->alltoallv_mailbox(std::move(send));
  }
  recycle(outgoing_);  // the blocking exchange copied everything out already
  decode(received, st, profile);
  return st;
}

std::vector<vmpi::Bytes> ExchangeRouter::pack_hier(RouterFlushStats& st,
                                                   const std::vector<int>& leaders,
                                                   std::uint64_t seq) {
  const int n = comm_->size();
  const auto nsz = static_cast<std::size_t>(n);
  const std::size_t nt = targets_.size();
  const int me = comm_->rank();
  const vmpi::Topology& topo = comm_->topology();
  const int leader = leaders[static_cast<std::size_t>(topo.node_of(me))];
  const int up_tag = kHierUpTagBase + static_cast<int>(seq % kHierTagWindow);

  std::vector<vmpi::Bytes> send(nsz);

  // Every rank filters its own buckets against its shipped runs before
  // they reach the node merge: what it already sent toward a final
  // destination reached that owner whichever leader carried it.  A leader
  // leaves the buckets of targets without a live filter to the node merge
  // below, which folds them.
  for (std::size_t d = 0; d < nsz; ++d) {
    for (std::size_t id = 0; id < nt; ++id) {
      if (!bucket(id, d).empty() && (me != leader || filters_[id].live)) {
        fold_bucket(id, d, st);
      }
    }
  }
  release_low_yield();

  if (me != leader) {
    // Member: ship every bucket to the node aggregator as one frame whose
    // routes name (final destination, target), then return the all-empty
    // send vector — exchanging it keeps the leaders-only exchange
    // collective.
    vmpi::RowFrameWriter w;
    for (std::size_t d = 0; d < nsz; ++d) {
      for (std::size_t id = 0; id < nt; ++id) {
        auto& run = bucket(id, d);
        if (run.empty()) continue;
        w.section(d * nt + id, arity_of(id), run.values());
        st.rows_sent += run.row_count();
      }
    }
    vmpi::Bytes frame = w.take();
    comm_->account_send(vmpi::Op::kAlltoallv, frame.size(), leader);
    {
      // The gather leg rides the faultable mailbox path, so injected
      // drop/corrupt/delay hit it like any other message; stats pause
      // because the bytes were just attributed to the collective above.
      vmpi::StatsPause pause(*comm_);
      comm_->isend(leader, up_tag, frame);
    }
    pending_rows_ = 0;
    return send;
  }

  // Leader: fold own buckets and every member frame together per (target,
  // final dst).  The buckets swap into the node runs, so flush()'s
  // recycle() sees the node runs' emptied buffers.
  std::swap(node_runs_, outgoing_);
  {
    vmpi::StatsPause pause(*comm_);
    const auto arity_of_route = [&](std::uint64_t route) { return arity_of(route % nt); };
    const std::size_t members = topo.node_members(me, n).size();
    for (std::size_t i = 1; i < members; ++i) {
      const vmpi::Bytes buf = comm_->recv(vmpi::kAnySource, up_tag);
      vmpi::RowFrameReader r(buf);
      while (!r.done()) {
        rows_scratch_.clear();
        const auto s = r.section(nsz * nt, arity_of_route, rows_scratch_);
        const std::size_t d = s.route / nt;
        const std::size_t id = s.route % nt;
        st.rows_node_merged += node_runs_[id * nsz + d].append(rows_scratch_);
      }
    }
  }

  // One frame per destination node, addressed to its elected leader; the
  // route carries the final destination's index within that node so the
  // peer leader can scatter.  Folding each node run here collapses rows
  // different members generated for the same key before they cross nodes
  // — the volume reduction the two-level exchange buys.
  for (const int peer : leaders) {
    vmpi::RowFrameWriter w;
    const int peer_base = topo.node_base(peer);
    for (const int d : topo.node_members(peer, n)) {
      for (std::size_t id = 0; id < nt; ++id) {
        auto& run = node_runs_[id * nsz + static_cast<std::size_t>(d)];
        if (run.empty()) continue;
        st.rows_node_merged += run.fold();
        w.section(static_cast<std::size_t>(d - peer_base) * nt + id, arity_of(id),
                  run.values());
        st.rows_sent += run.row_count();
      }
    }
    send[static_cast<std::size_t>(peer)] = w.take();
  }
  recycle(node_runs_);
  pending_rows_ = 0;
  return send;
}

void ExchangeRouter::absorb_hier(const std::vector<vmpi::Bytes>& received,
                                 RouterFlushStats& st, RankProfile& profile,
                                 const std::vector<int>& leaders, std::uint64_t seq) {
  const int n = comm_->size();
  const int me = comm_->rank();
  const std::size_t nt = targets_.size();
  const vmpi::Topology& topo = comm_->topology();
  const int leader = leaders[static_cast<std::size_t>(topo.node_of(me))];
  const int down_tag = kHierDownTagBase + static_cast<int>(seq % kHierTagWindow);

  if (me != leader) {
    // Member: the leaders' exchange delivered only empties here; the node
    // rows arrive as one scatter frame routed by target.
    vmpi::Bytes buf;
    {
      PhaseScope scope(*comm_, profile, Phase::kAllToAll);
      vmpi::StatsPause pause(*comm_);
      buf = comm_->recv(leader, down_tag);
    }
    PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
    stage_frame(buf, st);
    profile.add_work(Phase::kDedupAgg, st.rows_staged);
    return;
  }

  // Leader: split every arriving leader frame by final destination —
  // stage own rows, forward the rest as one frame per member.
  // Node ranks are contiguous, so member index == d - node_base (the
  // elected leader may sit anywhere in the block, hence base, not me).
  const int base = topo.node_base(me);
  const std::vector<int> members = topo.node_members(me, n);
  std::vector<std::vector<value_t>> fwd(members.size() * nt);
  {
    PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
    const auto arity_of_route = [&](std::uint64_t route) { return arity_of(route % nt); };
    for (const auto& buf : received) {
      vmpi::RowFrameReader r(buf);
      while (!r.done()) {
        rows_scratch_.clear();
        const auto s = r.section(members.size() * nt, arity_of_route, rows_scratch_);
        const int d = base + static_cast<int>(s.route / nt);
        const std::size_t id = s.route % nt;
        if (d == me) {
          targets_[id]->stage_rows(rows_scratch_);
          st.rows_staged += s.count;
        } else {
          auto& acc = fwd[s.route];
          acc.insert(acc.end(), rows_scratch_.begin(), rows_scratch_.end());
        }
      }
    }
    profile.add_work(Phase::kDedupAgg, st.rows_staged);
  }
  {
    PhaseScope scope(*comm_, profile, Phase::kAllToAll);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const int m = members[i];
      if (m == me) continue;  // own rows were staged above
      vmpi::RowFrameWriter w;
      for (std::size_t id = 0; id < nt; ++id) {
        const auto& rows = fwd[i * nt + id];
        if (!rows.empty()) w.section(id, arity_of(id), rows);
      }
      vmpi::Bytes frame = w.take();
      comm_->account_send(vmpi::Op::kAlltoallv, frame.size(), m);
      // Faultable, like the gather leg.
      vmpi::StatsPause pause(*comm_);
      comm_->isend(m, down_tag, frame);
    }
  }
}

}  // namespace paralagg::core
