#include "core/exchange_router.hpp"

#include <cassert>
#include <utility>

#include "core/phase_scope.hpp"
#include "vmpi/row_frame.hpp"

namespace paralagg::core {

ExchangeRouter::ExchangeRouter(vmpi::Comm& comm, bool preaggregate)
    : comm_(&comm),
      preaggregate_(preaggregate),
      dominance_(static_cast<std::size_t>(comm.size()), kReleaseShare) {}

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
  // Append-only buckets (baseline_config(), serving) ship every row.
  dominance_.add_target(*rel, preaggregate_);
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
  st.rows_dominated += dominance_.filter(route_id, dest, run);
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
  dominance_.release_low_yield();
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
      if (!bucket(id, d).empty() && (me != leader || dominance_.live(id))) {
        fold_bucket(id, d, st);
      }
    }
  }
  dominance_.release_low_yield();

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
