#include "baseline/shuffle_engine.hpp"

#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "storage/btree.hpp"
#include "storage/tuple.hpp"
#include "vmpi/row_frame.hpp"

namespace paralagg::baseline {

namespace {

using storage::hash_columns;
using storage::mix64;

struct Tup3 {
  value_t a, b, c;
};

std::vector<value_t> flatten(const std::vector<Tup3>& rows) {
  std::vector<value_t> flat;
  flat.reserve(rows.size() * 3);
  for (const auto& t : rows) flat.insert(flat.end(), {t.a, t.b, t.c});
  return flat;
}

std::vector<Tup3> unflatten(std::span<const value_t> flat) {
  std::vector<Tup3> rows;
  rows.reserve(flat.size() / 3);
  for (std::size_t i = 0; i < flat.size(); i += 3) {
    rows.push_back({flat[i], flat[i + 1], flat[i + 2]});
  }
  return rows;
}

/// One all-to-all row shuffle; returns the arrivals in source order.  The
/// comparators' rows cross ranks through vmpi::exchange_rows, the helper
/// PARALAGG's row moves use, so Table I compares aggregation designs
/// rather than wire formats.  `sorted` sorts each remote buffer on its
/// leading column first: the one-shot input distribution does, as
/// load_facts does; per-iteration rows keep their generation order.
/// Collective.
std::vector<Tup3> shuffle(vmpi::Comm& comm, const std::vector<std::vector<Tup3>>& send,
                          bool sorted) {
  std::vector<std::vector<value_t>> flat(send.size());
  for (std::size_t d = 0; d < send.size(); ++d) {
    flat[d] = flatten(send[d]);
    if (sorted && d != static_cast<std::size_t>(comm.rank())) {
      storage::sort_rows(flat[d], 3, 1);
    }
  }
  return unflatten(vmpi::exchange_rows(comm, 3, std::move(flat), /*faultable=*/false));
}

std::size_t owner1(value_t x, int n) { return static_cast<std::size_t>(mix64(x) % static_cast<std::uint64_t>(n)); }
std::size_t owner2(value_t x, value_t y, int n) {
  return static_cast<std::size_t>(mix64(mix64(x) ^ y) % static_cast<std::uint64_t>(n));
}
std::size_t owner3(value_t x, value_t y, value_t z, int n) {
  return static_cast<std::size_t>(mix64(mix64(mix64(x) ^ y) ^ z) %
                                  static_cast<std::uint64_t>(n));
}

/// Adjacency partitioned by source hash, built collectively.
std::unordered_map<value_t, std::vector<std::pair<value_t, value_t>>> build_adjacency(
    vmpi::Comm& comm, const graph::Graph& g, bool symmetrize) {
  const int n = comm.size();
  std::vector<std::vector<Tup3>> send(static_cast<std::size_t>(n));
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < g.edges.size();
       i += static_cast<std::size_t>(n)) {
    const auto& e = g.edges[i];
    send[owner1(e.src, n)].push_back({e.src, e.dst, e.weight});
    if (symmetrize) send[owner1(e.dst, n)].push_back({e.dst, e.src, e.weight});
  }
  std::unordered_map<value_t, std::vector<std::pair<value_t, value_t>>> adj;
  for (const auto& t : shuffle(comm, send, /*sorted=*/true)) adj[t.a].emplace_back(t.b, t.c);
  return adj;
}

struct LoopTotals {
  std::uint64_t result_count = 0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// The shared frontier loop.  State tuples are (key, ctx, val): SSSP uses
/// (to, from, dist) — `ctx` carries the source — and CC uses (node, 0,
/// label).  Aggregation key is (key, ctx); candidates relax `val` via min.
LoopTotals shuffle_loop(vmpi::Comm& comm, const ShuffleOptions& opts,
                        const std::unordered_map<value_t, std::vector<std::pair<value_t, value_t>>>& adj,
                        std::vector<Tup3> seeds, bool weighted) {
  const int n = comm.size();
  const auto me = static_cast<std::size_t>(comm.rank());

  // The "global hashmap with a special partition key" (paper §IV-A):
  // reducer-side accumulators keyed on the independent columns.
  std::unordered_map<value_t, std::unordered_map<value_t, value_t>> best;  // key -> ctx -> val
  // The stored relation, partitioned by FULL-tuple hash: the strategy under
  // test.  Insertions here are the redistribution hop PARALAGG avoids.
  std::unordered_set<std::uint64_t> store;

  // Seed: route seeds to their reducers and fold them in.
  std::vector<Tup3> delta;  // lives on reducer ranks between iterations
  {
    std::vector<std::vector<Tup3>> send(static_cast<std::size_t>(n));
    for (const auto& s : seeds) {
      // Master mode keeps the single accumulator map on rank 0.
      const std::size_t dst =
          opts.mode == ShuffleMode::kMaster ? 0 : owner2(s.a, s.b, n);
      send[dst].push_back(s);
    }
    for (const auto& t : shuffle(comm, send, /*sorted=*/true)) {
      auto& slot = best[t.a];
      auto it = slot.find(t.b);
      if (it == slot.end() || t.c < it->second) {
        slot[t.b] = t.c;
        delta.push_back(t);
      }
    }
  }

  LoopTotals totals;
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    // Hop 1: route the delta to the join owners (hash of the join column).
    std::vector<std::vector<Tup3>> to_join(static_cast<std::size_t>(n));
    for (const auto& t : delta) to_join[owner1(t.a, n)].push_back(t);
    const auto at_join = shuffle(comm, to_join, /*sorted=*/false);

    // Local join against the adjacency partition.
    std::vector<std::vector<Tup3>> candidates(static_cast<std::size_t>(n));
    const auto route_candidate = [&](const Tup3& c) {
      if (opts.mode == ShuffleMode::kShuffle) {
        candidates[owner2(c.a, c.b, n)].push_back(c);
      } else {
        candidates[0].push_back(c);  // master collects everything
      }
    };
    for (const auto& t : at_join) {
      const auto a = adj.find(t.a);
      if (a == adj.end()) continue;
      for (const auto& [v, w] : a->second) {
        route_candidate({v, t.b, t.c + (weighted ? w : 0)});
      }
    }

    // Hop 2: aggregation exchange.
    std::vector<Tup3> changed;
    if (opts.mode == ShuffleMode::kShuffle) {
      for (const auto& t : shuffle(comm, candidates, /*sorted=*/false)) {
        auto& slot = best[t.a];
        auto it = slot.find(t.b);
        if (it == slot.end() || t.c < it->second) {
          slot[t.b] = t.c;
          changed.push_back(t);
        }
      }
    } else {
      // Master mode: rank 0 owns the whole map.
      const auto at_master = shuffle(comm, candidates, /*sorted=*/false);
      std::vector<Tup3> master_changed;
      if (comm.rank() == 0) {
        for (const auto& t : at_master) {
          auto& slot = best[t.a];
          auto it = slot.find(t.b);
          if (it == slot.end() || t.c < it->second) {
            slot[t.b] = t.c;
            master_changed.push_back(t);
          }
        }
      }
      // Broadcast the changed rows as one frame; each rank adopts a slice
      // as its delta.
      std::vector<value_t> all_flat;
      vmpi::decode_rows(comm.bcast(0, vmpi::encode_rows(3, flatten(master_changed))), 3,
                        all_flat);
      const auto all_changed = unflatten(all_flat);
      const auto stride = static_cast<std::size_t>(n);
      for (std::size_t idx = me; idx < all_changed.size(); idx += stride) {
        changed.push_back(all_changed[idx]);
      }
    }

    // Hop 3: redistribute surviving rows to their full-tuple-hash storage
    // owners (PARALAGG's fused design makes this hop vanish).
    {
      std::vector<std::vector<Tup3>> to_store(static_cast<std::size_t>(n));
      for (const auto& t : changed) to_store[owner3(t.a, t.b, t.c, n)].push_back(t);
      for (const auto& t : shuffle(comm, to_store, /*sorted=*/false)) {
        store.insert(mix64(mix64(mix64(t.a) ^ t.b) ^ t.c));
      }
    }

    delta = std::move(changed);
    ++totals.iterations;
    const auto global_changed =
        comm.allreduce<std::uint64_t>(delta.size(), vmpi::ReduceOp::kSum);
    if (global_changed == 0) {
      totals.converged = true;
      break;
    }
  }

  std::uint64_t local_results = 0;
  for (const auto& [key, slot] : best) {
    (void)key;
    local_results += slot.size();
  }
  // Master mode keeps the whole map on rank 0; either way the sum is right.
  totals.result_count = comm.allreduce<std::uint64_t>(local_results, vmpi::ReduceOp::kSum);
  return totals;
}

ShuffleResult run_loop(vmpi::Comm& comm, const graph::Graph& g, bool symmetrize, bool weighted,
                       std::vector<Tup3> seeds, const ShuffleOptions& opts) {
  const std::uint64_t bytes_before = comm.stats().total_remote_bytes();
  const auto t0 = std::chrono::steady_clock::now();

  const auto adj = build_adjacency(comm, g, symmetrize);
  const auto totals = shuffle_loop(comm, opts, adj, std::move(seeds), weighted);

  ShuffleResult result;
  result.result_count = totals.result_count;
  result.iterations = totals.iterations;
  result.converged = totals.converged;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const std::uint64_t my_bytes = comm.stats().total_remote_bytes() - bytes_before;
  {
    vmpi::StatsPause pause(comm);
    result.remote_bytes = comm.allreduce<std::uint64_t>(my_bytes, vmpi::ReduceOp::kSum);
  }
  return result;
}

}  // namespace

ShuffleResult run_sssp_shuffle(vmpi::Comm& comm, const graph::Graph& g,
                               const std::vector<value_t>& sources,
                               const ShuffleOptions& opts) {
  std::vector<Tup3> seeds;
  if (comm.rank() == 0) {
    for (const value_t s : sources) seeds.push_back({s, s, 0});
  }
  return run_loop(comm, g, /*symmetrize=*/false, /*weighted=*/true, std::move(seeds), opts);
}

ShuffleResult run_cc_shuffle(vmpi::Comm& comm, const graph::Graph& g,
                             const ShuffleOptions& opts) {
  // Seed every edge-incident node with its own id (ctx column unused).
  std::vector<Tup3> seeds;
  const auto n = static_cast<std::size_t>(comm.size());
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < g.edges.size(); i += n) {
    const auto& e = g.edges[i];
    seeds.push_back({e.src, 0, e.src});
    seeds.push_back({e.dst, 0, e.dst});
  }
  return run_loop(comm, g, /*symmetrize=*/true, /*weighted=*/false, std::move(seeds), opts);
}

}  // namespace paralagg::baseline
