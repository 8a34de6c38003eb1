#pragma once

// Topology model for the virtual MPI substrate.
//
// The paper's Theta runs place many ranks per node: traffic between two
// ranks of one node crosses shared memory, traffic between nodes crosses
// the fabric — and at 16-64 ranks the fabric, not the local join, is the
// critical path.  The flat substrate cannot express that distinction, so
// every communication-avoidance claim about *placement* (hierarchical
// exchange, leader pre-aggregation) was unmeasurable.
//
// A Topology groups the ranks of a World into contiguous fixed-size
// "nodes": ranks [0, node_size) form node 0, [node_size, 2*node_size)
// node 1, and so on (the last node may be short).  The grouping is pure
// bookkeeping — no data moves differently — but every byte the substrate
// accounts is classified intra- vs cross-node against it, and the modelled
// cost of a cross-node byte is `cross_cost_ratio` times an intra-node one.
// The hierarchical exchange aggregates each node on one member, elected
// per flush by load (elect_leaders).
//
// The default (node_size = 1) is the flat fabric: every rank its own node,
// every remote byte cross-node — bit-compatible with the pre-topology
// accounting.

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace paralagg::vmpi {

/// Rank-to-node grouping plus the modelled relative cost of crossing the
/// node boundary.  Value type; a copy lives on the World.
struct Topology {
  /// Ranks per node (contiguous blocks).  1 = flat fabric.
  int node_size = 1;
  /// Modelled cost of a cross-node byte relative to an intra-node byte
  /// (feeds core::CostModel::project_topology, never the real exchange).
  double cross_cost_ratio = 4.0;

  [[nodiscard]] int node_of(int rank) const {
    assert(node_size >= 1);
    return rank / node_size;
  }
  [[nodiscard]] bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  /// The first (lowest) rank of `rank`'s node — the contiguous block base.
  [[nodiscard]] int node_base(int rank) const { return node_of(rank) * node_size; }
  /// Load-based leader election: for each node, the member with the
  /// largest load wins; ties break to the lowest rank, so every rank
  /// folding the same load vector (e.g. from an allgather) elects
  /// identically, and an all-equal vector elects each node_base.  Returns
  /// one leader rank per node, node-indexed.  Pure function.
  [[nodiscard]] std::vector<int> elect_leaders(std::span<const std::uint64_t> loads) const;
  [[nodiscard]] int node_count(int nranks) const {
    return (nranks + node_size - 1) / node_size;
  }
  /// Members of `rank`'s node in ascending rank order.
  [[nodiscard]] std::vector<int> node_members(int rank, int nranks) const;

  [[nodiscard]] bool flat() const { return node_size == 1; }

  /// Grouping with `nodes` equal nodes over `nranks` ranks (the last node
  /// short when they do not divide).  nodes <= 0 or >= nranks gives flat.
  [[nodiscard]] static Topology grouped(int nranks, int nodes);

  [[nodiscard]] std::string describe(int nranks) const;
};

}  // namespace paralagg::vmpi
