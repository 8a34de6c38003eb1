#include "vmpi/topology.hpp"

namespace paralagg::vmpi {

std::vector<int> Topology::node_members(int rank, int nranks) const {
  std::vector<int> out;
  const int first = node_base(rank);
  for (int r = first; r < first + node_size && r < nranks; ++r) out.push_back(r);
  return out;
}

std::vector<int> Topology::elect_leaders(std::span<const std::uint64_t> loads) const {
  const int nranks = static_cast<int>(loads.size());
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(node_count(nranks)));
  for (int base = 0; base < nranks; base += node_size) {
    int best = base;
    for (int r = base + 1; r < base + node_size && r < nranks; ++r) {
      // Strictly greater: equal loads keep the lower rank (deterministic,
      // and elects node_base when every member reports the same).
      if (loads[static_cast<std::size_t>(r)] > loads[static_cast<std::size_t>(best)]) {
        best = r;
      }
    }
    out.push_back(best);
  }
  return out;
}

Topology Topology::grouped(int nranks, int nodes) {
  Topology t;
  if (nodes <= 0 || nodes >= nranks) {
    t.node_size = 1;
    return t;
  }
  t.node_size = (nranks + nodes - 1) / nodes;
  return t;
}

std::string Topology::describe(int nranks) const {
  return std::to_string(node_count(nranks)) + " node(s) x " +
         std::to_string(node_size) + " rank(s)";
}

}  // namespace paralagg::vmpi
