// Topology-aware two-level exchange: does routing the tuple exchange
// through per-node aggregator ranks cut cross-node volume?
//
// Sweep: 16..64 ranks grouped 8 ranks per modeled node, two configs per
// size over the same single-rule SSSP fixpoint:
//
//   dense-rd     — flat alltoallv, recursive-doubling collectives
//   hier-rd      — two-level exchange (node aggregators pre-merge MIN
//                  deltas, leaders-only mailbox alltoallv, intra-node
//                  scatter)
//
// Both run under the SAME node grouping, so the cross-node byte split is
// apples to apples; only the routing differs.  Metrics come straight from
// the CommStats counters: cross- vs intra-node bytes under Op::kAlltoallv
// (the tuple exchange), and steps-per-call for the allreduce/allgather the
// BSP termination vote runs every iteration.
//
// The verdict is counter-based, at 32 ranks grouped 4x8:
//   * hier-rd must ship strictly fewer cross-node tuple-exchange bytes
//     than dense-rd (the node-level pre-merge must pay for itself), and
//   * dense-rd's allreduce must take at most ceil(log2 32) = 5 steps per
//     call, and
//   * every config must reach the bit-identical fixpoint.
// Any violation exits nonzero.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace paralagg::bench {
namespace {

struct Config {
  const char* name = "dense-rd";
  core::ExchangeAlgorithm exchange = core::ExchangeAlgorithm::kDense;
};

struct Row {
  std::string config;
  int ranks = 0;
  int nodes = 0;
  double a2a_cross_mib = 0;   // tuple-exchange bytes that crossed nodes
  double a2a_intra_mib = 0;   // tuple-exchange bytes that stayed on-node
  double allreduce_steps_per_call = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t iterations = 0;
  std::uint64_t paths = 0;
  double wall_s = 0;
  double topo_projected_s = 0;
};

Row run_once(const graph::Graph& g, const std::vector<core::value_t>& sources, int ranks,
             int nodes, const Config& cfg) {
  Row row;
  row.config = cfg.name;
  row.ranks = ranks;
  row.nodes = nodes;

  vmpi::RunOptions ropts;
  ropts.topology = vmpi::Topology::grouped(ranks, nodes);
  vmpi::run(ranks, ropts, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = sources;
    opts.tuning.engine.exchange = cfg.exchange;
    opts.tuning.engine.balance.enabled = false;  // keep routing the only variable
    const auto r = run_sssp(comm, g, opts);
    if (comm.rank() == 0) {
      const auto& st = r.run.comm_total;
      row.a2a_cross_mib = mib(st.cross_node_bytes(vmpi::Op::kAlltoallv));
      row.a2a_intra_mib = mib(st.intra_node_bytes(vmpi::Op::kAlltoallv));
      const auto calls = st.calls_of(vmpi::Op::kAllreduce);
      row.allreduce_steps_per_call =
          calls == 0 ? 0
                     : static_cast<double>(st.steps_of(vmpi::Op::kAllreduce)) /
                           static_cast<double>(calls);
      row.total_steps = st.total_steps();
      row.iterations = r.run.total_iterations;
      row.paths = r.path_count;
      row.wall_s = r.run.wall_seconds;
      row.topo_projected_s = core::CostModel{}.project_topology(r.run.profile);
    }
  });
  return row;
}

void emit(const Row& r) {
  std::printf(
      "{\"config\":\"%s\",\"query\":\"sssp\",\"ranks\":%d,\"nodes\":%d,"
      "\"a2a_cross_mib\":%.4f,\"a2a_intra_mib\":%.4f,"
      "\"allreduce_steps_per_call\":%.2f,\"total_steps\":%llu,"
      "\"iterations\":%llu,\"paths\":%llu,\"wall_s\":%.6f,"
      "\"topo_projected_s\":%.6f}\n",
      r.config.c_str(), r.ranks, r.nodes, r.a2a_cross_mib, r.a2a_intra_mib,
      r.allreduce_steps_per_call, static_cast<unsigned long long>(r.total_steps),
      static_cast<unsigned long long>(r.iterations),
      static_cast<unsigned long long>(r.paths), r.wall_s, r.topo_projected_s);
}

}  // namespace
}  // namespace paralagg::bench

int main(int argc, char** argv) {
  using namespace paralagg;
  using namespace paralagg::bench;

  const int scale = argc > 1 ? std::atoi(argv[1]) : 10;

  banner("two-level exchange + log-step collectives",
         "SSSP under a modeled node topology (8 ranks per node)",
         "one JSON line per (ranks, config); verdict at 32 ranks / 4 nodes");

  const auto g = graph::make_twitter_like(scale, 10);
  const auto sources = g.pick_hubs(3);

  const Config kConfigs[] = {
      {"dense-rd", core::ExchangeAlgorithm::kDense},
      {"hier-rd", core::ExchangeAlgorithm::kHierarchical},
  };

  Row dense_rd32, hier_rd32;
  bool fixpoint_ok = true;
  for (const int ranks : {16, 32, 64}) {
    const int nodes = ranks / 8;
    std::uint64_t paths = 0;
    bool first = true;
    for (const Config& cfg : kConfigs) {
      const Row row = run_once(g, sources, ranks, nodes, cfg);
      emit(row);
      if (first) {
        paths = row.paths;
        first = false;
      } else if (row.paths != paths) {
        std::printf("MISMATCH at %d ranks: %s reached %llu paths, expected %llu\n",
                    ranks, row.config.c_str(),
                    static_cast<unsigned long long>(row.paths),
                    static_cast<unsigned long long>(paths));
        fixpoint_ok = false;
      }
      if (ranks == 32) {
        if (row.config == "dense-rd") dense_rd32 = row;
        if (row.config == "hier-rd") hier_rd32 = row;
      }
    }
  }

  rule();
  bool ok = fixpoint_ok;
  if (!fixpoint_ok) std::printf("VERDICT: FAIL — fixpoints diverged across configs\n");

  if (hier_rd32.a2a_cross_mib >= dense_rd32.a2a_cross_mib) {
    std::printf("VERDICT: FAIL — hier cross-node a2a %.4f MiB >= dense %.4f MiB at 32/4\n",
                hier_rd32.a2a_cross_mib, dense_rd32.a2a_cross_mib);
    ok = false;
  } else {
    std::printf("cross-node a2a at 32 ranks / 4 nodes: hier %.4f MiB < dense %.4f MiB "
                "(%.1f%% saved)\n",
                hier_rd32.a2a_cross_mib, dense_rd32.a2a_cross_mib,
                100.0 * (1.0 - hier_rd32.a2a_cross_mib / dense_rd32.a2a_cross_mib));
  }

  const double log_steps = std::ceil(std::log2(32.0));
  if (dense_rd32.allreduce_steps_per_call > log_steps) {
    std::printf("VERDICT: FAIL — allreduce steps/call: rd %.2f (want <= %.0f)\n",
                dense_rd32.allreduce_steps_per_call, log_steps);
    ok = false;
  } else {
    std::printf("allreduce steps/call at 32 ranks: rd %.2f (<= log2 n = %.0f)\n",
                dense_rd32.allreduce_steps_per_call, log_steps);
  }

  if (!ok) return 1;
  std::printf("VERDICT: PASS — fewer cross-node bytes under the two-level exchange, "
              "O(log n) collective steps, bit-identical fixpoints\n");
  return 0;
}
