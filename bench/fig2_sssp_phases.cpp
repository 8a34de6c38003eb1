// Figure 2: strong-scaling phase breakdown for SSSP on the Twitter
// stand-in, Baseline ("B": fixed join order, no balancing) vs Optimized
// ("O": dynamic join planning + spatial load balancing).
//
// Paper result: the optimized run is ~2x faster overall; the gap is
// concentrated in local join (the baseline serializes the big Edge
// relation, degrading the join toward linear scans), while the "comm"
// phase (all-to-all of generated tuples) is unchanged by the optimization.

#include "bench_common.hpp"

namespace {

using namespace paralagg;

struct Cell {
  double phase[core::kPhaseCount];
  double total;
  double wall;
};

Cell run_one(const graph::Graph& g, const std::vector<core::value_t>& sources, int ranks,
             bool optimized) {
  Cell cell{};
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = sources;
    if (optimized) {
      opts.tuning.edge_sub_buckets = 8;
    } else {
      opts.tuning = queries::QueryTuning::baseline();
      // Fig. 2's baseline mistake: always serialize side B (the Edge
      // relation) in the recursive join.
      opts.tuning.engine.fixed_order = core::JoinOrderPolicy::kFixedBOuter;
    }
    const auto result = run_sssp(comm, g, opts);
    if (comm.is_root()) {
      for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
        cell.phase[p] = result.run.profile.modelled_seconds[p];
      }
      cell.total = result.run.profile.modelled_total();
      cell.wall = result.run.wall_seconds;
    }
  });
  return cell;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 2: SSSP phase breakdown, Baseline (B) vs Optimized (O)",
      "Twitter-2010 (1.47B edges) on Theta, 256-8192 processes",
      "twitter-like RMAT (scale 14, ef 12, a=0.65), 4-32 virtual ranks, modelled seconds");

  const auto g = graph::make_twitter_like(14, 12);
  // One hub source: at container scale this reproduces the paper regime
  // (frontier small relative to |E|), which 10 sources give at Twitter scale.
  const auto sources = g.pick_hubs(1);
  std::printf("graph: %zu edges, degree skew %.1fx, %zu hub sources\n\n",
              g.num_edges(), g.degree_skew(), sources.size());

  // Header and cells both walk core::phase_name over kPhaseCount, so the
  // columns cannot drift from the profile's phases.
  std::printf("%6s %3s", "ranks", "cfg");
  for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
    std::printf(" %12s", std::string(core::phase_name(static_cast<core::Phase>(p))).c_str());
  }
  std::printf(" | %10s %8s\n", "total", "wall");
  bench::rule(static_cast<int>(10 + 13 * core::kPhaseCount + 22));

  for (const int ranks : {4, 8, 16, 32}) {
    Cell cells[2];
    cells[0] = run_one(g, sources, ranks, false);
    cells[1] = run_one(g, sources, ranks, true);
    for (int o = 0; o < 2; ++o) {
      const auto& c = cells[o];
      std::printf("%6d %3s", ranks, o ? "O" : "B");
      for (std::size_t p = 0; p < core::kPhaseCount; ++p) std::printf(" %12.4f", c.phase[p]);
      std::printf(" | %10.4f %8.3f\n", c.total, c.wall);
    }
    const auto lj = static_cast<std::size_t>(core::Phase::kLocalJoin);
    std::printf("%10s speedup O vs B: total %.2fx, local join %.2fx\n\n", "",
                cells[0].total / cells[1].total, cells[0].phase[lj] / cells[1].phase[lj]);
  }

  std::printf("expected shape: O ~2-3x faster end-to-end; the gap sits in the join pipeline\n"
              "(the baseline serializes the whole Edge relation every iteration --\n"
              "'intra-bucket' -- and burns probes scanning it through the local join), while\n"
              "the 'all-to-all' (comm) column is untouched by the optimization, as in the paper.\n");
  return 0;
}
