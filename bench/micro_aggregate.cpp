// Microbenchmarks: the fused deduplication/aggregation pass (paper §IV-A)
// — staging throughput and materialization, aggregated vs plain, the
// within-iteration collapse that makes local aggregation pay, and the two
// ways materialize() places a run into the full tree.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/relation.hpp"
#include "vmpi/runtime.hpp"

namespace {

using namespace paralagg;
using core::Relation;
using core::Tuple;
using core::value_t;
using storage::mix64;
using storage::TupleBTree;

void BM_MaterializePlain(benchmark::State& state) {
  const auto n = static_cast<value_t>(state.range(0));
  vmpi::run(1, [&](vmpi::Comm& comm) {
    for (auto _ : state) {
      Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
      for (value_t v = 0; v < n; ++v) r.stage(Tuple{mix64(v), v}.view());
      const auto m = r.materialize();
      benchmark::DoNotOptimize(m.inserted);
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MaterializePlain)->Arg(10000)->Arg(100000);

void BM_MaterializeMinAgg(benchmark::State& state) {
  const auto n = static_cast<value_t>(state.range(0));
  vmpi::run(1, [&](vmpi::Comm& comm) {
    for (auto _ : state) {
      Relation r(comm, {.name = "r",
                        .arity = 2,
                        .jcc = 1,
                        .dep_arity = 1,
                        .aggregator = core::make_min_aggregator()});
      for (value_t v = 0; v < n; ++v) r.stage(Tuple{mix64(v), v}.view());
      const auto m = r.materialize();
      benchmark::DoNotOptimize(m.inserted);
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MaterializeMinAgg)->Arg(10000)->Arg(100000);

void BM_LocalCollapse(benchmark::State& state) {
  // `fanin` staged tuples per key: the within-iteration duplicates the
  // fused pass collapses before any B-tree work.
  const value_t keys = 1000;
  const auto fanin = static_cast<value_t>(state.range(0));
  vmpi::run(1, [&](vmpi::Comm& comm) {
    for (auto _ : state) {
      Relation r(comm, {.name = "r",
                        .arity = 2,
                        .jcc = 1,
                        .dep_arity = 1,
                        .aggregator = core::make_min_aggregator()});
      for (value_t k = 0; k < keys; ++k) {
        for (value_t i = 0; i < fanin; ++i) {
          r.stage(Tuple{k, mix64(k * fanin + i) % 1000}.view());
        }
      }
      const auto m = r.materialize();
      benchmark::DoNotOptimize(m.inserted);
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(keys * fanin));
}
BENCHMARK(BM_LocalCollapse)->Arg(1)->Arg(8)->Arg(64);

void BM_AscendRejection(benchmark::State& state) {
  // Steady-state fixpoint behaviour: repeated worse values hit the
  // "no new information" fast path (Fig. 1, top right).
  const value_t n = 10000;
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r",
                      .arity = 2,
                      .jcc = 1,
                      .dep_arity = 1,
                      .aggregator = core::make_min_aggregator()});
    for (value_t v = 0; v < n; ++v) r.stage(Tuple{v, 1}.view());
    r.materialize();
    for (auto _ : state) {
      for (value_t v = 0; v < n; ++v) r.stage(Tuple{v, 2}.view());  // all worse
      const auto m = r.materialize();
      benchmark::DoNotOptimize(m.rejected);
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AscendRejection);

void BM_RunIntoTree(benchmark::State& state) {
  // A run of rows / ratio keys placed into a full tree of `rows` rows, by
  // per-key find/insert descents (path 0) or by one merge pass plus a
  // rebuild (path 1), each followed by the delta build; the ratio where
  // both cost the same sets Relation::kPerKeyRatio.  Rows look like SSSP's
  // spath (2 key columns, a MIN payload).  Tree keys are the even numbers
  // below 2 * rows; run keys spread evenly over that range, alternately
  // present (their payload ascends) and absent (inserted).
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto keys = std::max<std::size_t>(1, rows / static_cast<std::size_t>(state.range(1)));
  const bool merge = state.range(2) != 0;
  const auto append = [](std::vector<value_t>& to, std::size_t k, value_t payload) {
    to.insert(to.end(), {k >> 12, k & 0xfff, payload});
  };
  std::vector<value_t> base, run;
  for (std::size_t i = 0; i < rows; ++i) append(base, 2 * i, 100);
  for (std::size_t j = 0; j < keys; ++j) append(run, (j * 2 * rows / keys) | (j & 1), 50);
  const auto fold = [](std::span<value_t> stored, std::span<const value_t> in) {
    if (in[2] >= stored[2]) return false;
    stored[2] = in[2];
    return true;
  };
  TupleBTree full(3, 2), delta(3, 2);
  std::vector<value_t> changed;
  for (auto _ : state) {
    state.PauseTiming();
    full.assign_sorted(base);
    changed.clear();
    state.ResumeTiming();
    if (merge) {
      full.merge_sorted(run, changed, fold);
    } else {
      for (std::size_t off = 0; off < run.size(); off += 3) {
        const std::span<const value_t> in(run.data() + off, 3);
        const std::span<value_t> cur = full.find_key(in.first(2));
        if (cur.empty()) {
          full.insert(in);
          changed.insert(changed.end(), in.begin(), in.end());
        } else if (fold(cur, in)) {
          changed.insert(changed.end(), cur.begin(), cur.end());
        }
      }
    }
    delta.assign_sorted(changed);
    benchmark::DoNotOptimize(delta.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(keys));
}
BENCHMARK(BM_RunIntoTree)
    ->ArgNames({"rows", "ratio", "merge"})
    ->ArgsProduct({{1 << 12, 1 << 15, 1 << 18}, {4, 16, 32, 64, 128, 512}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
