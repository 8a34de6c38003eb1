// Microbenchmarks: the fused deduplication/aggregation pass (paper §IV-A)
// — staging throughput and materialization, aggregated vs plain, the
// within-iteration collapse that makes local aggregation pay, the two
// ways materialize() places a run into the full tree, the row-frame
// codec every row move crosses ranks in (folded runs and fact-load
// buffers, with the load's sort), and the dominance filter's probe in
// front of it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/relation.hpp"
#include "core/shipped_run.hpp"
#include "graph/generators.hpp"
#include "vmpi/row_frame.hpp"
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

enum class RunShape { kSssp, kCc, kPagerank, kEdges2, kEdges3, kEdges2Sorted, kEdges3Sorted };

/// A key-sorted, key-unique run shaped like one router bucket after a
/// fold: ascending node ids owned by one of four ranks.  SSSP rows are
/// spath (to, from, dist) with a few hub sources per node; CC rows are
/// (node, label) with small component-minimum labels; PageRank rows are
/// (node, share) with 40-bit fixed-point shares.
std::vector<value_t> codec_run(RunShape shape, std::size_t rows) {
  std::vector<value_t> run;
  value_t node = 0;
  for (std::size_t i = 0; i < rows;) {
    node += 1 + mix64(node) % 7;
    switch (shape) {
      case RunShape::kSssp:
        for (value_t s = 0; s < 3 && i < rows; ++s, ++i) {
          run.insert(run.end(), {node, 1000 + 37 * s, 20 + mix64(node + s) % 400});
        }
        break;
      case RunShape::kCc:
        run.insert(run.end(), {node, mix64(node) % 64});
        ++i;
        break;
      default:
        run.insert(run.end(), {node, mix64(node) >> 24});
        ++i;
        break;
    }
  }
  return run;
}

/// One rank's fact-load buffer for one peer on pagerank-rmat's input (RMAT
/// scale 14, edge factor 8, four ranks): the edges of rank 0's slice
/// (every fourth) whose source hashes to rank 1, about 8k rows, as (src,
/// dst) or (src, dst, weight) — in arrival order, or sorted on the source
/// column as load_facts sorts them.
std::vector<value_t> load_rows(std::size_t arity, bool sorted) {
  const auto g = graph::make_rmat({.scale = 14, .edge_factor = 8});
  std::vector<value_t> rows;
  for (std::size_t i = 0; i < g.edges.size(); i += 4) {
    const auto& e = g.edges[i];
    if (mix64(e.src) % 4 != 1) continue;
    rows.insert(rows.end(), {e.src, e.dst});
    if (arity == 3) rows.push_back(e.weight);
  }
  if (sorted) storage::sort_rows(rows, arity, 1);
  return rows;
}

enum class CodecOp { kEncode, kDecode, kSort };

void BM_RowCodec(benchmark::State& state, RunShape shape, CodecOp op) {
  // The folded shapes are one 4096-row run (the fold floor); the edge
  // shapes are a fact-load buffer (load_rows).  kSort times the sort_rows
  // call load_facts makes before encoding.  row_s is seconds per row;
  // bytes_per_row against 8 × arity raw.
  const bool edges = shape >= RunShape::kEdges2;
  const std::size_t arity =
      shape == RunShape::kSssp || shape == RunShape::kEdges3 || shape == RunShape::kEdges3Sorted
          ? 3
          : 2;
  const auto rows = edges ? load_rows(arity, shape >= RunShape::kEdges2Sorted)
                          : codec_run(shape, 4096);
  const vmpi::Bytes frame = vmpi::encode_rows(arity, rows);
  std::vector<value_t> out, scratch;
  for (auto _ : state) {
    switch (op) {
      case CodecOp::kEncode: {
        const vmpi::Bytes encoded = vmpi::encode_rows(arity, rows);
        benchmark::DoNotOptimize(encoded.data());
        break;
      }
      case CodecOp::kDecode:
        out.clear();
        vmpi::decode_rows(frame, arity, out);
        benchmark::DoNotOptimize(out.data());
        break;
      case CodecOp::kSort:
        state.PauseTiming();
        out = rows;
        state.ResumeTiming();
        storage::sort_rows(std::span<value_t>(out), arity, 1, scratch);
        benchmark::DoNotOptimize(out.data());
        break;
    }
    benchmark::ClobberMemory();
  }
  const auto n = static_cast<double>(rows.size() / arity);
  const auto done = static_cast<double>(state.iterations()) * n;
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  state.counters["row_s"] =
      benchmark::Counter(done, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["bytes_per_row"] = static_cast<double>(frame.size()) / n;
}
BENCHMARK_CAPTURE(BM_RowCodec, sssp_encode, RunShape::kSssp, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, sssp_decode, RunShape::kSssp, CodecOp::kDecode);
BENCHMARK_CAPTURE(BM_RowCodec, cc_encode, RunShape::kCc, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, cc_decode, RunShape::kCc, CodecOp::kDecode);
BENCHMARK_CAPTURE(BM_RowCodec, pagerank_encode, RunShape::kPagerank, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, pagerank_decode, RunShape::kPagerank, CodecOp::kDecode);
BENCHMARK_CAPTURE(BM_RowCodec, edges2_arrival_encode, RunShape::kEdges2, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, edges2_arrival_decode, RunShape::kEdges2, CodecOp::kDecode);
BENCHMARK_CAPTURE(BM_RowCodec, edges2_sort, RunShape::kEdges2, CodecOp::kSort);
BENCHMARK_CAPTURE(BM_RowCodec, edges2_sorted_encode, RunShape::kEdges2Sorted, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, edges2_sorted_decode, RunShape::kEdges2Sorted, CodecOp::kDecode);
BENCHMARK_CAPTURE(BM_RowCodec, edges3_arrival_encode, RunShape::kEdges3, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, edges3_arrival_decode, RunShape::kEdges3, CodecOp::kDecode);
BENCHMARK_CAPTURE(BM_RowCodec, edges3_sort, RunShape::kEdges3, CodecOp::kSort);
BENCHMARK_CAPTURE(BM_RowCodec, edges3_sorted_encode, RunShape::kEdges3Sorted, CodecOp::kEncode);
BENCHMARK_CAPTURE(BM_RowCodec, edges3_sorted_decode, RunShape::kEdges3Sorted, CodecOp::kDecode);

void BM_ShippedRun(benchmark::State& state, bool batch) {
  // One history of `keys` SSSP-shaped keys (spath (to, from, dist), MIN)
  // checked against one row per key: 7 in 8 no better than the history
  // (dropped, about sssp-lossy-async's share), 1 in 8 better (folded in).
  // The per-row check (the async STAGE path) takes them in a scattered
  // emission order; the batch walk (the router at pack()) takes them as a
  // folded run.  The history and the run are rebuilt outside the timed
  // region.  2k, 19k and 37k keys are the per-rank histories of
  // cc-mesh-async, sssp-lossy-async and sssp-twitter.  row_s is seconds per
  // checked row.
  const auto keys = static_cast<std::size_t>(state.range(0));
  const auto min = core::make_min_aggregator();
  const auto key_of = [](std::size_t i) {
    return std::array<value_t, 2>{i / 3 * 7 + 1, 1000 + 37 * (i % 3)};
  };
  core::ShippedRun history(3, 2, min.get());
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < keys; ++i) {
    const auto k = key_of(i);
    (void)history.dominated(std::array<value_t, 3>{k[0], k[1], 200}, hits);
  }
  std::vector<value_t> rows;
  for (std::size_t j = 0; j < keys; ++j) {
    const std::size_t i = j * 1000003 % keys;  // every key once, scattered
    const auto k = key_of(i);
    rows.insert(rows.end(), {k[0], k[1], j % 8 == 0 ? value_t{100} : value_t{300}});
  }
  std::size_t dropped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::ShippedRun h = history;
    core::FoldRun run(3, 2, min.get());
    if (batch) {
      run.append(rows);
      run.fold();
    }
    state.ResumeTiming();
    if (batch) {
      dropped = h.filter(run, hits);
    } else {
      dropped = 0;
      for (std::size_t off = 0; off < rows.size(); off += 3) {
        dropped += h.dominated(std::span<const value_t>(rows.data() + off, 3), hits) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(dropped);
  }
  const auto checked = static_cast<double>(state.iterations() * keys);
  state.SetItemsProcessed(static_cast<std::int64_t>(checked));
  state.counters["row_s"] =
      benchmark::Counter(checked, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["dropped_frac"] = static_cast<double>(dropped) / static_cast<double>(keys);
}
BENCHMARK_CAPTURE(BM_ShippedRun, per_row, false)->Arg(2000)->Arg(19000)->Arg(37000);
BENCHMARK_CAPTURE(BM_ShippedRun, batch_walk, true)->Arg(2000)->Arg(19000)->Arg(37000);

}  // namespace
