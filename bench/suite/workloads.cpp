// The six benchmark workloads.  README.md records why each exists and which
// layer metric should move which end-to-end metric on it.
//
// Batch workloads share one shape: a verify rep whose full result is
// checked against a sequential oracle, then timed reps until the measured
// phase is over (each must reproduce the verified result digest, result
// count and, on the BSP engine, iteration count), then one traced rep when
// tracing is on.  Every rep builds and loads a fresh program in a fresh
// 4-rank world; fixpoint_s times only the engine run, from a pre-run
// barrier to the slowest rank's return.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <unordered_set>

#include "paralagg/paralagg.hpp"
#include "suite.hpp"
#include "trace.hpp"

namespace paralagg::suite {

namespace {

using Clock = std::chrono::steady_clock;
using core::Phase;
using core::Tuple;
using core::value_t;
using core::Version;

/// Timed reps per run at least, however long they take.
constexpr std::size_t kMinTimedReps = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

template <typename T>
double as_double(T v) {
  return static_cast<double>(v);
}

// -- inputs --------------------------------------------------------------------

/// RMAT inputs (and the serving mutation stream) keep one shape for every
/// workload seed; the seed permutes their node ids.  Seeds then change where
/// rows land on the ranks and in the B-trees, not how much work the query
/// is, so the spread between seeds is the system's own.
constexpr std::uint64_t kShapeSeed = 42;

/// The node ids a workload seed assigns: a seeded permutation of [0, n).
std::vector<value_t> node_ids(std::uint64_t n, std::uint64_t seed) {
  std::vector<value_t> id(n);
  std::iota(id.begin(), id.end(), value_t{0});
  graph::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t i = id.size(); i > 1; --i) std::swap(id[i - 1], id[rng.below(i)]);
  return id;
}

graph::Graph relabeled(graph::Graph g, const std::vector<value_t>& id) {
  for (auto& e : g.edges) {
    e.src = id[e.src];
    e.dst = id[e.dst];
  }
  return g;
}

/// Twitter-like RMAT (a = 0.65, b = c = (1 - a) / 3), the hub-heavy shape
/// of graph::make_twitter_like.
graph::Graph twitter_shape(int scale, int edge_factor) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.a = 0.65;
  p.b = p.c = (1.0 - p.a) / 3.0;
  p.seed = kShapeSeed;
  return graph::make_rmat(p);
}

graph::Graph twitter_rmat(int scale, int edge_factor, std::uint64_t seed) {
  graph::Graph g = twitter_shape(scale, edge_factor);
  const auto id = node_ids(g.num_nodes, seed);
  return relabeled(std::move(g), id);
}

// -- oracles -------------------------------------------------------------------

bool sssp_oracle(const graph::Graph& g, const std::vector<value_t>& sources,
                 const std::vector<Tuple>& rows, std::string& note) {
  const auto ref = queries::reference::sssp(g, sources);
  if (rows.size() != ref.size()) {
    note = "sssp: " + std::to_string(rows.size()) + " paths, Dijkstra has " +
           std::to_string(ref.size());
    return false;
  }
  for (const auto& row : rows) {  // stored order (to, from, dist)
    const auto it = ref.find({row[1], row[0]});
    if (it == ref.end() || it->second != row[2]) {
      note = "sssp: distance differs from Dijkstra at " + row.to_string();
      return false;
    }
  }
  note = "sssp: " + std::to_string(rows.size()) + " distances match Dijkstra";
  return true;
}

bool cc_oracle(const graph::Graph& g, const std::vector<Tuple>& rows, std::string& note) {
  const auto ref = queries::reference::cc_labels(g);
  if (rows.size() != ref.size()) {
    note = "cc: " + std::to_string(rows.size()) + " labels, union-find has " +
           std::to_string(ref.size());
    return false;
  }
  for (const auto& row : rows) {  // (node, label)
    const auto it = ref.find(row[0]);
    if (it == ref.end() || it->second != row[1]) {
      note = "cc: label differs from union-find at " + row.to_string();
      return false;
    }
  }
  note = "cc: " + std::to_string(rows.size()) + " labels match union-find";
  return true;
}

bool pagerank_oracle(const graph::Graph& g, std::size_t rounds, const std::vector<Tuple>& rows,
                     std::string& note) {
  const auto ref = queries::reference::pagerank(g, rounds);
  if (rows.size() != ref.size()) {
    note = "pagerank: " + std::to_string(rows.size()) + " ranks for " +
           std::to_string(ref.size()) + " nodes";
    return false;
  }
  for (const auto& row : rows) {  // (node, fixed-point rank)
    if (row[0] >= ref.size() || ref[row[0]] != row[1]) {
      note = "pagerank: rank differs from the sequential Jacobi loop at " + row.to_string();
      return false;
    }
  }
  note = "pagerank: " + std::to_string(rows.size()) + " ranks bit-identical to the reference";
  return true;
}

/// Order-independent digest of a rank's local rows; summed over ranks it
/// identifies a result without gathering it.
std::uint64_t local_digest(const storage::TupleBTree& tree) {
  std::uint64_t d = 0;
  tree.for_each([&](std::span<const value_t> row) { d += storage::hash_columns(row, 0x5eed); });
  return d;
}

// -- one batch rep -------------------------------------------------------------

/// The vmpi::CommStats counters the suite reports, as a difference of two
/// snapshots of one rank.
struct CommDelta {
  double remote_bytes = 0;
  double p2p_bytes = 0;
  double p2p_messages = 0;
  double collective_calls = 0;
  double wait_s = 0;
  double retransmits = 0;
  double nacks = 0;
  double acks = 0;
  double dups_discarded = 0;
  double heal_s = 0;
  double faults = 0;

  static CommDelta between(const vmpi::CommStats& a, const vmpi::CommStats& b) {
    const auto d = [](std::uint64_t before, std::uint64_t after) {
      return as_double(after - before);
    };
    const auto faults = [](const vmpi::CommStats& s) {
      return s.faults_dropped + s.faults_duplicated + s.faults_delayed + s.faults_corrupted;
    };
    const auto collectives = [](const vmpi::CommStats& s) {
      std::uint64_t n = 0;
      for (std::size_t op = 0; op < vmpi::kOpCount; ++op) {
        if (op != static_cast<std::size_t>(vmpi::Op::kP2P)) n += s.calls[op];
      }
      return n;
    };
    CommDelta out;
    out.remote_bytes = d(a.total_remote_bytes(), b.total_remote_bytes());
    out.p2p_bytes = d(a.remote_bytes(vmpi::Op::kP2P), b.remote_bytes(vmpi::Op::kP2P));
    out.p2p_messages = d(a.messages_sent, b.messages_sent);
    out.collective_calls = d(collectives(a), collectives(b));
    out.wait_s = b.wait_seconds - a.wait_seconds;
    out.retransmits = d(a.retransmits, b.retransmits);
    out.nacks = d(a.nacks_sent, b.nacks_sent);
    out.acks = d(a.acks_sent, b.acks_sent);
    out.dups_discarded = d(a.reliable_dups_discarded, b.reliable_dups_discarded);
    out.heal_s = b.heal_seconds - a.heal_seconds;
    out.faults = d(faults(a), faults(b));
    return out;
  }

  CommDelta& operator+=(const CommDelta& o) {
    remote_bytes += o.remote_bytes;
    p2p_bytes += o.p2p_bytes;
    p2p_messages += o.p2p_messages;
    collective_calls += o.collective_calls;
    wait_s += o.wait_s;
    retransmits += o.retransmits;
    nacks += o.nacks;
    acks += o.acks;
    dups_discarded += o.dups_discarded;
    heal_s += o.heal_s;
    faults += o.faults;
    return *this;
  }
};

void accumulate(async::AsyncLoopStats& a, const async::AsyncLoopStats& b) {
  a.rounds += b.rounds;
  a.messages_sent += b.messages_sent;
  a.stage_rows_sent += b.stage_rows_sent;
  a.probe_rows_sent += b.probe_rows_sent;
  a.blocked_seconds += b.blocked_seconds;
  a.token_probes += b.token_probes;
  a.collective_calls_in_loop += b.collective_calls_in_loop;
}

/// What one rank thread records; each rank writes only its own slot.
struct RankRecord {
  Clock::time_point start, end;  // around the engine run
  double build_load_s = 0;
  vmpi::CommStats before;        // snapshot at the pre-run barrier
  bool aborted = false;
  double insert_cmp = 0;         // result relation trees
  double probe_cmp = 0;          // probed (inner) relation's full tree
  double tuples = 0;             // tuples generated (staged by the fused dedup/agg)
  double relation_bytes = 0;
  async::AsyncLoopStats loop;
};

struct BatchRep {
  bool aborted = false;
  double fixpoint_s = 0;
  double build_load_s = 0;  // slowest rank
  core::RunResult run;      // rank 0's copy; its cross-rank fields agree everywhere
  std::uint64_t result_count = 0;
  std::uint64_t digest = 0;
  std::vector<Tuple> rows;  // gathered result (verify rep only)
  CommDelta comm;           // summed over ranks, engine run only
  double rank_mib_max_over_mean = 0;
  double insert_cmp = 0;
  double probe_cmp = 0;
  double tuples = 0;
  double relation_bytes = 0;
  async::AsyncLoopStats loop;  // summed over ranks
};

using Records = std::array<RankRecord, kRanks>;

/// Run `body` on kRanks threads, then fold the per-rank records into `rep`.
/// A fault that escapes a rank (a peer reached the poisoned world) is an
/// aborted rep, like a typed abort inside the engine.
template <typename Body>
void launch(BatchRep& rep, const vmpi::RunOptions& options, Records& rec, Body&& body) {
  std::vector<vmpi::CommStats> after;
  try {
    vmpi::run_collect(kRanks, options, body, after);
  } catch (const vmpi::FaultError&) {
    rep.aborted = true;
  } catch (const vmpi::WorldAborted&) {
    rep.aborted = true;
  }
  for (const auto& r : rec) rep.aborted = rep.aborted || r.aborted;
  if (rep.aborted) return;

  auto start = rec[0].start;
  auto end = rec[0].end;
  double max_bytes = 0;
  for (std::size_t r = 0; r < rec.size(); ++r) {
    start = std::min(start, rec[r].start);
    end = std::max(end, rec[r].end);
    rep.build_load_s = std::max(rep.build_load_s, rec[r].build_load_s);
    const auto d = CommDelta::between(rec[r].before, after[r]);
    max_bytes = std::max(max_bytes, d.remote_bytes);
    rep.comm += d;
    rep.insert_cmp += rec[r].insert_cmp;
    rep.probe_cmp += rec[r].probe_cmp;
    rep.tuples += rec[r].tuples;
    rep.relation_bytes += rec[r].relation_bytes;
    accumulate(rep.loop, rec[r].loop);
  }
  rep.fixpoint_s = seconds_between(start, end);
  rep.rank_mib_max_over_mean = ratio(max_bytes * kRanks, rep.comm.remote_bytes);
}

/// Pre-run barrier, comm snapshot, then the engine run under a span.  The
/// run's per-iteration phase critical path goes on rank 0's track.
template <typename Run>
core::RunResult timed_run(vmpi::Comm& comm, RankRecord& me, Tracer* tr, const char* name,
                          Run&& run) {
  comm.barrier();
  me.before = comm.stats();
  Span span(tr, comm.rank(), name);
  me.start = Clock::now();
  core::RunResult res = run();
  me.end = Clock::now();
  if (tr != nullptr && comm.rank() == 0 && !res.aborted_fault) {
    tr->phase_counters(0, res.profile, span.start_us(), tr->now_us());
  }
  return res;
}

struct SsspQuery {
  static constexpr const char* kBuild = "queries::build_sssp_program";
  static constexpr const char* kLoad = "queries::load_sssp_facts";
  std::vector<value_t> sources;

  queries::SsspProgram build(vmpi::Comm& comm) const { return queries::build_sssp_program(comm); }
  void load(queries::SsspProgram& p, const graph::Graph& g) const {
    queries::load_sssp_facts(p, g, sources);
  }
  static core::Relation* result(const queries::SsspProgram& p) { return p.spath; }
  static core::Relation* inner(const queries::SsspProgram& p) { return p.edge; }
};

struct CcQuery {
  static constexpr const char* kBuild = "queries::build_cc_program";
  static constexpr const char* kLoad = "queries::load_cc_facts";

  queries::CcProgram build(vmpi::Comm& comm) const { return queries::build_cc_program(comm); }
  void load(queries::CcProgram& p, const graph::Graph& g) const { queries::load_cc_facts(p, g); }
  static core::Relation* result(const queries::CcProgram& p) { return p.cc; }
  static core::Relation* inner(const queries::CcProgram& p) { return p.edge; }
};

/// One rep of a program the suite builds itself (SSSP, CC) on the BSP or
/// the async engine, with the default EngineConfig / AsyncConfig.
template <typename Query>
BatchRep program_rep(const Query& q, const graph::Graph& g, bool use_async,
                     const vmpi::RunOptions& options, Tracer* tr, bool collect) {
  BatchRep rep;
  Records rec;
  launch(rep, options, rec, [&](vmpi::Comm& comm) {
    const int r = comm.rank();
    auto& me = rec[static_cast<std::size_t>(r)];
    Span rep_span(tr, r, "rep");
    const auto t0 = Clock::now();
    auto p = [&] {
      Span s(tr, r, Query::kBuild);
      return q.build(comm);
    }();
    {
      Span s(tr, r, Query::kLoad);
      q.load(p, g);
    }
    me.build_load_s = since(t0);
    // From here on the tree counters see only the engine run.
    for (const auto& rel : p.program->relations()) {
      rel->tree(Version::kFull).reset_counters();
      rel->tree(Version::kDelta).reset_counters();
    }
    const core::RunResult res = timed_run(
        comm, me, tr, use_async ? "async::AsyncEngine::run" : "core::Engine::run", [&] {
          if (use_async) {
            async::AsyncEngine engine(comm);
            auto out = engine.run(*p.program);
            me.loop = engine.loop_stats();
            return out;
          }
          core::Engine engine(comm);
          return engine.run(*p.program);
        });
    if (res.aborted_fault) {
      me.aborted = true;
      return;
    }

    // Read-outs below are the suite's, not the workload's traffic.
    vmpi::StatsPause pause(comm);
    core::Relation* result = Query::result(p);
    const auto count = result->global_size(Version::kFull);
    const auto digest = comm.allreduce<std::uint64_t>(
        local_digest(result->tree(Version::kFull)), vmpi::ReduceOp::kSum);
    auto rows = collect ? result->gather_to_root(0) : std::vector<Tuple>{};
    me.insert_cmp = as_double(result->tree(Version::kFull).comparisons() +
                              result->tree(Version::kDelta).comparisons());
    me.probe_cmp = as_double(Query::inner(p)->tree(Version::kFull).comparisons());
    // The BSP engine reports this rank's staged tuples, the async engine
    // the global total (on every rank).
    if (!use_async || r == 0) {
      for (const auto& s : res.strata) me.tuples += as_double(s.tuples_generated);
    }
    for (const auto& rel : p.program->relations()) {
      me.relation_bytes += as_double(rel->tree(Version::kFull).approx_bytes() +
                                     rel->tree(Version::kDelta).approx_bytes());
    }
    if (r == 0) {
      rep.run = res;
      rep.result_count = count;
      rep.digest = digest;
      rep.rows = std::move(rows);
    }
  });
  return rep;
}

/// One PageRank rep through queries::run_pagerank, which builds and loads
/// its program internally: fact loading is inside the timed window, and
/// the program's trees are out of the suite's reach.
BatchRep pagerank_rep(const graph::Graph& g, std::size_t rounds, Tracer* tr, bool collect) {
  BatchRep rep;
  Records rec;
  launch(rep, {}, rec, [&](vmpi::Comm& comm) {
    const int r = comm.rank();
    auto& me = rec[static_cast<std::size_t>(r)];
    Span rep_span(tr, r, "rep");
    queries::PagerankOptions opts;
    opts.rounds = rounds;
    opts.collect_ranks = collect;
    queries::PagerankResult pr;
    timed_run(comm, me, tr, "queries::run_pagerank", [&] {
      pr = queries::run_pagerank(comm, g, opts);
      return pr.run;
    });
    if (pr.run.aborted_fault) {
      me.aborted = true;
      return;
    }
    for (const auto& s : pr.run.strata) me.tuples += as_double(s.tuples_generated);
    if (r == 0) {
      rep.run = pr.run;
      rep.result_count = pr.ranked_nodes;
      // The exact fixed-point mass identifies the rank vector well enough
      // to catch a rep that diverged from the verified one.
      rep.digest = std::bit_cast<std::uint64_t>(pr.total_mass);
      rep.rows = std::move(pr.ranks);
    }
  });
  return rep;
}

void layer_metrics(Report& rpt, const BatchRep& rep) {
  const auto& p = rep.run.profile;
  const auto& k = rep.run.kernel;
  const auto phase_s = [&](Phase ph) { return p.modelled_seconds[static_cast<std::size_t>(ph)]; };
  const auto phase_b = [&](Phase ph) { return as_double(p.total_bytes[static_cast<std::size_t>(ph)]); };
  const auto ix = [](Phase ph) { return static_cast<std::size_t>(ph); };

  rpt.set("btree.insert_cmp_per_tuple", ratio(rep.insert_cmp, rep.tuples));
  rpt.set("btree.probe_cmp_per_probe", ratio(rep.probe_cmp, as_double(k.probes)));
  rpt.set("relation.dedup_agg_s", phase_s(Phase::kDedupAgg));
  rpt.set("relation.useful_frac", ratio(as_double(rep.result_count), rep.tuples));
  rpt.set("relation.mib", mib(rep.relation_bytes));
  rpt.set("relation.intra_bucket_s", phase_s(Phase::kIntraBucket));
  rpt.set("relation.intra_bucket_mib", mib(phase_b(Phase::kIntraBucket)));
  rpt.set("ra_op.s", phase_s(Phase::kLocalJoin));
  rpt.set("ra_op.probes", as_double(k.probes));
  rpt.set("ra_op.seeks_per_probe", ratio(as_double(k.probe_seeks), as_double(k.probes)));
  rpt.set("ra_op.max_over_mean",
          ratio(as_double(rep.run.kernel_max.probes) * kRanks, as_double(k.probes)));
  rpt.set("exchange_router.s", phase_s(Phase::kAllToAll));
  rpt.set("exchange_router.mib", mib(phase_b(Phase::kAllToAll)));
  rpt.set("exchange_router.rounds", as_double(p.total_exchanges[ix(Phase::kAllToAll)]));
  rpt.set("exchange_router.wait_s", p.total_wait_seconds[ix(Phase::kAllToAll)]);
  rpt.set("engine.iterations", as_double(rep.run.total_iterations));
  rpt.set("engine.other_s", phase_s(Phase::kOther));
  rpt.set("join_planner.s", phase_s(Phase::kPlan));
  rpt.set("join_planner.bytes", phase_b(Phase::kPlan));
  rpt.set("balancer.s", phase_s(Phase::kBalance));
  rpt.set("balancer.mib", mib(phase_b(Phase::kBalance)));
  rpt.set("cost_model.projected_s", core::CostModel{}.project_topology(p));
  rpt.set("vmpi.steps", as_double(p.steps_total()));
  rpt.set("vmpi.collective_calls", rep.comm.collective_calls);
  rpt.set("vmpi.wait_s", rep.comm.wait_s);
  rpt.set("vmpi.rank_mib_max_over_mean", rep.rank_mib_max_over_mean);
  rpt.set("vmpi.p2p_messages", rep.comm.p2p_messages);
  rpt.set("vmpi.bytes_per_p2p_msg", ratio(rep.comm.p2p_bytes, rep.comm.p2p_messages));
  rpt.set("async_engine.rounds", as_double(rep.loop.rounds));
  rpt.set("async_engine.messages", as_double(rep.loop.messages_sent));
  rpt.set("async_engine.probe_rows_sent", as_double(rep.loop.probe_rows_sent));
  rpt.set("async_engine.stage_rows_sent", as_double(rep.loop.stage_rows_sent));
  rpt.set("async_engine.blocked_s", rep.loop.blocked_seconds);
  rpt.set("async_engine.collective_calls_in_loop", as_double(rep.loop.collective_calls_in_loop));
  rpt.set("termination.token_probes", as_double(rep.loop.token_probes));
  rpt.set("reliable.retransmits", rep.comm.retransmits);
  rpt.set("reliable.nacks", rep.comm.nacks);
  rpt.set("reliable.acks_per_data_frame", ratio(rep.comm.acks, rep.comm.p2p_messages));
  rpt.set("reliable.dups_discarded", rep.comm.dups_discarded);
  rpt.set("reliable.heal_s", rep.comm.heal_s);
  rpt.set("fault.injected", rep.comm.faults);
}

struct BatchWorkload {
  /// Draws the input from the workload seed; every timed rep calls it again,
  /// so generation is part of the set-up each rep measures.
  std::function<graph::Graph()> make;
  std::function<BatchRep(const graph::Graph&, Tracer*, bool collect)> rep;
  std::function<bool(const std::vector<Tuple>&, std::string&)> oracle;
  /// The BSP engine repeats its iteration count exactly; the async engine's
  /// local round counts depend on message timing.
  bool deterministic_iterations = true;
};

/// `g0` is the workload's input as `w.make` draws it; the verify rep runs
/// on it and `w.oracle` checks against it.
Report run_batch(const RunConfig& cfg, const graph::Graph& g0, const BatchWorkload& w) {
  Report rpt;
  const BatchRep verify = w.rep(g0, nullptr, /*collect=*/true);
  rpt.attempted = 1;
  if (verify.aborted) {
    rpt.note = "verify rep aborted";
  } else {
    rpt.oracle_ok = w.oracle(verify.rows, rpt.note);
  }
  if (!rpt.oracle_ok) rpt.failed = 1;
  const auto agrees = [&](const BatchRep& r) {
    return !r.aborted && r.result_count == verify.result_count && r.digest == verify.digest &&
           (!w.deterministic_iterations ||
            r.run.total_iterations == verify.run.total_iterations);
  };

  // Many short reps summarised by medians: a shared host's slow stretches
  // last about a second, which moves one long rep but not a median over
  // many short ones.
  std::vector<double> fixpoint, remote, gen, build_load, setup;
  BatchRep last;
  const std::size_t min_reps = cfg.smoke ? 2 : kMinTimedReps;
  const auto t0 = Clock::now();
  for (std::size_t reps = 0; reps < min_reps || since(t0) < cfg.seconds; ++reps) {
    const auto gen_start = Clock::now();
    const graph::Graph g = w.make();
    const double gen_s = since(gen_start);
    BatchRep r = w.rep(g, nullptr, false);
    ++rpt.attempted;
    if (!agrees(r)) {
      ++rpt.failed;
      continue;
    }
    fixpoint.push_back(r.fixpoint_s);
    remote.push_back(mib(r.comm.remote_bytes));
    gen.push_back(gen_s);
    build_load.push_back(r.build_load_s);
    setup.push_back(gen_s + r.build_load_s);
    last = std::move(r);
  }
  rpt.set("peak_rss_mib", peak_rss_mib());
  rpt.set_median("fixpoint_s", fixpoint);
  rpt.set_median("remote_mib", remote);
  rpt.set_median("setup_s", setup);
  rpt.set_median("graph.gen_s", gen);
  rpt.set_median("btree.load_s", build_load);

  if (cfg.tracer == nullptr) {
    layer_metrics(rpt, last);
    return rpt;
  }
  // Per-layer numbers come from the traced rep; end-to-end ones never do.
  const BatchRep traced = w.rep(g0, cfg.tracer, false);
  ++rpt.attempted;
  if (!agrees(traced)) {
    ++rpt.failed;
    return rpt;
  }
  layer_metrics(rpt, traced);
  rpt.set("trace_overhead_frac", ratio(traced.fixpoint_s, rpt.get("fixpoint_s").value) - 1);
  return rpt;
}

// -- batch workloads -----------------------------------------------------------

Report sssp_twitter(const RunConfig& cfg) {
  const auto make = [&] { return twitter_rmat(cfg.smoke ? 10 : 13, 10, cfg.seed); };
  const graph::Graph g0 = make();
  const SsspQuery q{g0.pick_hubs(16)};
  return run_batch(cfg, g0,
                   {make,
                    [&](const graph::Graph& g, Tracer* tr, bool collect) {
                      return program_rep(q, g, false, {}, tr, collect);
                    },
                    [&](const std::vector<Tuple>& rows, std::string& note) {
                      return sssp_oracle(g0, q.sources, rows, note);
                    }});
}

/// The mesh workloads use a fixed-shape grid; the seed draws its edge
/// weights, which CC ignores, so their runs differ by timing noise alone.
Report cc_mesh_on(const RunConfig& cfg, bool use_async) {
  const std::uint64_t side = cfg.smoke ? 24 : 64;
  const auto make = [&] { return graph::make_grid(side, side, 10, cfg.seed); };
  const graph::Graph g0 = make();
  return run_batch(cfg, g0,
                   {make,
                    [&](const graph::Graph& g, Tracer* tr, bool collect) {
                      return program_rep(CcQuery{}, g, use_async, {}, tr, collect);
                    },
                    [&](const std::vector<Tuple>& rows, std::string& note) {
                      return cc_oracle(g0, rows, note);
                    },
                    !use_async});
}

Report cc_mesh(const RunConfig& cfg) { return cc_mesh_on(cfg, false); }
Report cc_mesh_async(const RunConfig& cfg) { return cc_mesh_on(cfg, true); }

Report pagerank_rmat(const RunConfig& cfg) {
  constexpr std::size_t kRounds = 20;
  const auto make = [&] {
    graph::Graph g =
        graph::make_rmat({.scale = cfg.smoke ? 10 : 14, .edge_factor = 8, .seed = kShapeSeed});
    const auto id = node_ids(g.num_nodes, cfg.seed);
    return relabeled(std::move(g), id);
  };
  const graph::Graph g0 = make();
  return run_batch(cfg, g0,
                   {make,
                    [&](const graph::Graph& g, Tracer* tr, bool collect) {
                      return pagerank_rep(g, kRounds, tr, collect);
                    },
                    [&](const std::vector<Tuple>& rows, std::string& note) {
                      return pagerank_oracle(g0, kRounds, rows, note);
                    }});
}

Report sssp_lossy_async(const RunConfig& cfg) {
  const auto make = [&] { return twitter_rmat(cfg.smoke ? 9 : 13, 10, cfg.seed); };
  const graph::Graph g0 = make();
  const SsspQuery q{g0.pick_hubs(8)};
  vmpi::RunOptions options;
  options.fault.seed = cfg.seed * 0x9e3779b97f4a7c15ULL + 11;
  options.fault.drop_prob = 0.002;
  options.fault.dup_prob = 0.01;
  options.fault.delay_prob = 0.01;
  options.fault.corrupt_prob = 0.005;
  // A frame the default retry budget cannot heal ends the rep with a typed
  // abort (counted as failed) instead of a hang.
  options.watchdog_seconds = 30;
  return run_batch(cfg, g0,
                   {make,
                    [&](const graph::Graph& g, Tracer* tr, bool collect) {
                      return program_rep(q, g, true, options, tr, collect);
                    },
                    [&](const std::vector<Tuple>& rows, std::string& note) {
                      return sssp_oracle(g0, q.sources, rows, note);
                    },
                    false});
}

// -- serve-stream --------------------------------------------------------------

struct Mutation {
  bool insert = true;
  Tuple row;  // edge (src, dst, weight), the edge relation's stored order
};

/// The mutation stream over `shape`, two inserts to one delete, with node
/// ids mapped through `id` like the graph's.  Deletes remove distinct
/// original edges in a fixed shuffled order; inserts are random edges that
/// never coincide with an original edge, so the engine's
/// deletes-before-inserts order within a batch cannot diverge from stream
/// order.
std::vector<Mutation> mutation_stream(const graph::Graph& shape, const std::vector<value_t>& id,
                                      std::size_t count) {
  graph::Rng rng(kShapeSeed * 0x2545f4914f6cdd1dULL + 3);
  std::vector<std::size_t> order(shape.edges.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::unordered_set<Tuple, storage::TupleHash> original;
  for (const auto& e : shape.edges) original.insert(Tuple{e.src, e.dst, e.weight});

  std::vector<Mutation> out;
  out.reserve(count);
  std::size_t next_delete = 0;
  while (out.size() < count) {
    if (out.size() % 3 == 2) {
      if (next_delete == order.size()) break;
      const auto& e = shape.edges[order[next_delete++]];
      out.push_back({false, Tuple{id[e.src], id[e.dst], e.weight}});
      continue;
    }
    Tuple t;
    do {
      t = Tuple{rng.below(shape.num_nodes), rng.below(shape.num_nodes), 1 + rng.below(100)};
    } while (original.contains(t));
    out.push_back({true, Tuple{id[t[0]], id[t[1]], t[2]}});
  }
  return out;
}

/// The graph after applying muts[0, n) in order, with set semantics like
/// the edge relation.
graph::Graph mutated(const graph::Graph& g, const std::vector<Mutation>& muts, std::size_t n) {
  std::unordered_set<Tuple, storage::TupleHash> edges;
  for (const auto& e : g.edges) edges.insert(Tuple{e.src, e.dst, e.weight});
  for (std::size_t i = 0; i < n; ++i) {
    if (muts[i].insert) {
      edges.insert(muts[i].row);
    } else {
      edges.erase(muts[i].row);
    }
  }
  graph::Graph out;
  out.num_nodes = g.num_nodes;
  for (const auto& t : edges) out.edges.push_back({t[0], t[1], t[2]});
  return out;
}

/// This rank's share of muts[from, to): each mutation is contributed by
/// exactly one rank.
serving::UpdateBatch shard(const std::vector<Mutation>& muts, std::size_t from, std::size_t to,
                           int rank) {
  serving::RelationDelta d;
  d.relation = "edge";
  for (std::size_t i = from; i < to; ++i) {
    if (static_cast<int>(i % kRanks) != rank) continue;
    (muts[i].insert ? d.inserts : d.deletes).push_back(muts[i].row);
  }
  serving::UpdateBatch batch;
  batch.push_back(std::move(d));
  return batch;
}

/// What the serving session records; rank 0's clock is authoritative.
struct OpenLoopLog {
  std::vector<double> apply_ms, freshness_ms, wait_ms;
  double mutations = 0;
  double tail_iterations = 0;
  double lookup_s = 0;
  double keys = 0;
  double wall_s = 0;
};

struct ServeTotals {
  double mutations = 0;
  double tuples_derived = 0;
  double retracted = 0;
  double recovered = 0;
  double applies = 0;
  double lookups = 0;
  double failed = 0;  // aborted applies, lookup batches with missing answers
};

Report serve_stream(const RunConfig& cfg) {
  constexpr double kRate = 4000;  // mutations per second, open loop
  constexpr std::size_t kLookupKeys = 1024;
  constexpr std::size_t kCapacityBatch = 64;
  constexpr int kSetups = 7;
  // The open-loop and capacity phases alternate in rounds of about a second,
  // so both sample the whole run rather than one stretch of it.  The
  // capacity phase is a fixed number of batches (about 0.3 s of the round
  // on 4 cores), so every run applies the same mutations and ends with the
  // same graph however fast the host is.
  const int rounds = cfg.smoke ? 2 : std::max(1, static_cast<int>(std::lround(cfg.seconds)));
  const double open_s = 0.7 * cfg.seconds / rounds;
  const std::size_t capacity_batches = cfg.smoke ? 2 : 32;
  const double trace_s = cfg.smoke ? 0.1 : 1.0;

  const int scale = cfg.smoke ? 10 : 13;
  const auto make = [&] { return twitter_rmat(scale, 10, cfg.seed); };
  const graph::Graph shape = twitter_shape(scale, 10);
  const auto id = node_ids(shape.num_nodes, cfg.seed);
  const graph::Graph g0 = relabeled(shape, id);
  const auto hubs = g0.pick_hubs(4);
  const auto muts = mutation_stream(
      shape, id,
      static_cast<std::size_t>(kRate * (open_s * rounds + 2 * trace_s)) + 3 * rounds +
          kCapacityBatch * capacity_batches * rounds);

  std::vector<double> gen_s, build_load_s, start_s, setup_s;
  OpenLoopLog open, control, traced;
  ServeTotals totals;
  std::vector<double> capacity_apply_s;
  std::array<std::vector<double>, kRanks> capacity_bytes;  // per batch, per rank
  std::array<double, kRanks> apply_bytes{};               // every apply, per rank
  double capacity_mutations = 0, capacity_wall_s = 0, rss = 0;
  std::size_t applied = 0;
  std::vector<Tuple> final_rows;

  // Each session sets up from scratch; the first kSetups - 1 only measure
  // set-up, the last one serves.
  for (int setup = 0; setup < kSetups; ++setup) {
    const bool live = setup == kSetups - 1;
    const auto g_start = Clock::now();
    const graph::Graph g = make();
    gen_s.push_back(since(g_start));
    vmpi::run(kRanks, [&](vmpi::Comm& comm) {
      const int r = comm.rank();
      const bool lead = r == 0;
      const auto t0 = Clock::now();
      auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, {});
      queries::load_sssp_facts(prog, g, hubs);
      const double loaded = since(t0);
      const auto t1 = Clock::now();
      srv.start();
      if (lead) {
        build_load_s.push_back(loaded);
        start_s.push_back(since(t1));
        setup_s.push_back(gen_s.back() + loaded + start_s.back());
      }
      if (!live) return;

      // Rank 0 owns the clock; every rank follows its decisions.
      const auto agree = [&](std::uint64_t v) {
        vmpi::StatsPause pause(comm);
        return comm.bcast_value<std::uint64_t>(0, v);
      };
      std::size_t next = 0;      // first mutation not yet applied
      double last_bytes = 0;     // remote bytes this rank sent in the last apply
      const auto apply = [&](std::size_t to, Tracer* tr) {
        const auto batch = shard(muts, next, to, r);
        const auto before = comm.stats().total_remote_bytes();
        Span s(tr, r, "serving::ServingEngine::apply_updates");
        const auto res = srv.apply_updates(batch);
        last_bytes = as_double(comm.stats().total_remote_bytes() - before);
        apply_bytes[static_cast<std::size_t>(r)] += last_bytes;
        if (lead) {
          totals.mutations += as_double(to - next);
          totals.tuples_derived += as_double(res.tuples_derived);
          totals.retracted += as_double(res.retracted);
          totals.recovered += as_double(res.recovered);
          totals.applies += 1;
          totals.failed += res.aborted_fault ? 1 : 0;
        }
        next = to;
        return res;
      };

      // Open loop: mutation j of the phase is due at j / kRate.  Each
      // service cycle applies everything due, then serves one lookup batch.
      const auto open_loop = [&](double duration, OpenLoopLog& log, Tracer* tr) {
        constexpr std::uint64_t kStop = ~std::uint64_t{0};
        const std::size_t base = next;
        const auto origin = Clock::now();
        for (std::uint64_t cycle = 0;; ++cycle) {
          std::uint64_t due = 0;
          if (lead) {
            const double now = since(origin);
            due = now >= duration ? kStop
                                  : std::min<std::uint64_t>(
                                        static_cast<std::uint64_t>(now * kRate) + 1,
                                        muts.size() - base);
          }
          due = agree(due);
          if (due == kStop) break;
          if (base + due > next) {
            const std::size_t first = next - base;
            const auto a0 = Clock::now();
            const auto res = apply(base + due, tr);
            const auto a1 = Clock::now();
            if (lead) {
              log.apply_ms.push_back(seconds_between(a0, a1) * 1e3);
              log.mutations += as_double(due - first);
              log.tail_iterations += as_double(res.tail_iterations);
              for (std::size_t j = first; j < due; ++j) {
                const double due_s = as_double(j) / kRate;
                log.wait_ms.push_back((seconds_between(origin, a0) - due_s) * 1e3);
                log.freshness_ms.push_back((seconds_between(origin, a1) - due_s) * 1e3);
              }
            }
          }
          graph::Rng rng(cfg.seed * 1000003 + cycle);
          std::vector<Tuple> keys;
          keys.reserve(kLookupKeys);
          for (std::size_t i = 0; i < kLookupKeys; ++i) {
            keys.push_back(Tuple{value_t{rng.below(g.num_nodes)}});
          }
          const auto l0 = Clock::now();
          std::size_t answered = 0;
          {
            Span s(tr, r, "serving::ServingEngine::lookup_batch");
            answered = srv.lookup_batch("spath", keys).size();
          }
          if (lead) {
            log.lookup_s += since(l0);
            log.keys += as_double(kLookupKeys);
            totals.lookups += 1;
            totals.failed += answered == keys.size() ? 0 : 1;
          }
        }
        if (lead) log.wall_s += since(origin);
      };

      // Capacity: back-to-back fixed-size batches, no lookups.
      const auto capacity = [&] {
        const auto origin = Clock::now();
        const std::size_t first = next;
        for (std::size_t b = 0; b < capacity_batches && next + kCapacityBatch <= muts.size(); ++b) {
          const auto a0 = Clock::now();
          apply(next + kCapacityBatch, nullptr);
          const auto a1 = Clock::now();
          capacity_bytes[static_cast<std::size_t>(r)].push_back(last_bytes);
          if (lead) capacity_apply_s.push_back(seconds_between(a0, a1));
        }
        if (lead) {
          capacity_wall_s += since(origin);
          capacity_mutations += as_double(next - first);
        }
      };

      for (int round = 0; round < rounds; ++round) {
        open_loop(open_s, open, nullptr);
        capacity();
      }
      if (lead) rss = peak_rss_mib();

      if (cfg.tracer != nullptr) {
        // An untraced segment of the same length right before the traced
        // one, so the overhead compares like with like.
        open_loop(trace_s, control, nullptr);
        Span s(cfg.tracer, r, "traced open loop");
        open_loop(trace_s, traced, cfg.tracer);
      }
      auto rows = srv.lookup("spath", {});
      if (lead) {
        final_rows = std::move(rows);
        applied = next;
      }
    });
  }

  Report rpt;
  rpt.attempted = static_cast<std::uint64_t>(totals.applies + totals.lookups);
  rpt.failed = static_cast<std::uint64_t>(totals.failed);
  rpt.oracle_ok = sssp_oracle(mutated(g0, muts, applied), hubs, final_rows, rpt.note);
  rpt.note += " after " + std::to_string(applied) + " mutations";

  std::vector<double> cap_mib(capacity_apply_s.size(), 0);
  for (const auto& per_rank : capacity_bytes) {
    for (std::size_t b = 0; b < cap_mib.size() && b < per_rank.size(); ++b) {
      cap_mib[b] += mib(per_rank[b]);
    }
  }
  double all_bytes = 0;
  for (const double b : apply_bytes) all_bytes += b;

  // Capacity batches have a fixed size, so their per-batch time and volume
  // are the serving analogue of a batch workload's fixpoint.
  rpt.set_median("fixpoint_s", capacity_apply_s);
  rpt.set_median("remote_mib", cap_mib);
  rpt.set_median("setup_s", setup_s);
  rpt.set("peak_rss_mib", rss);
  rpt.set_median("graph.gen_s", gen_s);
  rpt.set_median("btree.load_s", build_load_s);
  rpt.set_median("serving.start_s", start_s);

  const auto n_fresh = open.freshness_ms.size();
  rpt.set("serving.freshness_p50_ms", percentile(open.freshness_ms, 0.5), n_fresh);
  rpt.set("serving.freshness_p99_ms", percentile(open.freshness_ms, 0.99), n_fresh);
  rpt.set("serving.queue_wait_p99_ms", percentile(open.wait_ms, 0.99), n_fresh);
  rpt.set("serving.lookups_per_s", ratio(open.keys, open.wall_s));
  rpt.set("serving.lookup_us_per_key", ratio(open.lookup_s * 1e6, open.keys));
  rpt.set("serving.updates_per_s", ratio(capacity_mutations, capacity_wall_s),
          capacity_apply_s.size());
  const auto n_apply = open.apply_ms.size();
  rpt.set("serving.apply_p50_ms", percentile(open.apply_ms, 0.5), n_apply);
  rpt.set("serving.apply_p99_ms", percentile(open.apply_ms, 0.99), n_apply);
  rpt.set("serving.batch_rows_mean", ratio(open.mutations, as_double(n_apply)), n_apply);
  rpt.set("serving.tail_iterations_mean", ratio(open.tail_iterations, as_double(n_apply)),
          n_apply);
  rpt.set("serving.tuples_derived_per_mutation", ratio(totals.tuples_derived, totals.mutations));
  rpt.set("serving.recovered_over_retracted", ratio(totals.recovered, totals.retracted));
  rpt.set("serving.kib_per_mutation", ratio(all_bytes / 1024.0, totals.mutations));
  if (cfg.tracer != nullptr) {
    rpt.set("trace_overhead_frac",
            ratio(median(traced.apply_ms), median(control.apply_ms)) - 1, traced.apply_ms.size());
  }
  return rpt;
}

constexpr Workload kWorkloads[] = {
    {"sssp-twitter",
     "16-hub SSSP on a skewed RMAT: local join and MIN dedup/insert dominate, sync is cheap",
     sssp_twitter},
    {"cc-mesh", "CC on a 64x64 grid: 127 tiny iterations, so fixed per-iteration costs dominate",
     cc_mesh},
    {"cc-mesh-async",
     "the cc-mesh input on the async engine: p2p delta propagation and Safra termination",
     cc_mesh_async},
    {"pagerank-rmat",
     "20 PageRank rounds: SUM refresh instead of lattice ascent, constant router volume",
     pagerank_rmat},
    {"sssp-lossy-async",
     "async SSSP under seeded drop/dup/delay/corrupt faults that the reliable channel heals",
     sssp_lossy_async},
    {"serve-stream",
     "resident SSSP service: open-loop mutations at 4000/s with lookups, alternating with capacity",
     serve_stream},
};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

}  // namespace paralagg::suite
