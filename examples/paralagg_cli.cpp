// paralagg_cli: run any built-in query on an edge-list file (or a named
// synthetic graph) from the command line — the "downstream user" entry
// point.
//
//   paralagg_cli <query> [options]
//
//   queries:  sssp | cc | tc | pagerank | triangles | lsp | sssp-tree
//             datalog  (run a .dl program through the declarative frontend)
//   datalog options:
//     --program FILE      Datalog source (see src/frontend/ast.hpp)
//     --facts REL=FILE    load whitespace-separated rows into input REL
//                         (repeatable); .dl inline facts also work
//   options:
//     --graph FILE        text edge list: "src dst [weight]" per line
//     --synthetic NAME    rmat | grid | chain | er | twitter (default rmat)
//     --scale N           synthetic size parameter, log2 of the node count
//                         (default 12; must be 1..40)
//     --ranks N           virtual MPI ranks (default 4)
//     --sources a,b,c     start nodes (default: 3 hubs)
//     --rounds N          pagerank rounds (default 20)
//     --sub-buckets N     edge relation fan-out (default 1)
//     --engine MODE       bsp (default) | async — async runs the recursive
//                         loop with nonblocking delta propagation + Safra
//                         termination (lattice queries; pagerank needs
//                         --staleness to opt into stale-synchronous mode)
//     --async-batch N     async mode: rows buffered per destination before
//                         an eager send (default 128; must be >= 1)
//     --staleness N       async mode: enable the stale-synchronous protocol
//                         for bounded-round queries (pagerank) with an
//                         epoch lead window of N (0 = honest lockstep).
//                         Exactness never depends on N — epoch-tagged
//                         contributions fold exactly once at any setting
//     --baseline          disable dynamic join order + balancing
//     --checkpoint FILE   checkpoint manifest path (with --checkpoint-every)
//     --checkpoint-every N  write the manifest every N loop iterations
//                         (BSP engine; 0 = off, the default)
//     --resume [FILE]     restart from a checkpoint manifest written by an
//                         earlier run of the SAME query/graph/options; any
//                         rank count works.  With --serve the FILE is
//                         omitted (the manifest comes from --checkpoint)
//                         and the flag demands a warm start: exit nonzero
//                         if no manifest exists instead of silently
//                         recomputing cold
//     --serve             serving mode (sssp | cc): bring the fixpoint up
//                         (cold, or warm from --checkpoint), then apply
//                         --update-batch files in order and answer
//                         --lookup queries from the resident indexes.
//                         --checkpoint-every N here counts update batches
//                         between rolling manifests, not loop iterations
//     --update-batch FILE edge mutations, one per line: "+ u v [w]" to
//                         insert, "- u v [w]" to delete (cc ignores w and
//                         symmetrizes both directions).  Repeatable;
//                         applied in order (serve mode only)
//     --lookup a[,b,...]  point lookup by key prefix against the query's
//                         output relation (spath | cc), answered after all
//                         batches.  Repeatable (serve mode only)
//     --watchdog SECONDS  fail blocked waits with a typed timeout instead
//                         of hanging (0 = off, the default)
//     --retry-max N       retransmit budget per frame for the self-healing
//                         transport (default 5; 0 = sequence + CRC, abort on
//                         first damage: injected faults are still detected,
//                         never healed)
//     --retry-backoff S   seconds before the first retransmit; attempt k
//                         waits S * 2^k (default 0.05; must be > 0)
//     --retry-deadline S  hard per-frame ceiling before the retry budget
//                         escalates to a typed abort (default 8; must be > 0)
//     --nodes N           group the ranks into N modeled "nodes" for the
//                         topology: locality-split byte accounting and the
//                         hierarchical exchange (0 = flat, the default)
//     --topology MODE     flat (default) | hier — hier routes the tuple
//                         exchange through per-node aggregator ranks
//                         (needs --nodes >= 1 to group ranks)
//     --out FILE          write result tuples as text
//
// Examples:
//   paralagg_cli sssp --synthetic twitter --scale 13 --ranks 8 --sources 0
//   paralagg_cli cc --graph my_edges.txt --ranks 16 --out components.txt

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "paralagg/paralagg.hpp"

namespace {

using namespace paralagg;

struct Args {
  std::string query;
  std::string program_file;
  std::vector<std::pair<std::string, std::string>> fact_files;  // rel -> path
  std::string graph_file;
  std::string synthetic = "rmat";
  int scale = 12;
  int ranks = 4;
  std::vector<core::value_t> sources;
  std::size_t rounds = 20;
  int sub_buckets = 1;
  bool use_async = false;
  std::size_t async_batch = 128;
  bool ssp = false;  // --staleness given: stale-synchronous mode
  std::size_t staleness = 1;
  bool baseline = false;
  std::string checkpoint_file;
  std::size_t checkpoint_every = 0;
  std::string resume_file;
  bool resume_required = false;  // bare --resume (serve mode)
  bool serve = false;
  std::vector<std::string> update_batches;
  std::vector<std::vector<core::value_t>> lookups;
  double watchdog_seconds = 0;
  vmpi::RetryPolicy retry{};  // self-healing transport budget (reliable.hpp)
  std::uint64_t skew_threshold = 0;  // 0 = heavy-hitter routing off
  std::size_t skew_max_keys = 16;
  int nodes = 0;
  std::string topology = "flat";
  std::string out_file;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: paralagg_cli <sssp|cc|tc|pagerank|triangles|lsp|sssp-tree> "
               "[--graph FILE | --synthetic NAME] [--scale N] [--ranks N]\n"
               "       [--sources a,b,c] [--rounds N] [--sub-buckets N]\n"
               "       [--engine bsp|async] [--async-batch N] [--staleness N] [--baseline]\n"
               "       [--checkpoint FILE --checkpoint-every N] [--resume [FILE]]\n"
               "       [--serve] [--update-batch FILE]... [--lookup a,b,...]...\n"
               "       [--skew-threshold N] [--skew-max-keys N]\n"
               "       [--watchdog SECONDS] [--retry-max N] [--retry-backoff S]\n"
               "       [--retry-deadline S] [--nodes N] [--topology flat|hier]\n"
               "       [--out FILE]\n";
  std::exit(2);
}

/// The value of numeric flag `flag`: the whole token must parse as a T
/// (and be finite, for floating point), or the run stops with usage.
template <typename T>
T number(const std::string& flag, const std::string& tok) {
  T v{};
  const char* const end = tok.data() + tok.size();
  const auto [stop, ec] = std::from_chars(tok.data(), end, v);
  bool ok = ec == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) usage((flag + " expects a number, got '" + tok + "'").c_str());
  return v;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.query = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--program") {
      args.program_file = next();
    } else if (flag == "--facts") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos) usage("--facts expects REL=FILE");
      args.fact_files.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (flag == "--graph") {
      args.graph_file = next();
    } else if (flag == "--synthetic") {
      args.synthetic = next();
    } else if (flag == "--scale") {
      // Every synthetic generator shifts 1 << scale: a negative or >= 64
      // shift is undefined, and 2^40 nodes is far beyond what an
      // in-process run can hold.
      args.scale = number<int>(flag, next());
      if (args.scale < 1 || args.scale > 40) usage("--scale must be in 1..40");
    } else if (flag == "--ranks") {
      args.ranks = number<int>(flag, next());
    } else if (flag == "--sources") {
      std::istringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        args.sources.push_back(number<core::value_t>(flag, tok));
      }
    } else if (flag == "--rounds") {
      args.rounds = number<std::size_t>(flag, next());
    } else if (flag == "--sub-buckets") {
      args.sub_buckets = number<int>(flag, next());
    } else if (flag == "--engine") {
      const std::string mode = next();
      if (mode == "async") {
        args.use_async = true;
      } else if (mode != "bsp") {
        usage(("unknown engine " + mode + " (expected bsp or async)").c_str());
      }
    } else if (flag == "--async-batch") {
      args.async_batch = number<std::size_t>(flag, next());
      if (args.async_batch == 0) {
        usage("--async-batch must be >= 1 (a zero-row batch never sends)");
      }
    } else if (flag == "--staleness") {
      // 0 is legal: honest lockstep (every epoch confirmed ring-wide before
      // the next scan).  The flag itself is what opts into SSP.
      args.ssp = true;
      args.staleness = number<std::size_t>(flag, next());
    } else if (flag == "--baseline") {
      args.baseline = true;
    } else if (flag == "--checkpoint") {
      args.checkpoint_file = next();
    } else if (flag == "--checkpoint-every") {
      args.checkpoint_every = number<std::size_t>(flag, next());
    } else if (flag == "--resume") {
      // The FILE is optional: bare --resume (next token is another flag,
      // or nothing) demands a warm start in serve mode.
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        args.resume_required = true;
      } else {
        args.resume_file = argv[++i];
      }
    } else if (flag == "--serve") {
      args.serve = true;
    } else if (flag == "--update-batch") {
      args.update_batches.push_back(next());
    } else if (flag == "--lookup") {
      std::istringstream ss(next());
      std::string tok;
      std::vector<core::value_t> key;
      while (std::getline(ss, tok, ',')) key.push_back(number<core::value_t>(flag, tok));
      if (key.empty()) usage("--lookup expects a,b,... key values");
      args.lookups.push_back(std::move(key));
    } else if (flag == "--watchdog") {
      args.watchdog_seconds = number<double>(flag, next());
    } else if (flag == "--retry-max") {
      // 0 is legal: sequence + CRC, abort on first damage (fail-stop).
      args.retry.max_attempts = number<std::uint32_t>(flag, next());
    } else if (flag == "--retry-backoff") {
      args.retry.base_backoff = number<double>(flag, next());
      if (args.retry.base_backoff <= 0) {
        usage("--retry-backoff must be > 0 (use --retry-max 0 to disable "
              "retransmission)");
      }
    } else if (flag == "--retry-deadline") {
      args.retry.deadline = number<double>(flag, next());
      if (args.retry.deadline <= 0) {
        usage("--retry-deadline must be > 0 (use --retry-max 0 to disable "
              "retransmission)");
      }
    } else if (flag == "--skew-threshold") {
      args.skew_threshold = number<std::uint64_t>(flag, next());
      if (args.skew_threshold == 0) {
        usage("--skew-threshold must be >= 1 (omit the flag to disable)");
      }
    } else if (flag == "--skew-max-keys") {
      args.skew_max_keys = number<std::size_t>(flag, next());
      if (args.skew_max_keys == 0) usage("--skew-max-keys must be >= 1");
    } else if (flag == "--nodes") {
      args.nodes = number<int>(flag, next());
    } else if (flag == "--topology") {
      args.topology = next();
      if (args.topology != "flat" && args.topology != "hier") {
        usage(("unknown topology " + args.topology + " (expected flat or hier)").c_str());
      }
    } else if (flag == "--out") {
      args.out_file = next();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

graph::Graph load_graph(const Args& args) {
  if (!args.graph_file.empty()) {
    return graph::read_edge_list(args.graph_file, args.graph_file);
  }
  if (args.synthetic == "rmat") {
    return graph::make_rmat({.scale = args.scale, .edge_factor = 8});
  }
  if (args.synthetic == "twitter") return graph::make_twitter_like(args.scale, 10);
  if (args.synthetic == "grid") {
    const auto side = static_cast<std::uint64_t>(1) << (args.scale / 2);
    return graph::make_grid(side, side);
  }
  if (args.synthetic == "chain") {
    return graph::make_chain(static_cast<std::uint64_t>(1) << args.scale);
  }
  if (args.synthetic == "er") {
    const auto n = static_cast<std::uint64_t>(1) << args.scale;
    return graph::make_erdos_renyi(n, n * 8);
  }
  usage(("unknown synthetic graph " + args.synthetic).c_str());
}

void write_rows(const std::string& path, const std::vector<core::Tuple>& rows,
                const char* header) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out << "# " << header << "\n";
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) out << (c ? " " : "") << row[c];
    out << "\n";
  }
  std::cout << rows.size() << " rows written to " << path << "\n";
}

vmpi::RunOptions run_options(const Args& args) {
  vmpi::RunOptions ropts;
  ropts.watchdog_seconds = args.watchdog_seconds;
  ropts.retry = args.retry;
  ropts.topology = vmpi::Topology::grouped(args.ranks, args.nodes);
  return ropts;
}

void report(const core::RunResult& run) {
  std::cout << "iterations " << run.total_iterations << ", wall " << run.wall_seconds
            << " s, remote " << run.comm_total.total_remote_bytes() / 1024 << " KiB ("
            << run.comm_total.total_cross_node_bytes() / 1024 << " KiB cross-node), "
            << "steps " << run.comm_total.total_steps() << ", "
            << "modelled parallel " << run.profile.modelled_total() << " s, "
            << "topo-projected " << core::CostModel{}.project_topology(run.profile) << " s, "
            << "router rows sent " << run.router.rows_sent << " (" << run.router.rows_combined
            << " combined, " << run.router.rows_dominated << " dominated)\n";
  if (run.aborted_tuple_limit) {
    std::cerr << "WARNING: tuple limit hit — the run was truncated and did NOT reach "
                 "its fixpoint; results below are partial\n";
  }
  if (run.aborted_fault) {
    std::cerr << "ERROR: run aborted on a detected fault: " << run.fault_what << "\n";
  }
  if (run.resumed) std::cout << "(resumed from checkpoint)\n";
}

}  // namespace

std::vector<core::Tuple> read_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read facts file " << path << "\n";
    std::exit(1);
  }
  std::vector<core::Tuple> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    core::Tuple t;
    core::value_t v = 0;
    while (ss >> v) t.push_back(v);
    if (!t.empty()) rows.push_back(std::move(t));
  }
  return rows;
}

int run_datalog(const Args& args) {
  if (args.program_file.empty()) usage("datalog mode needs --program FILE");
  std::ifstream in(args.program_file);
  if (!in) {
    std::cerr << "cannot read " << args.program_file << "\n";
    return 1;
  }
  std::stringstream src;
  src << in.rdbuf();

  frontend::CompiledProgram prog;
  try {
    prog = frontend::CompiledProgram::compile(src.str());
  } catch (const frontend::FrontendError& e) {
    std::cerr << args.program_file << ":" << e.what() << "\n";
    return 1;
  }

  std::map<std::string, std::vector<core::Tuple>> facts;
  for (const auto& [rel, path] : args.fact_files) facts[rel] = read_rows(path);

  vmpi::run(args.ranks, run_options(args), [&](vmpi::Comm& comm) {
    auto inst = prog.instantiate(comm, args.sub_buckets);
    for (const auto& [rel, rows] : facts) {
      // Round-robin slice so every rank contributes a share.
      std::vector<core::Tuple> slice;
      for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < rows.size();
           i += static_cast<std::size_t>(comm.size())) {
        slice.push_back(rows[i]);
      }
      inst.load(rel, slice);
    }
    core::EngineConfig cfg;
    if (args.baseline) cfg = core::baseline_config();
    if (args.topology == "hier") cfg.exchange = core::ExchangeAlgorithm::kHierarchical;
    const auto result = inst.run(cfg);
    if (comm.is_root()) {
      report(result);
      for (const auto& rp : prog.relations()) {
        if (!rp.is_output) continue;
        std::cout << rp.name << ": " << inst.size(rp.name) << " tuples\n";
      }
      if (!args.out_file.empty()) {
        for (const auto& rp : prog.relations()) {
          if (rp.is_output) {
            write_rows(args.out_file, inst.gather(rp.name), rp.name.c_str());
            break;
          }
        }
      }
    } else {
      for (const auto& rp : prog.relations()) {
        if (!rp.is_output) continue;
        (void)inst.size(rp.name);  // collective
      }
      if (!args.out_file.empty()) {
        for (const auto& rp : prog.relations()) {
          if (rp.is_output) {
            (void)inst.gather(rp.name);  // collective
            break;
          }
        }
      }
    }
  });
  return 0;
}

namespace {

void run_query(const Args& args, const graph::Graph& g, const queries::QueryTuning& tuning,
               const std::vector<core::value_t>& sources) {
  const vmpi::RunOptions ropts = run_options(args);
  vmpi::run(args.ranks, ropts, [&](vmpi::Comm& comm) {
    const bool root = comm.is_root();
    if (args.query == "sssp") {
      queries::SsspOptions opts;
      opts.sources = sources;
      opts.tuning = tuning;
      opts.collect_distances = !args.out_file.empty();
      const auto r = run_sssp(comm, g, opts);
      if (root) {
        std::cout << "sssp: " << r.path_count << " (source, node) distances\n";
        report(r.run);
        if (!args.out_file.empty()) write_rows(args.out_file, r.distances, "to from dist");
      }
    } else if (args.query == "cc") {
      queries::CcOptions opts;
      opts.tuning = tuning;
      opts.collect_labels = !args.out_file.empty();
      const auto r = run_cc(comm, g, opts);
      if (root) {
        std::cout << "cc: " << r.component_count << " components over "
                  << r.labelled_nodes << " nodes\n";
        report(r.run);
        if (!args.out_file.empty()) write_rows(args.out_file, r.labels, "node label");
      }
    } else if (args.query == "tc") {
      queries::TcOptions opts;
      opts.tuning = tuning;
      opts.collect_pairs = !args.out_file.empty();
      const auto r = run_tc(comm, g, opts);
      if (root) {
        std::cout << "tc: " << r.path_count << " reachable pairs\n";
        report(r.run);
        if (!args.out_file.empty()) write_rows(args.out_file, r.pairs, "dst src");
      }
    } else if (args.query == "pagerank") {
      queries::PagerankOptions opts;
      opts.rounds = args.rounds;
      opts.tuning = tuning;
      opts.collect_ranks = !args.out_file.empty();
      const auto r = run_pagerank(comm, g, opts);
      if (root) {
        std::cout << "pagerank: " << r.ranked_nodes << " nodes, mass " << r.total_mass
                  << " after " << r.rounds << " rounds\n";
        report(r.run);
        if (!args.out_file.empty()) {
          write_rows(args.out_file, r.ranks, "node rank(x1e6)");
        }
      }
    } else if (args.query == "triangles") {
      const auto r = run_triangles(comm, g, queries::TrianglesOptions{.tuning = tuning});
      if (root) {
        std::cout << "triangles: " << r.triangles << " (from " << r.wedges << " wedges)\n";
        report(r.run);
      }
    } else if (args.query == "lsp") {
      queries::LspOptions opts;
      opts.sources = sources;
      opts.tuning = tuning;
      const auto r = run_lsp(comm, g, opts);
      if (root) {
        std::cout << "lsp: longest shortest path " << r.longest << " over "
                  << r.spath_count << " paths\n";
        report(r.run);
      }
    } else if (args.query == "sssp-tree") {
      queries::SsspTreeOptions opts;
      opts.source = sources.front();
      opts.tuning = tuning;
      const auto r = run_sssp_tree(comm, g, opts);
      if (root) {
        std::cout << "sssp-tree: " << r.reached << " nodes from source "
                  << sources.front() << "\n";
        report(r.run);
        if (!args.out_file.empty()) write_rows(args.out_file, r.tree, "node dist parent");
      }
    } else if (root) {
      std::cerr << "unknown query '" << args.query << "'\n";
    }
  });
}

/// Parse an --update-batch file into this rank's sharded contribution:
/// lines "+ u v [w]" / "- u v [w]", round-robin sliced across ranks.
serving::UpdateBatch read_update_batch(const std::string& path, std::size_t edge_arity,
                                       bool symmetrize, int rank, int nranks) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read update batch " + path);
  serving::RelationDelta delta;
  delta.relation = "edge";
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const bool mine = lineno++ % static_cast<std::size_t>(nranks) ==
                      static_cast<std::size_t>(rank);
    std::istringstream ss(line);
    char op = 0;
    core::value_t u = 0, v = 0, w = 1;
    if (!(ss >> op >> u >> v) || (op != '+' && op != '-')) {
      throw std::runtime_error(path + ": bad update line '" + line +
                               "' (want '+ u v [w]' or '- u v [w]')");
    }
    ss >> w;  // optional; default weight 1
    if (!mine) continue;
    auto& rows = op == '+' ? delta.inserts : delta.deletes;
    if (edge_arity == 3) {
      rows.push_back(core::Tuple{u, v, w});
    } else {
      rows.push_back(core::Tuple{u, v});
      if (symmetrize) rows.push_back(core::Tuple{v, u});
    }
  }
  return {std::move(delta)};
}

int run_serve(const Args& args, const graph::Graph& g, const queries::QueryTuning& tuning,
              const std::vector<core::value_t>& sources) {
  int exit_code = 0;
  vmpi::run(args.ranks, run_options(args), [&](vmpi::Comm& comm) {
    const bool root = comm.is_root();
    const bool is_sssp = args.query == "sssp";

    // Keep the builder struct alive: the Program must outlive the engine.
    queries::SsspProgram sp;
    queries::CcProgram cp;
    core::Program* program = nullptr;
    std::string lookup_rel;
    if (is_sssp) {
      sp = queries::build_sssp_program(comm, tuning.edge_sub_buckets,
                                       /*balance_edges=*/false);
      program = sp.program.get();
      lookup_rel = "spath";
    } else {
      cp = queries::build_cc_program(comm, tuning.edge_sub_buckets,
                                     /*balance_edges=*/false);
      program = cp.program.get();
      lookup_rel = "cc";
    }

    serving::ServingConfig scfg;
    scfg.engine = tuning.engine;
    scfg.manifest_path = args.checkpoint_file;
    scfg.checkpoint_every_batches = args.checkpoint_every;
    serving::ServingEngine srv(comm, *program, scfg);

    const bool warm = srv.can_warm_start();
    if (args.resume_required && !warm) {
      if (root) {
        std::cerr << "error: --resume demanded a warm start but no manifest exists at "
                  << args.checkpoint_file << "\n";
      }
      exit_code = 1;
      return;
    }
    if (!warm) {
      if (is_sssp) {
        queries::load_sssp_facts(sp, g, sources);
      } else {
        queries::load_cc_facts(cp, g, /*symmetrize=*/true);
      }
    }
    const auto rr = srv.start();
    if (root) {
      std::cout << "serve: " << (warm ? "warm start from " + args.checkpoint_file
                                      : std::string("cold start"))
                << "\n";
      report(rr);
    }
    if (rr.aborted_fault) {
      exit_code = 1;
      return;
    }

    for (const auto& path : args.update_batches) {
      const auto batch = read_update_batch(path, is_sssp ? 3 : 2, !is_sssp,
                                           comm.rank(), comm.size());
      const auto ur = srv.apply_updates(batch);
      if (ur.aborted_fault) {
        if (root) std::cerr << "error: batch " << path << " aborted: " << ur.fault_what
                            << "\n";
        exit_code = 1;
        return;
      }
      if (root) {
        std::cout << "batch " << path << ": +" << ur.base_inserted << " -"
                  << ur.base_deleted << " edges (" << ur.missing_deletes
                  << " deletes missed), retracted " << ur.retracted << " in "
                  << ur.retraction_rounds << " rounds, recovered " << ur.recovered
                  << ", derived " << ur.tuples_derived << " tuples over "
                  << ur.tail_iterations << " tail iterations"
                  << (ur.checkpointed ? ", manifest written" : "") << "\n";
      }
    }

    for (const auto& key : args.lookups) {
      const auto rows = srv.lookup(lookup_rel, key);
      if (root) {
        std::cout << lookup_rel << "(";
        for (std::size_t i = 0; i < key.size(); ++i) std::cout << (i ? "," : "") << key[i];
        std::cout << "): " << rows.size() << " rows\n";
        for (const auto& row : rows) {
          for (std::size_t c = 0; c < row.size(); ++c) std::cout << (c ? " " : "  ") << row[c];
          std::cout << "\n";
        }
      }
    }
  });
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.query == "datalog") return run_datalog(args);
  const auto g = load_graph(args);
  std::cout << "graph '" << g.name << "': " << g.num_nodes << " nodes, " << g.num_edges()
            << " edges; " << args.ranks << " ranks\n";
  if (args.nodes > 0 || args.topology != "flat") {
    std::cout << "topology: "
              << vmpi::Topology::grouped(args.ranks, args.nodes).describe(args.ranks)
              << ", exchange " << args.topology << "\n";
  }

  queries::QueryTuning tuning;
  if (args.baseline) tuning = queries::QueryTuning::baseline();
  if (args.topology == "hier") {
    tuning.engine.exchange = core::ExchangeAlgorithm::kHierarchical;
  }
  tuning.edge_sub_buckets = args.sub_buckets;
  tuning.use_async = args.use_async;
  tuning.async.batch_rows = args.async_batch;
  if (args.ssp && !args.use_async) {
    usage("--staleness is an async-engine knob; add --engine async");
  }
  tuning.async.ssp = args.ssp;
  tuning.async.ssp_staleness = args.staleness;
  if (args.skew_threshold > 0) {
    if (args.use_async) {
      usage("--skew-threshold is a BSP-engine knob (hot-set agreement needs "
            "iteration boundaries); drop --engine async");
    }
    tuning.engine.skew.enabled = true;
    tuning.engine.skew.hot_threshold = args.skew_threshold;
    tuning.engine.skew.max_hot_keys = args.skew_max_keys;
  }
  tuning.engine.checkpoint_every = args.checkpoint_every;
  tuning.engine.checkpoint_path = args.checkpoint_file;
  tuning.resume_manifest = args.resume_file;
  if (args.checkpoint_every > 0 && args.checkpoint_file.empty()) {
    usage("--checkpoint-every needs --checkpoint FILE");
  }

  // Serving-mode flag validation: every flag either works or fails loudly.
  if (args.serve && args.use_async) {
    usage("--serve requires the BSP engine (--engine async cannot be served)");
  }
  if (!args.serve && !args.update_batches.empty()) {
    usage("--update-batch requires --serve (batch mode has no resident engine)");
  }
  if (!args.serve && !args.lookups.empty()) {
    usage("--lookup requires --serve: after a batch run there is no resident "
          "engine to look up");
  }
  if (args.resume_required && !args.serve) {
    usage("bare --resume needs --serve (batch mode resumes with --resume FILE)");
  }
  if (args.serve && args.resume_required && args.checkpoint_file.empty()) {
    usage("--resume in serve mode needs --checkpoint FILE naming the manifest");
  }
  if (args.serve && !args.resume_file.empty()) {
    usage("--serve warm-starts from --checkpoint FILE; --resume takes no FILE here");
  }
  if (args.serve && args.query != "sssp" && args.query != "cc") {
    usage("--serve supports sssp and cc");
  }

  auto sources = args.sources;
  if (sources.empty()) sources = g.pick_hubs(3);

  try {
    if (args.serve) return run_serve(args, g, tuning, sources);
    run_query(args, g, tuning, sources);
  } catch (const serving::ServingError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const async::UnsupportedProgramError& e) {
    // The program (not the flags) cannot run on the async schedule — e.g.
    // `pagerank --engine async` without --staleness.  Distinct exit code so
    // scripts can tell "pick another engine" from "fix your flags".
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::invalid_argument& e) {
    // Flag/config mistakes (async::ConfigError included): usage-class error.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
