// paralagg_bench: the suite's runner (see README.md in this directory).
//
//   paralagg_bench --workload W [--seed S] [--seconds T] [--trace FILE] [--out FILE]
//       Run one workload.  Prints every metric by name with its unit, then,
//       as the last line, one JSON object {correct, attempted, failed,
//       metrics}: the end-to-end metrics, or with --trace the per-layer
//       metrics of the traced rep.  --out appends a results line (the file
//       starts with an environment header).  Exits 1 on a wrong answer.
//   paralagg_bench --compare BASE HEAD [--benchmark-json FILE]
//       Verdict per (workload, end-to-end metric) between two results
//       files, using the bounds in BENCHMARK.json.  Exits 1 on a regression.
//   paralagg_bench --smoke [--benchmark-json FILE] [--trace-dir DIR]
//       Every workload at tiny scale: all declared metrics emitted, finite
//       and in their declared unit, every trace well-formed.
//   paralagg_bench --list
//       Workload names, one per line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json.hpp"
#include "suite.hpp"
#include "trace.hpp"

#ifndef PARALAGG_SUITE_BUILD_TYPE
#define PARALAGG_SUITE_BUILD_TYPE "unknown"
#endif

namespace paralagg::suite {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace;
  std::string out;
  std::string git_describe = "unknown";
  std::string benchmark_json = "BENCHMARK.json";
  std::string trace_dir = ".";
  std::vector<std::string> compare;  // BASE, HEAD
  bool smoke = false;
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "paralagg_bench: " << why << "\n"
            << "usage: paralagg_bench --workload W [--seed S] [--seconds T] [--trace FILE] "
               "[--out FILE] [--git-describe D]\n"
            << "       paralagg_bench --compare BASE HEAD [--benchmark-json FILE]\n"
            << "       paralagg_bench --smoke [--benchmark-json FILE] [--trace-dir DIR]\n"
            << "       paralagg_bench --list\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload") {
        o.workload = value(i);
      } else if (a == "--seed") {
        o.seed = std::stoull(value(i));
      } else if (a == "--seconds") {
        o.seconds = std::stod(value(i));
        if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
      } else if (a == "--trace") {
        o.trace = value(i);
      } else if (a == "--out") {
        o.out = value(i);
      } else if (a == "--git-describe") {
        o.git_describe = value(i);
      } else if (a == "--benchmark-json") {
        o.benchmark_json = value(i);
      } else if (a == "--trace-dir") {
        o.trace_dir = value(i);
      } else if (a == "--compare") {
        o.compare.push_back(value(i));
        o.compare.push_back(value(i));
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--list") {
        o.list = true;
      } else {
        usage("unknown argument " + a);
      }
    }
  } catch (const std::logic_error&) {  // stoull / stod
    usage("malformed number");
  }
  return o;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string env_header(const Options& o) {
  std::ostringstream s;
  s << "{\"type\":\"env\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":" << json_quote(compiler())
    << ",\"build_type\":" << json_quote(PARALAGG_SUITE_BUILD_TYPE)
    << ",\"git_describe\":" << json_quote(o.git_describe) << ",\"seed\":" << o.seed
    << ",\"ranks\":" << kRanks << ",\"seconds\":" << json_number(o.seconds) << "}";
  return s.str();
}

/// The contract line: end-to-end metrics, or per-layer ones for a traced run.
std::string result_line(const Report& r, bool per_layer) {
  std::ostringstream s;
  s << "{\"correct\":" << (r.correct() ? "true" : "false") << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"metrics\":{";
  bool first = true;
  const auto defs = metric_catalogue();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].end_to_end == per_layer) continue;
    s << (first ? "" : ",") << json_quote(defs[i].name)
      << ":{\"value\":" << json_number(r.values()[i].value)
      << ",\"unit\":" << json_quote(defs[i].unit) << "}";
    first = false;
  }
  s << "}}";
  return s.str();
}

/// The results-file line: every metric, with sample counts and samples.
std::string results_record(const Workload& w, const Options& o, const Report& r) {
  std::ostringstream s;
  s << "{\"type\":\"result\",\"workload\":" << json_quote(w.name) << ",\"seed\":" << o.seed
    << ",\"seconds\":" << json_number(o.seconds)
    << ",\"traced\":" << (o.trace.empty() ? "false" : "true")
    << ",\"correct\":" << (r.correct() ? "true" : "false") << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"note\":" << json_quote(r.note) << ",\"metrics\":{";
  const auto defs = metric_catalogue();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto& v = r.values()[i];
    s << (i == 0 ? "" : ",") << json_quote(defs[i].name) << ":{\"value\":" << json_number(v.value)
      << ",\"unit\":" << json_quote(defs[i].unit) << ",\"n\":" << v.n;
    if (!v.samples.empty()) {
      s << ",\"samples\":[";
      for (std::size_t k = 0; k < v.samples.size(); ++k) {
        s << (k == 0 ? "" : ",") << json_number(v.samples[k]);
      }
      s << "]";
    }
    s << "}";
  }
  s << "}}";
  return s.str();
}

void print_table(const Workload& w, const Options& o, const Report& r) {
  std::printf("== %s  seed %llu  %.0f s  (%s)\n", std::string(w.name).c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, r.note.c_str());
  const auto defs = metric_catalogue();
  for (const bool e2e : {true, false}) {
    std::printf("  %s\n", e2e ? "end to end" : "per layer");
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (defs[i].end_to_end != e2e) continue;
      const auto& v = r.values()[i];
      std::printf("    %-40s %16.6g %-16s n=%zu\n", std::string(defs[i].name).c_str(), v.value,
                  std::string(defs[i].unit).c_str(), v.n);
    }
  }
  std::printf("  attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct() ? "true" : "false");
}

int run_workload(const Options& o) {
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) usage("unknown workload " + o.workload);
  if (std::thread::hardware_concurrency() < static_cast<unsigned>(kRanks)) {
    std::cerr << "paralagg_bench: warning: " << std::thread::hardware_concurrency()
              << " hardware threads for " << kRanks << " rank threads; times will be inflated\n";
  }
  std::unique_ptr<Tracer> tracer;
  if (!o.trace.empty()) tracer = std::make_unique<Tracer>(kRanks);
  const Report r = w->run({o.seed, o.seconds, false, tracer.get()});
  if (tracer != nullptr && !tracer->write(o.trace)) {
    std::cerr << "paralagg_bench: cannot write trace " << o.trace << "\n";
    return 1;
  }
  if (!o.out.empty()) {
    const bool fresh = !std::filesystem::exists(o.out) || std::filesystem::file_size(o.out) == 0;
    std::ofstream out(o.out, std::ios::app);
    if (fresh) out << env_header(o) << "\n";
    out << results_record(*w, o, r) << "\n";
    if (!out) {
      std::cerr << "paralagg_bench: cannot write " << o.out << "\n";
      return 1;
    }
  }
  print_table(*w, o, r);
  std::cout << result_line(r, !o.trace.empty()) << std::endl;
  return r.correct() ? 0 : 1;
}

// -- BENCHMARK.json ---------------------------------------------------------------

struct Declared {
  std::string unit;
  std::string better;
  double bound = 0;
  bool end_to_end = false;
};

std::map<std::string, Declared> declared_metrics(const Json& doc) {
  std::map<std::string, Declared> out;
  for (const bool e2e : {true, false}) {
    const Json* list = doc.find(e2e ? "end_to_end" : "per_layer");
    if (list == nullptr || !list->is(Json::Type::kArray)) {
      throw std::runtime_error("BENCHMARK.json: missing metric list");
    }
    for (const auto& m : list->array) {
      const Json* name = m.find("name");
      const Json* unit = m.find("unit");
      const Json* better = m.find("better");
      if (name == nullptr || unit == nullptr || better == nullptr) {
        throw std::runtime_error("BENCHMARK.json: metric without name/unit/better");
      }
      Declared d{unit->string, better->string, 0, e2e};
      if (const Json* bound = m.find("bound")) d.bound = bound->number;
      out[name->string] = d;
    }
  }
  return out;
}

// -- --compare --------------------------------------------------------------------

struct ResultsFile {
  std::vector<std::string> env;  // raw header lines
  // workload -> metric -> per-run values / pooled per-rep samples
  std::map<std::string, std::map<std::string, std::vector<double>>> values, samples;
};

ResultsFile load_results(const std::string& path) {
  ResultsFile f;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Json rec = parse_json(line);
    const Json* type = rec.find("type");
    if (type != nullptr && type->string == "env") {
      f.env.push_back(line);
      continue;
    }
    const Json* w = rec.find("workload");
    const Json* metrics = rec.find("metrics");
    if (w == nullptr || metrics == nullptr) throw std::runtime_error(path + ": not a results line");
    for (const auto& [name, m] : metrics->object) {
      const Json* v = m.find("value");
      if (v == nullptr || !v->is(Json::Type::kNumber)) continue;
      f.values[w->string][name].push_back(v->number);
      if (const Json* s = m.find("samples")) {
        for (const auto& x : s->array) f.samples[w->string][name].push_back(x.number);
      }
    }
  }
  return f;
}

/// Run-to-run spread of one side: across its runs when it has several.  A
/// single run's median has the spread of its reps divided by sqrt(reps);
/// a single-sample metric of a single run has none to show.
double side_spread(const ResultsFile& f, const std::string& w, const std::string& m) {
  const auto& runs = f.values.at(w).at(m);
  if (runs.size() >= 2) return relative_spread(runs);
  const auto wi = f.samples.find(w);
  if (wi == f.samples.end()) return 0;
  const auto mi = wi->second.find(m);
  if (mi == wi->second.end()) return 0;
  return relative_spread(mi->second) / std::sqrt(static_cast<double>(mi->second.size()));
}

int compare(const Options& o) {
  const auto declared = declared_metrics(parse_json(read_file(o.benchmark_json)));
  const ResultsFile base = load_results(o.compare[0]);
  const ResultsFile head = load_results(o.compare[1]);
  for (const auto& e : base.env) std::printf("base %s\n", e.c_str());
  for (const auto& e : head.env) std::printf("head %s\n", e.c_str());
  std::printf("%-18s %-14s %13s %13s %8s %8s %7s  %s\n", "workload", "metric", "base", "head",
              "worse", "spread", "bound", "verdict");
  int regressed = 0;
  for (const auto& w : workloads()) {
    const std::string wn(w.name);
    for (const auto& [name, d] : declared) {
      if (!d.end_to_end) continue;
      const auto has = [&](const ResultsFile& f) {
        return f.values.count(wn) > 0 && f.values.at(wn).count(name) > 0;
      };
      if (!has(base) || !has(head)) {
        if (has(base) || has(head)) std::printf("%-18s %-14s missing on one side\n", wn.c_str(), name.c_str());
        continue;
      }
      const auto& b = base.values.at(wn).at(name);
      const auto& h = head.values.at(wn).at(name);
      const double bm = median(b);
      const double hm = median(h);
      const double sign = d.better == "lower" ? 1.0 : -1.0;
      const double worse = sign * ratio(hm - bm, bm);  // > 0: head is worse
      const double spread = std::max(side_spread(base, wn, name), side_spread(head, wn, name));
      const auto better = [&](double x, double y) { return sign * (x - y) < 0; };
      const bool every_run_better =
          b.size() >= 2 && h.size() >= 2 &&
          better(sign > 0 ? *std::max_element(h.begin(), h.end())
                          : *std::min_element(h.begin(), h.end()),
                 sign > 0 ? *std::min_element(b.begin(), b.end())
                          : *std::max_element(b.begin(), b.end()));
      const char* verdict = "unchanged";
      if (spread > d.bound) {
        verdict = every_run_better ? "improved" : "unresolved";
      } else if (worse > d.bound) {
        verdict = "regressed";
        ++regressed;
      } else if (-worse > d.bound) {
        verdict = "improved";
      }
      std::printf("%-18s %-14s %13.6g %13.6g %7.2f%% %7.2f%% %6.1f%%  %s\n", wn.c_str(),
                  name.c_str(), bm, hm, 100 * worse, 100 * spread, 100 * d.bound, verdict);
    }
  }
  return regressed > 0 ? 1 : 0;
}

// -- --smoke ----------------------------------------------------------------------

/// Empty when `text` is a well-formed Chrome trace of `ranks` tracks whose
/// spans end at or after they start and nest within each track.
std::string check_trace(const std::string& text, int ranks) {
  Json doc;
  try {
    doc = parse_json(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is(Json::Type::kArray)) return "no traceEvents array";
  std::map<int, std::vector<std::pair<double, double>>> spans;  // tid -> (start, end)
  for (const auto& e : events->array) {
    const Json* ph = e.find("ph");
    const Json* tid = e.find("tid");
    if (ph == nullptr || tid == nullptr || e.find("name") == nullptr) return "event without ph/tid/name";
    if (tid->number < 0 || tid->number >= ranks) return "tid outside the rank range";
    if (ph->string != "X") continue;
    const Json* ts = e.find("ts");
    const Json* dur = e.find("dur");
    if (ts == nullptr || dur == nullptr) return "span without ts/dur";
    if (dur->number < 0) return "span ends before it starts";
    spans[static_cast<int>(tid->number)].emplace_back(ts->number, ts->number + dur->number);
  }
  if (static_cast<int>(spans.size()) != ranks) return "not every rank has spans";
  for (auto& [tid, list] : spans) {
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      return a.first < b.first || (a.first == b.first && a.second > b.second);
    });
    std::vector<double> open_ends;
    for (const auto& [start, end] : list) {
      while (!open_ends.empty() && open_ends.back() <= start) open_ends.pop_back();
      if (!open_ends.empty() && end > open_ends.back()) {
        return "spans overlap without nesting on rank " + std::to_string(tid);
      }
      open_ends.push_back(end);
    }
  }
  return {};
}

int smoke(const Options& o) {
  const auto t0 = std::chrono::steady_clock::now();
  const Json doc = parse_json(read_file(o.benchmark_json));
  const auto declared = declared_metrics(doc);
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  };

  const auto defs = metric_catalogue();
  for (const auto& d : defs) {
    const auto it = declared.find(std::string(d.name));
    if (it == declared.end()) {
      fail("metric " + std::string(d.name) + " is not declared in BENCHMARK.json");
    } else if (it->second.unit != d.unit || it->second.end_to_end != d.end_to_end) {
      fail("metric " + std::string(d.name) + " is declared with another unit or kind");
    }
  }
  for (const auto& [name, d] : declared) {
    const bool known = std::any_of(defs.begin(), defs.end(),
                                   [&](const MetricDef& m) { return m.name == name; });
    if (!known) fail("BENCHMARK.json declares " + name + ", which the suite never emits");
  }
  const Json* listed = doc.find("workloads");
  if (listed == nullptr || listed->array.size() != workloads().size()) {
    fail("BENCHMARK.json lists another number of workloads");
  } else {
    for (const auto& w : listed->array) {
      const Json* name = w.find("name");
      if (name == nullptr || find_workload(name->string) == nullptr) {
        fail("BENCHMARK.json lists an unknown workload");
      }
    }
  }

  for (const auto& w : workloads()) {
    const std::string wn(w.name);
    const auto w0 = std::chrono::steady_clock::now();
    Tracer tracer(kRanks);
    const Report r = w.run({1, 0.3, true, &tracer});
    const double took = std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();
    const int before = failures;
    if (!r.correct()) fail(wn + ": wrong answer or failed operations (" + r.note + ")");
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const double v = r.values()[i].value;
      if (!std::isfinite(v)) fail(wn + ": " + std::string(defs[i].name) + " not emitted");
      if (defs[i].end_to_end && !(v > 0)) fail(wn + ": " + std::string(defs[i].name) + " is not positive");
    }
    const std::string path = (std::filesystem::path(o.trace_dir) / ("smoke-" + wn + ".json")).string();
    if (!tracer.write(path)) {
      fail(wn + ": cannot write " + path);
    } else if (const auto why = check_trace(read_file(path), kRanks); !why.empty()) {
      fail(wn + ": malformed trace: " + why);
    }
    std::printf("%s %-18s %.2f s  %s\n", failures == before ? "ok  " : "FAIL", wn.c_str(), took,
                r.note.c_str());
  }
  const double total = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("smoke: %d failure(s), %.1f s\n", failures, total);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace paralagg::suite

int main(int argc, char** argv) {
  using namespace paralagg::suite;
  const Options o = parse_args(argc, argv);
  try {
    if (o.list) {
      for (const auto& w : workloads()) std::cout << w.name << "\n";
      return 0;
    }
    if (!o.compare.empty()) return compare(o);
    if (o.smoke) return smoke(o);
    if (o.workload.empty()) usage("nothing to do");
    return run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "paralagg_bench: " << e.what() << "\n";
    return 1;
  }
}
