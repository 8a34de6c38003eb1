#include "trace.hpp"

#include <fstream>

#include "core/profile.hpp"
#include "json.hpp"

namespace paralagg::suite {

Tracer::Tracer(int tracks)
    : origin_(std::chrono::steady_clock::now()), tracks_(static_cast<std::size_t>(tracks)) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::span(int track, std::string name, double start_us, double end_us) {
  tracks_.at(static_cast<std::size_t>(track))
      .push_back(Event{std::move(name), 'X', start_us, end_us - start_us, {}});
}

void Tracer::phase_counters(int track, const core::ProfileSummary& profile, double start_us,
                            double end_us) {
  double total = 0;
  for (const auto& it : profile.per_iteration_max) {
    for (const double s : it) total += s;
  }
  auto& events = tracks_.at(static_cast<std::size_t>(track));
  double done = 0;
  for (const auto& it : profile.per_iteration_max) {
    Event e{"phase critical path (s)", 'C', 0, 0, {}};
    e.ts_us = start_us + (total > 0 ? (end_us - start_us) * done / total : 0);
    for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
      e.args.emplace_back(std::string(core::phase_name(static_cast<core::Phase>(p))), it[p]);
      done += it[p];
    }
    events.push_back(std::move(e));
  }
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":\"rank " << t << "\"}}";
    for (const auto& e : tracks_[t]) {
      sep();
      out << "{\"name\":" << json_quote(e.name) << ",\"ph\":\"" << e.ph
          << "\",\"pid\":1,\"tid\":" << t << ",\"ts\":" << json_number(e.ts_us);
      if (e.ph == 'X') out << ",\"dur\":" << json_number(e.dur_us);
      out << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out << ",";
        out << json_quote(e.args[i].first) << ":" << json_number(e.args[i].second);
      }
      out << "}}";
    }
  }
  out << "]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace paralagg::suite
