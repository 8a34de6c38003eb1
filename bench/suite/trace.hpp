#pragma once

// In-memory span recorder for the suite's traced rep, written out at exit
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
//
// One track per rank.  Spans wrap the suite's own calls into the library
// (program build, fact load, engine run, serving calls); the library itself
// is not instrumented.  Each rank thread appends only to its own track, so
// recording takes no lock.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace paralagg::core {
struct ProfileSummary;
}

namespace paralagg::suite {

class Tracer {
 public:
  explicit Tracer(int tracks);

  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const;

  void span(int track, std::string name, double start_us, double end_us);

  /// The engine's per-iteration phase critical path (seconds, max over
  /// ranks) as counter events spread over [start_us, end_us] in proportion
  /// to each iteration's share of the modelled total.  The library reports
  /// no per-iteration timestamps, so the placement is nominal.
  void phase_counters(int track, const core::ProfileSummary& profile, double start_us,
                      double end_us);

  /// Write the Chrome trace; false on an I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    char ph = 'X';  // 'X' complete span, 'C' counter
    double ts_us = 0;
    double dur_us = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  std::chrono::steady_clock::time_point origin_;
  std::vector<std::vector<Event>> tracks_;
};

/// RAII span on one rank's track; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, int track, const char* name)
      : tracer_(tracer), track_(track), name_(name),
        start_us_(tracer != nullptr ? tracer->now_us() : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->span(track_, name_, start_us_, tracer_->now_us());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] double start_us() const { return start_us_; }

 private:
  Tracer* tracer_;
  int track_;
  const char* name_;
  double start_us_;
};

}  // namespace paralagg::suite
