#include "vmpi/runtime.hpp"

#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

namespace paralagg::vmpi {

CommStats run(int nranks, const std::function<void(Comm&)>& fn) {
  std::vector<CommStats> ignored;
  return run_collect(nranks, RunOptions{}, fn, ignored);
}

CommStats run(int nranks, const RunOptions& options,
              const std::function<void(Comm&)>& fn) {
  std::vector<CommStats> ignored;
  return run_collect(nranks, options, fn, ignored);
}

CommStats run_collect(int nranks, const std::function<void(Comm&)>& fn,
                      std::vector<CommStats>& per_rank) {
  return run_collect(nranks, RunOptions{}, fn, per_rank);
}

CommStats run_collect(int nranks, const RunOptions& options,
                      const std::function<void(Comm&)>& fn,
                      std::vector<CommStats>& per_rank) {
  if (nranks < 1) throw std::invalid_argument("vmpi::run: nranks must be >= 1");

  World world(nranks);
  world.set_fault_plan(options.fault);
  world.set_retry(options.retry);
  world.set_watchdog(options.watchdog_seconds);
  world.set_topology(options.topology);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));

  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(world, r);
      try {
        fn(comm);
      } catch (const WorldAborted&) {
        // Secondary failure caused by another rank's abort; not reported.
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world.abort();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  per_rank.clear();
  per_rank.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) per_rank.push_back(world.stats_of(r));
  return world.total_stats();
}

}  // namespace paralagg::vmpi
