#include "core/engine.hpp"

#include <algorithm>
#include <chrono>

#include "core/checkpoint.hpp"
#include "core/phase_scope.hpp"

namespace paralagg::core {

namespace {

void push_unique(std::vector<Relation*>& v, Relation* r) {
  if (r != nullptr && std::find(v.begin(), v.end(), r) == v.end()) v.push_back(r);
}

}  // namespace

void reduce_kernel_totals(vmpi::Comm& comm, const JoinKernelTotals& local, RunResult& result) {
  const auto fill = [&](JoinKernelTotals& out, vmpi::ReduceOp op) {
    for (auto field : {&JoinKernelTotals::outer_tuples_shipped, &JoinKernelTotals::probes,
                       &JoinKernelTotals::probe_seeks, &JoinKernelTotals::matches}) {
      out.*field = comm.allreduce<std::uint64_t>(local.*field, op);
    }
  };
  fill(result.kernel, vmpi::ReduceOp::kSum);
  fill(result.kernel_max, vmpi::ReduceOp::kMax);
}

void reduce_router_totals(vmpi::Comm& comm, const RouterTotals& local, RunResult& result) {
  for (auto field : {&RouterTotals::rows_sent, &RouterTotals::rows_combined,
                     &RouterTotals::rows_dominated}) {
    result.router.*field = comm.allreduce<std::uint64_t>(local.*field, vmpi::ReduceOp::kSum);
  }
}

std::vector<Relation*> Engine::targets_of(const std::vector<Rule>& rules) {
  std::vector<Relation*> out;
  for (const auto& rule : rules) {
    std::visit([&](const auto& r) { push_unique(out, r.out.target); }, rule);
  }
  return out;
}

std::vector<Relation*> Engine::sources_of(const std::vector<Rule>& rules) {
  std::vector<Relation*> out;
  for (const auto& rule : rules) {
    if (const auto* j = std::get_if<JoinRule>(&rule)) {
      push_unique(out, j->a);
      push_unique(out, j->b);
    } else {
      push_unique(out, std::get<CopyRule>(rule).src);
    }
  }
  return out;
}

RuleExecStats Engine::execute_rule(const Rule& rule, ExchangeRouter& router) {
  RuleExecStats stats;
  if (const auto* j = std::get_if<JoinRule>(&rule)) {
    const std::optional<JoinOrderPolicy> forced =
        cfg_.dynamic_join_order ? std::nullopt : std::optional(cfg_.fixed_order);
    stats = execute_join(*comm_, profile_, *j, router, forced);
  } else {
    stats = execute_copy(profile_, std::get<CopyRule>(rule), router);
  }
  local_kernel_ += stats;
  local_skew_.broadcast_rows += stats.hot_broadcast_rows;
  return stats;
}

std::vector<Relation*> Engine::skew_candidates(const Stratum& stratum) const {
  std::vector<Relation*> out;
  for (const auto& rule : stratum.loop_rules) {
    const auto* j = std::get_if<JoinRule>(&rule);
    if (j == nullptr || j->anti) continue;
    for (Relation* side : {j->a, j->b}) {
      // A side whose independent columns are all join columns has nothing
      // for H2 to spread by — its rows for one key can only pile up.
      if (side->indep_arity() > side->jcc()) push_unique(out, side);
    }
  }
  // Negated relations must keep owner placement everywhere: an antijoin
  // decides absence from one rank's partition.  Scan the whole program
  // (the same relation may be negated in a later stratum).
  const auto drop_negated = [&out](const std::vector<Rule>& rules) {
    for (const auto& rule : rules) {
      const auto* j = std::get_if<JoinRule>(&rule);
      if (j == nullptr || !j->anti) continue;
      out.erase(std::remove(out.begin(), out.end(), j->b), out.end());
    }
  };
  if (program_ != nullptr) {
    for (const auto& s : program_->strata()) {
      drop_negated(s->init_rules);
      drop_negated(s->loop_rules);
    }
  } else {
    drop_negated(stratum.init_rules);
    drop_negated(stratum.loop_rules);
  }
  return out;
}

void Engine::run_rules(const std::vector<Rule>& rules, ExchangeRouter& router) {
  for (const auto& rule : rules) {
    execute_rule(rule, router);
    // Per-rule schedule (the RQ1 baseline): every rule pays its own exchange.
    if (!cfg_.fuse_exchanges) local_router_ += router.flush(profile_, cfg_.exchange);
  }
  // Fused schedule: one flush carries every rule's outputs.
  if (cfg_.fuse_exchanges) local_router_ += router.flush(profile_, cfg_.exchange);
}

StratumResult Engine::run_stratum(const Stratum& stratum, std::size_t start_iteration,
                                  bool skip_init) {
  StratumResult result;

  // One router per stratum: rules emit into it, and it is flushed either
  // once per iteration (fused) or after every rule (legacy) — see
  // execute_rule.  Rules register their targets lazily in rule order,
  // which is SPMD-deterministic, so route ids agree across ranks.
  ExchangeRouter router(*comm_, cfg_.router_preagg);

  // ---- init rules: run once, seed the deltas --------------------------------
  if (!skip_init && !stratum.init_rules.empty()) {
    run_rules(stratum.init_rules, router);
    PhaseScope scope(*comm_, profile_, Phase::kDedupAgg);
    for (Relation* t : targets_of(stratum.init_rules)) {
      const auto m = t->materialize();
      profile_.add_work(Phase::kDedupAgg, m.staged);
    }
    profile_.end_iteration();
  }

  if (stratum.loop_rules.empty()) {
    result.reached_fixpoint = true;
    return result;
  }

  const auto loop_targets = targets_of(stratum.loop_rules);
  auto balance_candidates = sources_of(stratum.loop_rules);
  for (Relation* t : loop_targets) push_unique(balance_candidates, t);
  const auto skew_cands =
      cfg_.skew.enabled ? skew_candidates(stratum) : std::vector<Relation*>{};

  const std::size_t bound =
      stratum.fixpoint ? cfg_.max_iterations
                       : std::min(stratum.max_rounds, cfg_.max_iterations);

  for (std::size_t iter = start_iteration; iter < bound; ++iter) {
    // Iteration boundary: release injected delays and apply the fault
    // plan's epoch faults (kill/stall) deterministically.  No-op without
    // an installed FaultPlan.
    comm_->advance_epoch();

    // ---- heavy-hitter detection + hot-set switches ----------------------------
    // Before the balancer on purpose: rows a respread just spread out must
    // not trip the imbalance ratio into a redundant sub-bucket reshuffle.
    // Size gathers taken here are handed to the balancer below (the shared
    // measurement), except for relations whose layout changed.
    std::vector<std::pair<Relation*, std::vector<std::uint64_t>>> fresh_sizes;
    if (!skew_cands.empty()) {
      PhaseScope scope(*comm_, profile_, Phase::kBalance);
      for (Relation* rel : skew_cands) {
        auto sizes = gather_full_sizes(*comm_, *rel);
        std::uint64_t total = 0;
        for (const auto s : sizes) total += s;
        // Run the detection collective only when a hot key is possible
        // (the global size bounds any per-key count) or a hot set must be
        // re-examined.  Both inputs are globally identical, so every rank
        // takes the same branch.
        if (total >= cfg_.skew.hot_threshold || !rel->hot_keys().empty()) {
          auto hot = detect_hot_keys(*comm_, *rel, cfg_.skew);
          ++local_skew_.detections;
          if (hot != rel->hot_keys()) {
            const auto moved = rel->adopt_hot_keys(std::move(hot));
            local_skew_.respread_rows += moved;
            profile_.add_work(Phase::kBalance, moved);
            continue;  // sizes are stale after the respread
          }
        }
        fresh_sizes.emplace_back(rel, std::move(sizes));
      }
      for (const Relation* rel : skew_cands) {
        if (!rel->hot_keys().empty()) {
          ++local_skew_.hot_iterations;
          break;
        }
      }
    }

    // ---- spatial load balancing ---------------------------------------------
    if (cfg_.balance.enabled && iter % std::max<std::size_t>(cfg_.balance.period, 1) == 0) {
      for (Relation* rel : balance_candidates) {
        if (!rel->config().balanceable) continue;
        const std::vector<std::uint64_t>* pre = nullptr;
        for (const auto& [r, sizes] : fresh_sizes) {
          if (r == rel) {
            pre = &sizes;
            break;
          }
        }
        balance_relation(*comm_, profile_, *rel, cfg_.balance, pre);
      }
    }

    // ---- rules + exchanges under the configured schedule ----------------------
    run_rules(stratum.loop_rules, router);

    // ---- fused dedup / local aggregation ---------------------------------------
    std::uint64_t local_delta = 0;
    {
      PhaseScope scope(*comm_, profile_, Phase::kDedupAgg);
      for (Relation* t : loop_targets) {
        const auto m = t->materialize();
        profile_.add_work(Phase::kDedupAgg, m.staged);
        result.tuples_generated += m.staged;
        local_delta += m.delta_size;
      }
    }

    // ---- global termination detection ------------------------------------------
    std::uint64_t global_delta = 0;
    {
      PhaseScope scope(*comm_, profile_, Phase::kOther);
      global_delta = comm_->allreduce<std::uint64_t>(local_delta, vmpi::ReduceOp::kSum);
    }
    profile_.end_iteration();
    ++result.iterations;
    cumulative_materialized_ += global_delta;

    if (stratum.fixpoint && global_delta == 0) {
      result.reached_fixpoint = true;
      break;
    }
    if (cumulative_materialized_ > cfg_.tuple_limit) {
      result.aborted_tuple_limit = true;  // deterministic on all ranks
      break;
    }

    // ---- checkpoint manifest ---------------------------------------------------
    // Written only when the stratum continues (a finished stratum needs no
    // restart point), after the termination allreduce so every rank agrees
    // this boundary was reached.  All knobs are config, so the decision is
    // SPMD-identical.
    if (cfg_.checkpoint_every > 0 && !cfg_.checkpoint_path.empty() &&
        program_ != nullptr && (iter + 1) % cfg_.checkpoint_every == 0) {
      write_manifest(*program_, cfg_.checkpoint_path,
                     ManifestHeader{stratum_index_, iter + 1,
                                    prior_iterations_ + iter + 1});
    }
  }
  // A bounded stratum that ran its whole budget finished by design — but
  // only if nothing cut it short.  Reporting a tuple-limit abort as
  // "reached fixpoint" hid every truncated bounded run from callers.
  if (!stratum.fixpoint && !result.aborted_tuple_limit) result.reached_fixpoint = true;
  return result;
}

RunResult Engine::run_from(Program& program, std::size_t first_stratum,
                           std::size_t start_iteration, bool skip_init,
                           std::uint64_t prior_iterations, bool delta_mode) {
  RunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  program_ = &program;
  prior_iterations_ = prior_iterations;

  try {
    const auto& strata = program.strata();
    for (std::size_t i = first_stratum; i < strata.size(); ++i) {
      stratum_index_ = i;
      const bool resumed_here = i == first_stratum;
      const std::size_t start = resumed_here ? start_iteration : 0;
      const bool skip = delta_mode ? !strata[i]->loop_rules.empty()
                                   : resumed_here && skip_init;
      auto sr = run_stratum(*strata[i], start, skip);
      prior_iterations_ += start + sr.iterations;
      result.total_iterations += sr.iterations;
      result.aborted_tuple_limit = result.aborted_tuple_limit || sr.aborted_tuple_limit;
      result.strata.push_back(sr);
    }
    // Restore owner placement before anyone downstream (serving warm
    // starts, checkpoint readers, diagnostics assuming owner_rank) sees
    // the relations.  Hot sets are identical on every rank, so the
    // collective fires symmetrically; without hot layouts this loop is
    // free.
    if (cfg_.skew.enabled) {
      for (const auto& rel : program.relations()) {
        if (!rel->hot_keys().empty()) rel->adopt_hot_keys({});
      }
    }
    program_ = nullptr;
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    // Cross-rank assembly: profile summary plus a race-free total of the
    // per-rank communication counters (each rank contributes its own).
    // Collective, so it stays inside the catch: a peer that faults while
    // this rank waits here ends this run typed too.
    result.profile = summarize_profiles(*comm_, profile_);
    vmpi::StatsPause pause(*comm_);
    const auto all = comm_->allgather_stats(comm_->stats());
    for (const auto& s : all) result.comm_total += s;
    reduce_kernel_totals(*comm_, local_kernel_, result);
    reduce_router_totals(*comm_, local_router_, result);
    // Detection runs are symmetric (max = the shared count); row moves are
    // per-rank shares, so they sum.
    result.skew.detections =
        comm_->allreduce<std::uint64_t>(local_skew_.detections, vmpi::ReduceOp::kMax);
    result.skew.hot_iterations =
        comm_->allreduce<std::uint64_t>(local_skew_.hot_iterations, vmpi::ReduceOp::kMax);
    result.skew.respread_rows =
        comm_->allreduce<std::uint64_t>(local_skew_.respread_rows, vmpi::ReduceOp::kSum);
    result.skew.broadcast_rows =
        comm_->allreduce<std::uint64_t>(local_skew_.broadcast_rows, vmpi::ReduceOp::kSum);
  } catch (const vmpi::FaultError& e) {
    // One catch site for every injected-failure surface: watchdog
    // timeout, injected rank death, corrupt frame.  Poison the world
    // (idempotent — timeouts already did) so peers blocked on this rank
    // unwind instead of hanging; with the world poisoned no further
    // collectives are possible — including the rest of the summary — so
    // the caller gets a clean typed abort instead of a half-synchronized
    // summary.
    comm_->world().fault_abort();
    program_ = nullptr;
    result.aborted_fault = true;
    result.fault_what = e.what();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return result;
}

RunResult Engine::run(Program& program) {
  program.validate();
  return run_from(program, 0, 0, /*skip_init=*/false, /*prior_iterations=*/0);
}

RunResult Engine::run_delta(Program& program) {
  program.validate();
  return run_from(program, 0, 0, /*skip_init=*/true, /*prior_iterations=*/0,
                  /*delta_mode=*/true);
}

RunResult Engine::resume(Program& program, const std::string& manifest_path) {
  program.validate();
  const ManifestHeader at = load_manifest(program, manifest_path);
  // The resumed stratum restarts at the recorded iteration with its init
  // rules suppressed (their effects are already inside the restored full
  // versions); earlier strata are skipped entirely.
  auto result =
      run_from(program, static_cast<std::size_t>(at.stratum),
               static_cast<std::size_t>(at.iteration), /*skip_init=*/true,
               at.total_iterations - at.iteration);
  result.resumed = true;
  result.total_iterations += static_cast<std::size_t>(at.total_iterations);
  return result;
}

}  // namespace paralagg::core
