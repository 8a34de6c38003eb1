#include "async/async_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <variant>

#include "async/termination.hpp"
#include "core/exchange_router.hpp"
#include "core/fold_run.hpp"
#include "core/local_join.hpp"
#include "core/phase_scope.hpp"
#include "core/ra_op.hpp"
#include "core/relation.hpp"
#include "core/shipped_run.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/row_frame.hpp"

namespace paralagg::async {

namespace {

using core::Phase;
using core::PhaseScope;
using core::Relation;
using core::Tuple;
using core::value_t;
using core::Version;

// Application-message tags of the async loop.  Disjoint from the
// collectives' rotated tag blocks (0x41A2...., 0x42......, 0x44......;
// unused inside the loop, which runs no collectives) and from the
// TerminationDetector's control block.
constexpr int kTagStage = 0x51A50000;  // generated rows -> owner rank
constexpr int kTagProbe = 0x51A50001;  // delta rows -> static side's bucket ranks
// Stale-synchronous mode: both frame kinds open with an epoch word, and
// exactly one frame of each kind flows per (source, destination, epoch) —
// that is what makes the receiver's per-source epoch ledger a complete
// exactly-once check.
constexpr int kTagSspProbe = 0x51A50002;    // epoch-tagged scan rows
constexpr int kTagSspPartial = 0x51A50003;  // epoch-tagged pre-folded partials

// A fixpoint loop target releases its STAGE dominance filter on a rank at
// the first key hit that leaves fewer than 1 in kStageReleaseShare of at
// least core::DominanceFilter::kReleaseMinHits hits dominated.  Higher than
// the router's 1 in 8: the loop probes once per emitted row, not once per
// folded row and flush (DESIGN.md §6.3).
constexpr std::uint64_t kStageReleaseShare = 2;

void push_unique(std::vector<Relation*>& v, Relation* r) {
  if (r != nullptr && std::find(v.begin(), v.end(), r) == v.end()) v.push_back(r);
}

std::vector<Relation*> targets_of(const std::vector<core::Rule>& rules) {
  std::vector<Relation*> out;
  for (const auto& rule : rules) {
    std::visit([&](const auto& r) { push_unique(out, r.out.target); }, rule);
  }
  return out;
}

std::uint64_t collective_calls(const vmpi::CommStats& s) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < vmpi::kOpCount; ++i) {
    if (static_cast<vmpi::Op>(i) == vmpi::Op::kP2P) continue;
    total += s.calls[i];
  }
  return total;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One stratum's nonblocking loop on one rank.  Owns the per-destination
/// outbound buffers and the termination detector; lives on the stack of
/// AsyncEngine::run_stratum.
class StratumLoop {
 public:
  StratumLoop(vmpi::Comm& comm, const AsyncConfig& cfg, core::RankProfile& profile,
              AsyncLoopStats& ls, core::JoinKernelTotals& kernel,
              const core::Stratum& stratum, int detector_tag_base)
      : comm_(comm),
        cfg_(cfg),
        profile_(profile),
        ls_(ls),
        kernel_(kernel),
        detector_(comm, detector_tag_base),
        targets_(targets_of(stratum.loop_rules)),
        nranks_(static_cast<std::size_t>(comm.size())),
        dominance_(nranks_, kStageReleaseShare) {
    fresh_.assign(targets_.size(), false);
    stage_out_.resize(targets_.size() * nranks_);
    for (const Relation* t : targets_) dominance_.add_target(*t, /*filter=*/true);
    for (const auto& rule : stratum.loop_rules) {
      if (const auto* j = std::get_if<core::JoinRule>(&rule)) {
        joins_.push_back(JoinTask{j, target_index(j->a), target_index(j->out.target)});
      } else {
        const auto& c = std::get<core::CopyRule>(rule);
        copies_.push_back(CopyTask{&c, target_index(c.src), target_index(c.out.target)});
      }
    }
    probe_out_.resize(joins_.size() * nranks_);
  }

  /// Loop until the detector announces global quiescence.  No collectives.
  void run() {
    // Round 0's frontier pre-exists: init rules and load_facts leave their
    // seeds in the delta trees, and materialize() would clear them — so
    // consume what is already there instead of materializing first.
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      fresh_[i] = targets_[i]->local_size(Version::kDelta) > 0;
    }

    // Progress watchdog.  The per-recv watchdog inside Comm only catches
    // a rank parked with *nothing* arriving; a dropped app message leaves
    // the Safra counters permanently unbalanced, so probes keep failing
    // and tokens keep circulating — every blocking recv returns promptly
    // and the loop livelocks instead of hanging.  App-level progress
    // (computation or accepted app messages) is the signal that is
    // actually starved, so that is what the deadline watches.
    const double deadline = comm_.watchdog_seconds();
    last_progress_ = wall_now();

    while (!detector_.terminated()) {
      if (drain_app() > 0) last_progress_ = wall_now();
      if (local_round()) {
        // A productive local round is the async analogue of a BSP
        // iteration boundary: release injected delays, apply epoch faults.
        comm_.advance_epoch();
        last_progress_ = wall_now();
        continue;
      }

      // Nothing to compute: push every buffered row out, then re-check the
      // mailbox — a message may have raced in while we were flushing.
      flush_all();
      if (drain_app() > 0) {
        last_progress_ = wall_now();
        continue;
      }

      // Passive: all work done, all sends flushed.  Move the termination
      // protocol along, then park in a blocking receive — the next app
      // message reactivates us, a token gets forwarded on the next pass,
      // and the terminate announcement breaks the loop.
      {
        PhaseScope scope(comm_, profile_, Phase::kOther);
        detector_.poll();
        detector_.try_terminate();
      }
      if (detector_.terminated()) break;
      if (deadline > 0 && wall_now() - last_progress_ > deadline) {
        comm_.world().fault_abort();
        throw vmpi::TimeoutError("async loop (termination starved, no app progress)",
                                 deadline, comm_.stats());
      }
      blocking_wait();
    }
    ls_.filters_released += dominance_.released();
  }

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t staged_total() const { return staged_total_; }
  [[nodiscard]] const TerminationDetector::Stats& detector_stats() const {
    return detector_.stats();
  }

 private:
  struct JoinTask {
    const core::JoinRule* rule;
    std::size_t src_idx;  // index of rule->a in targets_
    std::size_t out_idx;  // index of rule->out.target in targets_
  };
  struct CopyTask {
    const core::CopyRule* rule;
    std::size_t src_idx;
    std::size_t out_idx;
  };

  std::size_t target_index(Relation* r) const {
    const auto it = std::find(targets_.begin(), targets_.end(), r);
    assert(it != targets_.end() && "check_supported admitted a foreign relation");
    return static_cast<std::size_t>(it - targets_.begin());
  }

  /// One pass over the loop targets: fold staged arrivals, join each fresh
  /// delta frontier, batch the outputs.  Returns whether anything happened.
  bool local_round() {
    bool any = false;
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      Relation* t = targets_[i];
      if (fresh_[i]) {
        process_delta(i);
        fresh_[i] = false;
        any = true;
      }
      if (t->staged_count() > 0) {
        {
          PhaseScope scope(comm_, profile_, Phase::kDedupAgg);
          const auto m = t->materialize();
          profile_.add_work(Phase::kDedupAgg, m.staged);
          staged_total_ += m.staged;
          fresh_[i] = m.delta_size > 0;
        }
        if (fresh_[i]) {
          process_delta(i);
          fresh_[i] = false;
        }
        any = true;
      }
    }
    if (any) {
      ++rounds_;
      ++ls_.rounds;
      if (rounds_ > cfg_.max_rounds) {
        throw std::runtime_error("async engine: stratum exceeded max_rounds (" +
                                 std::to_string(cfg_.max_rounds) + ") local rounds");
      }
      flush_all();
      profile_.end_iteration();
    }
    return any;
  }

  /// Kernel sink routing head rows into targets_[out_idx].
  [[nodiscard]] auto sink_to(std::size_t out_idx) {
    return [this, out_idx](std::span<const value_t> row) { route_output(out_idx, row); };
  }

  /// Run every loop rule whose recursive side is targets_[target_idx] over
  /// that relation's current delta tree.
  void process_delta(std::size_t target_idx) {
    PhaseScope scope(comm_, profile_, Phase::kLocalJoin);
    std::uint64_t work = 0;

    for (std::size_t j = 0; j < joins_.size(); ++j) {
      const JoinTask& task = joins_[j];
      if (task.src_idx != target_idx) continue;
      const Relation& a = *task.rule->a;
      const Relation& b = *task.rule->b;
      const std::size_t arity = a.arity();
      // The delta tree iterates in key order, so the local probes below
      // reach the kernel sorted by join key.  b is static for the whole
      // stratum (check_supported), so the kernel's cursor stays valid.
      core::LocalJoin join(*task.rule, b.tree(Version::kFull), /*probe_is_a=*/true);
      // Replicate each fresh delta row to every rank holding a sub-bucket
      // of the static side's bucket — the point-to-point double of the BSP
      // intra-bucket exchange, paid per row instead of per iteration.
      a.tree(Version::kDelta).for_each([&](std::span<const value_t> row) {
        const auto bucket = a.bucket_of(row);
        b.ranks_of_bucket(bucket, dest_scratch_);
        for (int d : dest_scratch_) {
          ++work;
          ++kernel_.outer_tuples_shipped;
          if (d == comm_.rank()) {
            join.probe(row, sink_to(task.out_idx));
          } else {
            append_probe(j, static_cast<std::size_t>(d), row, arity);
          }
        }
      });
      kernel_ += join.counts();
    }

    for (const CopyTask& task : copies_) {
      if (task.src_idx != target_idx) continue;
      const core::CopyRule& rule = *task.rule;
      rule.src->tree(Version::kDelta).for_each([&](std::span<const value_t> row) {
        ++work;
        ++kernel_.probes;
        kernel_.matches += core::copy_row(rule, row, head_scratch_, sink_to(task.out_idx));
      });
    }
    profile_.add_work(Phase::kLocalJoin, work);
  }

  void route_output(std::size_t out_idx, std::span<const value_t> row) {
    Relation* t = targets_[out_idx];
    const int dst = t->owner_rank(row);
    if (dst == comm_.rank()) {
      // Loopback: self-owned rows join the staging area directly and are
      // folded by the next materialize on this rank — zero communication.
      t->stage(row);
      ++ls_.rows_loopback;
      return;
    }
    // Drop a row when this rank already queued its owner a value that
    // absorbs it (DESIGN.md §6.3).  A dropped row never counts toward the
    // batch, so frames stay full.
    if (dominance_.dominated(out_idx, static_cast<std::size_t>(dst), row)) {
      ++ls_.stage_rows_dominated;
      return;
    }
    auto& buf = stage_out_[out_idx * nranks_ + static_cast<std::size_t>(dst)];
    buf.insert(buf.end(), row.begin(), row.end());
    // Divide, never multiply: batch_rows * arity wraps for a huge batch.
    if (buf.size() / t->arity() >= cfg_.batch_rows) {
      send_stage_bucket(out_idx, static_cast<std::size_t>(dst));
    }
  }

  void append_probe(std::size_t join_idx, std::size_t dest, std::span<const value_t> row,
                    std::size_t arity) {
    auto& buf = probe_out_[join_idx * nranks_ + dest];
    buf.insert(buf.end(), row.begin(), row.end());
    if (buf.size() / arity >= cfg_.batch_rows) send_probe_bucket(join_idx, dest);
  }

  // -- outbound ---------------------------------------------------------------

  [[nodiscard]] std::size_t stage_arity(std::uint64_t out_idx) const {
    return targets_[out_idx]->arity();
  }
  [[nodiscard]] std::size_t probe_arity(std::uint64_t join_idx) const {
    return joins_[join_idx].rule->a->arity();
  }

  /// Ship one app frame and credit it to the Safra counters.
  void send_app(int dst, int tag, vmpi::RowFrameWriter& w) {
    comm_.isend(dst, tag, w.take());
    detector_.on_app_send();
    ++ls_.messages_sent;
  }

  void send_stage_bucket(std::size_t out_idx, std::size_t dest) {
    auto& buf = stage_out_[out_idx * nranks_ + dest];
    if (buf.empty()) return;
    PhaseScope scope(comm_, profile_, Phase::kAllToAll);
    const std::size_t arity = stage_arity(out_idx);
    vmpi::RowFrameWriter w;
    w.section(out_idx, arity, buf);
    send_app(static_cast<int>(dest), kTagStage, w);
    ls_.stage_rows_sent += buf.size() / arity;
    profile_.add_work(Phase::kAllToAll, buf.size() / arity);
    buf.clear();
  }

  void send_probe_bucket(std::size_t join_idx, std::size_t dest) {
    auto& buf = probe_out_[join_idx * nranks_ + dest];
    if (buf.empty()) return;
    PhaseScope scope(comm_, profile_, Phase::kAllToAll);
    const std::size_t arity = probe_arity(join_idx);
    vmpi::RowFrameWriter w;
    w.section(join_idx, arity, buf);
    send_app(static_cast<int>(dest), kTagProbe, w);
    ls_.probe_rows_sent += buf.size() / arity;
    profile_.add_work(Phase::kAllToAll, buf.size() / arity);
    buf.clear();
  }

  /// Ship everything buffered: one message per (kind, destination), frames
  /// for all routes concatenated — the same framing a router flush uses,
  /// minus the collective.
  void flush_all() {
    const auto me = static_cast<std::size_t>(comm_.rank());
    for (std::size_t d = 0; d < nranks_; ++d) {
      if (d == me) continue;
      {
        vmpi::RowFrameWriter w;
        std::uint64_t rows = 0;
        for (std::size_t i = 0; i < targets_.size(); ++i) {
          auto& buf = stage_out_[i * nranks_ + d];
          if (buf.empty()) continue;
          w.section(i, stage_arity(i), buf);
          rows += buf.size() / stage_arity(i);
          buf.clear();
        }
        if (!w.empty()) {
          PhaseScope scope(comm_, profile_, Phase::kAllToAll);
          send_app(static_cast<int>(d), kTagStage, w);
          ls_.stage_rows_sent += rows;
          profile_.add_work(Phase::kAllToAll, rows);
        }
      }
      {
        vmpi::RowFrameWriter w;
        std::uint64_t rows = 0;
        for (std::size_t j = 0; j < joins_.size(); ++j) {
          auto& buf = probe_out_[j * nranks_ + d];
          if (buf.empty()) continue;
          w.section(j, probe_arity(j), buf);
          rows += buf.size() / probe_arity(j);
          buf.clear();
        }
        if (!w.empty()) {
          PhaseScope scope(comm_, profile_, Phase::kAllToAll);
          send_app(static_cast<int>(d), kTagProbe, w);
          ls_.probe_rows_sent += rows;
          profile_.add_work(Phase::kAllToAll, rows);
        }
      }
    }
  }

  // -- inbound ----------------------------------------------------------------

  /// Credit one inbound app frame to the Safra counters and decode it.
  /// The reliable channel delivers each faultable frame exactly once, so
  /// every receive balances exactly one send.
  void on_app_frame(int tag, const vmpi::Bytes& bytes) {
    detector_.on_app_receive();
    ++ls_.messages_received;
    if (tag == kTagStage) {
      on_stage(bytes);
    } else {
      on_probe(bytes);
    }
  }

  std::size_t drain_app() {
    std::size_t n = 0;
    for (const int tag : {kTagStage, kTagProbe}) {
      n += comm_.drain(tag, [&](int, const vmpi::Bytes& b) { on_app_frame(tag, b); });
    }
    return n;
  }

  void on_stage(std::span<const std::byte> payload) {
    PhaseScope scope(comm_, profile_, Phase::kDedupAgg);
    vmpi::RowFrameReader r(payload);
    std::uint64_t rows = 0;
    while (!r.done()) {
      rows_scratch_.clear();
      const auto s = r.section(
          targets_.size(), [&](std::uint64_t i) { return stage_arity(i); }, rows_scratch_);
      targets_[s.route]->stage_rows(rows_scratch_);
      rows += s.count;
    }
    profile_.add_work(Phase::kDedupAgg, rows);
  }

  void on_probe(std::span<const std::byte> payload) {
    PhaseScope scope(comm_, profile_, Phase::kLocalJoin);
    vmpi::RowFrameReader r(payload);
    std::uint64_t rows = 0;
    while (!r.done()) {
      rows_scratch_.clear();
      const auto s = r.section(
          joins_.size(), [&](std::uint64_t j) { return probe_arity(j); }, rows_scratch_);
      const JoinTask& task = joins_[s.route];
      // Frames are concatenations of delta scans, so rows arrive in sorted
      // runs; the kernel's cursor rides the runs and re-descends only at
      // run seams.
      core::LocalJoin join(*task.rule, task.rule->b->tree(Version::kFull),
                           /*probe_is_a=*/true);
      join.probe_all(rows_scratch_, s.arity, sink_to(task.out_idx));
      kernel_ += join.counts();
      rows += s.count;
    }
    profile_.add_work(Phase::kLocalJoin, rows);
  }

  /// Park until *any* message arrives and dispatch it by tag.
  void blocking_wait() {
    const double t0 = wall_now();
    int src = 0;
    int tag = 0;
    const vmpi::Bytes bytes = comm_.recv(vmpi::kAnySource, vmpi::kAnyTag, &src, &tag);
    ls_.blocked_seconds += wall_now() - t0;
    if (detector_.owns_tag(tag)) {
      detector_.on_control(src, tag, bytes);
      return;
    }
    if (tag == kTagStage || tag == kTagProbe) {
      on_app_frame(tag, bytes);
      return;
    }
    // Foreign tag: an injected delay can carry a control message from an
    // earlier stratum's detector (its tag block is retired) across the
    // stratum boundary.  Stale by construction — discard, don't abort.
    comm_.stats().dup_frames_discarded += 1;
  }

  vmpi::Comm& comm_;
  const AsyncConfig& cfg_;
  core::RankProfile& profile_;
  AsyncLoopStats& ls_;
  core::JoinKernelTotals& kernel_;
  TerminationDetector detector_;

  std::vector<Relation*> targets_;
  std::vector<JoinTask> joins_;
  std::vector<CopyTask> copies_;
  std::vector<bool> fresh_;  // targets with an unconsumed delta frontier

  std::size_t nranks_;
  // Flat row buffers, route-major: [idx * nranks + dest], like the router.
  std::vector<std::vector<value_t>> stage_out_;
  std::vector<std::vector<value_t>> probe_out_;
  // What this rank queued each owner per loop target, same layout as
  // stage_out_; live only for aggregated kLattice targets (plain ones,
  // such as TC's, ship every row).
  core::DominanceFilter dominance_;

  std::uint64_t rounds_ = 0;
  std::uint64_t staged_total_ = 0;
  std::vector<int> dest_scratch_;
  Tuple head_scratch_;
  std::vector<value_t> rows_scratch_;  // decoded section rows

  double last_progress_ = 0;  // progress-watchdog clock
};

/// One bounded-round (Jacobi / kRefresh) stratum under the stale-
/// synchronous exactly-once protocol (DESIGN.md §12).  Epochs mirror BSP
/// iterations; each passes through three local steps:
///
///   scan(e)   — run the loop rules over this rank's partitions, read at
///               kFull in the state left by fold(e-1); join-side rows that
///               must probe a remote static partition ship as ONE epoch-
///               tagged probe frame per destination — empty frames
///               included, they are the "source finished epoch e"
///               completeness signal.  Gated by the staleness window: e may
///               exceed the token-carried watermark by at most
///               cfg.ssp_staleness (0 = honest lockstep).
///   close(e)  — once every rank's epoch-e probe frame has been joined
///               (first ledger complete), the locally generated
///               contributions — already pre-folded per (target, key), the
///               Partial Partial Aggregates move — ship as ONE partial
///               frame per destination; self-owned rows fold locally.
///   fold(e)   — once every rank's epoch-e partial frame has been merged
///               (second ledger complete) and epoch e-1 is folded, the
///               accumulators stage into the targets and materialize
///               (kRefresh replacement).  The fold advances the local
///               watermark that rides the Safra token.
///
/// Exactly-once: the reliable channel delivers each frame once, and the
/// per-source epoch ledger checks that each (source, epoch, kind) frame
/// arrives at most once and never for a retired epoch — a violation is a
/// typed FaultError — so every contribution enters exactly one fold.
/// Epoch arithmetic over a commutative+associative aggregate is then
/// oblivious to delivery order, so the fixpoint is bit-identical to the
/// BSP engine's, whatever reordering the network applied.
class SspStratumLoop {
 public:
  SspStratumLoop(vmpi::Comm& comm, const AsyncConfig& cfg, core::RankProfile& profile,
                 AsyncLoopStats& ls, core::JoinKernelTotals& kernel,
                 const core::Stratum& stratum, int detector_tag_base, std::size_t epochs)
      : comm_(comm),
        cfg_(cfg),
        profile_(profile),
        ls_(ls),
        kernel_(kernel),
        detector_(comm, detector_tag_base),
        targets_(targets_of(stratum.loop_rules)),
        nranks_(static_cast<std::size_t>(comm.size())),
        epochs_total_(epochs) {
    for (const auto& rule : stratum.loop_rules) {
      if (const auto* j = std::get_if<core::JoinRule>(&rule)) {
        joins_.push_back(SspJoin{j, target_index(j->out.target)});
      } else {
        const auto& c = std::get<core::CopyRule>(rule);
        copies_.push_back(SspCopy{&c, target_index(c.out.target)});
      }
    }
    probe_out_.resize(joins_.size() * nranks_);
    // Quiescence alone is not completion when epochs are pipelined: rank 0
    // must also see every rank's watermark at the final epoch.
    detector_.require_watermark(epochs_total_);
  }

  /// Loop until the detector announces global completion.  No collectives.
  void run() {
    const double deadline = comm_.watchdog_seconds();
    last_progress_ = wall_now();

    while (!detector_.terminated()) {
      bool progressed = drain_app() > 0;
      if (try_advance()) progressed = true;
      if (progressed) {
        last_progress_ = wall_now();
        continue;
      }

      // Passive: ledgers incomplete or the staleness gate is shut.  Move
      // the termination/watermark protocol along — a token can raise the
      // watermark estimate, so re-check the gate before parking.
      {
        PhaseScope scope(comm_, profile_, Phase::kOther);
        detector_.poll();
        detector_.try_terminate();
      }
      if (detector_.terminated()) break;
      if (try_advance()) {
        last_progress_ = wall_now();
        continue;
      }
      if (deadline > 0 && wall_now() - last_progress_ > deadline) {
        comm_.world().fault_abort();
        throw vmpi::TimeoutError("ssp loop (epoch pipeline starved, no progress)",
                                 deadline, comm_.stats());
      }
      blocking_wait();
    }
  }

  [[nodiscard]] std::uint64_t epochs_folded() const { return fold_epoch_; }
  [[nodiscard]] std::uint64_t staged_total() const { return staged_total_; }
  [[nodiscard]] const TerminationDetector::Stats& detector_stats() const {
    return detector_.stats();
  }

 private:
  struct SspJoin {
    const core::JoinRule* rule;
    std::size_t out_idx;  // index of rule->out.target in targets_
  };
  struct SspCopy {
    const core::CopyRule* rule;
    std::size_t out_idx;
  };

  /// Live state of one in-flight epoch.  At most ssp_staleness + 2 epochs
  /// are live at once (the gate bounds how far any sender runs ahead of
  /// this rank's fold), and a folded epoch's state is erased — the ledger
  /// for retired epochs is the fold_epoch_ cursor itself.
  struct EpochState {
    /// Per target: the epoch's contributions, folded per key through the
    /// target's aggregator.  Until close(e) it gathers this rank's
    /// generated rows (and any owned partials already arrived); close(e)
    /// ships the rows other ranks own, and fold(e) stages the rest.
    std::vector<core::FoldRun> acc;
    std::vector<bool> probe_from;  // first ledger: epoch-e probe frame per source
    std::vector<bool> partial_from;  // second ledger: epoch-e partial frame
    std::size_t probes_seen = 0;
    std::size_t partials_seen = 0;
    bool scanned = false;
    bool closed = false;
  };

  std::size_t target_index(Relation* r) const {
    const auto it = std::find(targets_.begin(), targets_.end(), r);
    assert(it != targets_.end() && "check_supported admitted a foreign relation");
    return static_cast<std::size_t>(it - targets_.begin());
  }

  EpochState& epoch_state(std::uint64_t e) {
    auto [it, inserted] = live_.try_emplace(e);
    EpochState& st = it->second;
    if (inserted) {
      for (const Relation* t : targets_) {
        st.acc.emplace_back(t->arity(), t->indep_arity(), t->config().aggregator.get());
      }
      st.probe_from.assign(nranks_, false);
      st.partial_from.assign(nranks_, false);
    }
    return st;
  }

  /// Kernel sink folding head rows into the epoch's accumulator.
  [[nodiscard]] static auto sink_to(core::FoldRun& acc) {
    return [&acc](std::span<const value_t> row) { acc.append(row); };
  }

  // -- the three epoch steps ---------------------------------------------------

  [[nodiscard]] bool can_scan() const {
    // scan(e) reads the state fold(e-1) left behind, so the local pipeline
    // is scan-fold interlocked; the watermark gate additionally keeps this
    // rank within the staleness window of the slowest peer.
    return scan_epoch_ == fold_epoch_ && scan_epoch_ < epochs_total_ &&
           scan_epoch_ <= detector_.global_watermark() + cfg_.ssp_staleness;
  }

  void scan() {
    const std::uint64_t e = scan_epoch_;
    EpochState& st = epoch_state(e);
    {
      PhaseScope scope(comm_, profile_, Phase::kLocalJoin);
      std::uint64_t work = 0;
      for (const SspCopy& task : copies_) {
        const core::CopyRule& rule = *task.rule;
        rule.src->tree(Version::kFull).for_each([&](std::span<const value_t> row) {
          ++work;
          ++kernel_.probes;
          kernel_.matches +=
              core::copy_row(rule, row, head_scratch_, sink_to(st.acc[task.out_idx]));
        });
      }
      for (std::size_t j = 0; j < joins_.size(); ++j) {
        const SspJoin& task = joins_[j];
        const Relation& a = *task.rule->a;
        const Relation& b = *task.rule->b;
        core::LocalJoin join(*task.rule, b.tree(Version::kFull), /*probe_is_a=*/true);
        a.tree(Version::kFull).for_each([&](std::span<const value_t> row) {
          const auto bucket = a.bucket_of(row);
          b.ranks_of_bucket(bucket, dest_scratch_);
          for (int d : dest_scratch_) {
            ++work;
            ++kernel_.outer_tuples_shipped;
            if (d == comm_.rank()) {
              join.probe(row, sink_to(st.acc[task.out_idx]));
            } else {
              auto& buf = probe_out_[j * nranks_ + static_cast<std::size_t>(d)];
              buf.insert(buf.end(), row.begin(), row.end());
            }
          }
        });
        kernel_ += join.counts();
      }
      profile_.add_work(Phase::kLocalJoin, work);
    }
    send_probe_frames(e);
    st.scanned = true;
    // Own probes were joined in place above: the ledger slot fills now.
    st.probe_from[static_cast<std::size_t>(comm_.rank())] = true;
    ++st.probes_seen;
    ++scan_epoch_;
  }

  void close_epoch(std::uint64_t e) {
    EpochState& st = epoch_state(e);
    const auto me = static_cast<std::size_t>(comm_.rank());
    // Partition the folded contributions by owner: the rest frame up per
    // destination, own rows stay in the accumulator for fold(e).
    std::vector<std::vector<value_t>> out(targets_.size() * nranks_);
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      const Relation& t = *targets_[i];
      core::FoldRun& acc = st.acc[i];
      acc.fold();
      const auto rows = acc.values();
      for (std::size_t off = 0; off < rows.size(); off += t.arity()) {
        const auto row = rows.subspan(off, t.arity());
        auto& buf = out[i * nranks_ + static_cast<std::size_t>(t.owner_rank(row))];
        buf.insert(buf.end(), row.begin(), row.end());
      }
      const auto& own = out[i * nranks_ + me];
      ls_.rows_loopback += own.size() / t.arity();
      acc.clear();
      acc.append(own);
    }
    {
      PhaseScope scope(comm_, profile_, Phase::kAllToAll);
      for (std::size_t d = 0; d < nranks_; ++d) {
        if (d == me) continue;
        vmpi::RowFrameWriter w;
        w.word(e);
        std::uint64_t rows = 0;
        for (std::size_t i = 0; i < targets_.size(); ++i) {
          const auto& buf = out[i * nranks_ + d];
          if (buf.empty()) continue;
          w.section(i, target_arity(i), buf);
          rows += buf.size() / target_arity(i);
        }
        send_app(static_cast<int>(d), kTagSspPartial, w);
        ls_.stage_rows_sent += rows;
        profile_.add_work(Phase::kAllToAll, rows);
      }
    }
    st.closed = true;
    // Own partial contribution is folded: fill the second ledger slot.
    st.partial_from[me] = true;
    ++st.partials_seen;
    ++ls_.ssp_partials_folded;
  }

  void fold_epoch() {
    const std::uint64_t e = fold_epoch_;
    EpochState& st = epoch_state(e);
    {
      PhaseScope scope(comm_, profile_, Phase::kDedupAgg);
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        Relation* t = targets_[i];
        t->stage_rows(st.acc[i].values());
        // Materialize every target every epoch, rows or not: kRefresh
        // replacement clears the previous state exactly as a BSP iteration
        // boundary would.
        const auto m = t->materialize();
        profile_.add_work(Phase::kDedupAgg, m.staged);
        staged_total_ += m.staged;
      }
    }
    live_.erase(e);
    ++fold_epoch_;
    ++ls_.ssp_epochs;
    detector_.set_local_watermark(fold_epoch_);
    // Epoch boundary: release injected delays, apply epoch faults — the
    // SSP analogue of the BSP iteration boundary.
    comm_.advance_epoch();
    profile_.end_iteration();
  }

  /// Run every enabled epoch step until none applies.  Returns whether
  /// anything happened.
  bool try_advance() {
    bool any = false;
    for (bool progressed = true; progressed;) {
      progressed = false;
      if (fold_epoch_ < epochs_total_) {
        const auto it = live_.find(fold_epoch_);
        if (it != live_.end() && it->second.partials_seen == nranks_) {
          fold_epoch();
          progressed = true;
          continue;
        }
      }
      for (auto& [e, st] : live_) {
        if (st.scanned && !st.closed && st.probes_seen == nranks_) {
          close_epoch(e);
          progressed = true;
          break;
        }
      }
      if (progressed) {
        any = true;
        continue;
      }
      if (can_scan()) {
        scan();
        progressed = true;
      }
      any = any || progressed;
    }
    return any;
  }

  // -- outbound ----------------------------------------------------------------

  [[nodiscard]] std::size_t target_arity(std::uint64_t i) const {
    return targets_[i]->arity();
  }
  [[nodiscard]] std::size_t probe_arity(std::uint64_t j) const {
    return joins_[j].rule->a->arity();
  }

  void send_app(int dst, int tag, vmpi::RowFrameWriter& w) {
    comm_.isend(dst, tag, w.take());
    detector_.on_app_send();
    ++ls_.messages_sent;
  }

  void send_probe_frames(std::uint64_t e) {
    PhaseScope scope(comm_, profile_, Phase::kAllToAll);
    const auto me = static_cast<std::size_t>(comm_.rank());
    for (std::size_t d = 0; d < nranks_; ++d) {
      if (d == me) continue;
      vmpi::RowFrameWriter w;
      w.word(e);
      std::uint64_t rows = 0;
      for (std::size_t j = 0; j < joins_.size(); ++j) {
        auto& buf = probe_out_[j * nranks_ + d];
        if (buf.empty()) continue;
        w.section(j, probe_arity(j), buf);
        rows += buf.size() / probe_arity(j);
        buf.clear();
      }
      send_app(static_cast<int>(d), kTagSspProbe, w);
      ls_.probe_rows_sent += rows;
      profile_.add_work(Phase::kAllToAll, rows);
    }
  }

  // -- inbound -----------------------------------------------------------------

  void on_ssp_frame(int src, int tag, const vmpi::Bytes& bytes) {
    vmpi::RowFrameReader r(bytes);
    if (r.done()) throw vmpi::FrameDecodeError("ssp: frame has no epoch word");
    const std::uint64_t e = r.word();
    if (e >= epochs_total_) {
      throw vmpi::FrameDecodeError("ssp: frame epoch out of range");
    }
    const auto s = static_cast<std::size_t>(src);
    const bool probe_kind = tag == kTagSspProbe;
    // The epoch ledger, checked before the Safra counter is credited and
    // before anything reaches an accumulator: exactly one frame of each
    // kind per (source, epoch) is the sender's contract, and the reliable
    // channel delivers each frame once, so a second one is a protocol
    // violation.  An epoch below the fold cursor was only folded because
    // every source's slot had filled, so a frame for it is one too.
    if (e < fold_epoch_) {
      throw vmpi::FaultError("ssp: frame for retired epoch " + std::to_string(e) +
                             " from rank " + std::to_string(src));
    }
    const EpochState& seen = epoch_state(e);
    if (probe_kind ? seen.probe_from[s] : seen.partial_from[s]) {
      throw vmpi::FaultError("ssp: second frame for epoch " + std::to_string(e) +
                             " from rank " + std::to_string(src));
    }
    detector_.on_app_receive();
    ++ls_.messages_received;
    if (probe_kind) {
      on_ssp_probe(e, r);
      EpochState& st = epoch_state(e);
      st.probe_from[s] = true;
      ++st.probes_seen;
    } else {
      on_ssp_partial(e, r);
      EpochState& st = epoch_state(e);
      st.partial_from[s] = true;
      ++st.partials_seen;
      ++ls_.ssp_partials_folded;
    }
  }

  void on_ssp_probe(std::uint64_t e, vmpi::RowFrameReader& r) {
    PhaseScope scope(comm_, profile_, Phase::kLocalJoin);
    EpochState& st = epoch_state(e);
    std::uint64_t rows = 0;
    while (!r.done()) {
      rows_scratch_.clear();
      const auto s = r.section(
          joins_.size(), [&](std::uint64_t j) { return probe_arity(j); }, rows_scratch_);
      const SspJoin& task = joins_[s.route];
      core::LocalJoin join(*task.rule, task.rule->b->tree(Version::kFull),
                           /*probe_is_a=*/true);
      join.probe_all(rows_scratch_, s.arity, sink_to(st.acc[task.out_idx]));
      kernel_ += join.counts();
      rows += s.count;
    }
    profile_.add_work(Phase::kLocalJoin, rows);
  }

  void on_ssp_partial(std::uint64_t e, vmpi::RowFrameReader& r) {
    PhaseScope scope(comm_, profile_, Phase::kDedupAgg);
    EpochState& st = epoch_state(e);
    std::uint64_t rows = 0;
    while (!r.done()) {
      rows_scratch_.clear();
      const auto s = r.section(
          targets_.size(), [&](std::uint64_t i) { return target_arity(i); }, rows_scratch_);
      st.acc[s.route].append(rows_scratch_);
      rows += s.count;
    }
    profile_.add_work(Phase::kDedupAgg, rows);
  }

  std::size_t drain_app() {
    std::size_t n = 0;
    n += comm_.drain(kTagSspProbe,
                     [&](int src, vmpi::Bytes b) { on_ssp_frame(src, kTagSspProbe, b); });
    n += comm_.drain(kTagSspPartial, [&](int src, vmpi::Bytes b) {
      on_ssp_frame(src, kTagSspPartial, b);
    });
    return n;
  }

  /// Park until *any* message arrives and dispatch it by tag.
  void blocking_wait() {
    const double t0 = wall_now();
    int src = 0;
    int tag = 0;
    const vmpi::Bytes bytes = comm_.recv(vmpi::kAnySource, vmpi::kAnyTag, &src, &tag);
    ls_.blocked_seconds += wall_now() - t0;
    if (detector_.owns_tag(tag)) {
      detector_.on_control(src, tag, bytes);
      return;
    }
    if (tag == kTagSspProbe || tag == kTagSspPartial) {
      on_ssp_frame(src, tag, bytes);
      return;
    }
    // Foreign tag: a delayed control frame from a retired stratum's
    // detector.  Stale by construction — discard, don't abort.
    comm_.stats().dup_frames_discarded += 1;
  }

  vmpi::Comm& comm_;
  const AsyncConfig& cfg_;
  core::RankProfile& profile_;
  AsyncLoopStats& ls_;
  core::JoinKernelTotals& kernel_;
  TerminationDetector detector_;

  std::vector<Relation*> targets_;
  std::vector<SspJoin> joins_;
  std::vector<SspCopy> copies_;

  std::size_t nranks_;
  std::uint64_t epochs_total_;
  std::uint64_t scan_epoch_ = 0;  // epochs scanned (own contributions sent)
  std::uint64_t fold_epoch_ = 0;  // epochs folded (state visible at kFull)
  std::unordered_map<std::uint64_t, EpochState> live_;

  // Per-destination probe buffers of the epoch being scanned, join-major.
  std::vector<std::vector<value_t>> probe_out_;

  std::uint64_t staged_total_ = 0;
  std::vector<int> dest_scratch_;
  Tuple head_scratch_;
  std::vector<value_t> rows_scratch_;  // decoded section rows
  double last_progress_ = 0;
};

}  // namespace

void AsyncEngine::validate_config(const AsyncConfig& cfg) {
  if (cfg.batch_rows == 0) {
    throw ConfigError("async engine: batch_rows = 0 — eager sends need a positive "
                      "row threshold");
  }
}

void AsyncEngine::check_supported(const core::Program& program, const AsyncConfig& cfg) {
  // Collect every violation, deduplicated, and throw ONE typed diagnostic:
  // the same relation can be the target of several rules (and a program can
  // offend in several strata), and the old per-target throw-on-first shape
  // meant callers that catch-print-continue reported the same defect twice
  // while hiding the rest.
  std::vector<std::string> violations;
  const auto flag = [&](std::string msg) {
    if (std::find(violations.begin(), violations.end(), msg) == violations.end()) {
      violations.push_back(std::move(msg));
    }
  };

  std::size_t si = 0;
  for (const auto& sptr : program.strata()) {
    const core::Stratum& s = *sptr;
    const std::string where = "stratum " + std::to_string(si++);
    if (s.loop_rules.empty()) continue;
    const auto targets = targets_of(s.loop_rules);
    const bool ssp_stratum = !s.fixpoint && cfg.ssp;

    if (!s.fixpoint && !cfg.ssp) {
      flag(where +
           " runs a fixed number of rounds (fixpoint = false, Jacobi-style refresh "
           "recomputation, e.g. PageRank); its semantics depend on synchronized "
           "rounds — run it on the BSP core::Engine, or opt into the "
           "stale-synchronous mode (AsyncConfig::ssp / --staleness)");
      continue;  // the remaining checks assume one of the two loop protocols
    }

    for (const Relation* t : targets) {
      if (ssp_stratum) {
        if (!t->aggregated()) {
          flag(where + ": relation '" + t->name() +
               "' is not aggregated; the stale-synchronous protocol folds per-epoch "
               "partial aggregates, so every loop target needs an aggregator");
          continue;
        }
        if (!t->config().aggregator->exactly_once_capable()) {
          flag(where + ": relation '" + t->name() + "' aggregates with " +
               std::string(t->config().aggregator->name()) +
               ", which is not exactly-once capable (commutative + associative); "
               "the epoch ledger cannot make its folds order-insensitive");
        }
        if (t->config().agg_mode == core::AggMode::kRefresh &&
            t->aggregated() && !t->config().aggregator->invertible()) {
          flag(where + ": relation '" + t->name() + "' refreshes with " +
               std::string(t->config().aggregator->name()) +
               ", which declares no pre-mappable inverse (RecursiveAggregator::"
               "unapply); kRefresh under stale-synchronous folding requires one "
               "to retract a superseded contribution");
        }
      } else {
        if (t->config().agg_mode == core::AggMode::kRefresh) {
          flag(where + ": relation '" + t->name() +
               "' uses AggMode::kRefresh (per-round replacement), which is not "
               "order-insensitive — run it on the BSP core::Engine, or opt into "
               "the stale-synchronous mode (AsyncConfig::ssp / --staleness)");
        }
        if (t->aggregated() && !t->config().aggregator->idempotent()) {
          flag(where + ": relation '" + t->name() + "' aggregates with " +
               std::string(t->config().aggregator->name()) +
               ", which is not idempotent — asynchronous delivery may fold a stale "
               "delta more than once, so only idempotent lattice joins ($MIN, $MAX, "
               "set-union, ...) are safe; run it on the BSP core::Engine");
        }
      }
    }
    for (const auto& rule : s.loop_rules) {
      if (const auto* j = std::get_if<core::JoinRule>(&rule)) {
        if (j->anti) {
          flag(where + ": antijoin against '" + j->b->name() +
               "' — deciding absence needs a globally synchronized view; run it on "
               "the BSP core::Engine");
        }
        if (ssp_stratum) {
          if (std::find(targets.begin(), targets.end(), j->a) == targets.end() ||
              j->a_version != Version::kFull) {
            flag(where + ": stale-synchronous loop join must scan a loop target at "
                         "kFull (the state the previous epoch's fold left behind), "
                         "but reads '" +
                 j->a->name() + "'");
          }
        } else if (std::find(targets.begin(), targets.end(), j->a) == targets.end() ||
                   j->a_version != Version::kDelta) {
          flag(where + ": loop join must drive from the recursive relation's delta "
                       "(side a must be a loop target read at kDelta), but reads '" +
               j->a->name() + "'");
        }
        if (std::find(targets.begin(), targets.end(), j->b) != targets.end()) {
          flag(where + ": join side '" + j->b->name() +
               "' is itself a loop target; the asynchronous schedule requires a "
               "static probe side");
        }
        if (j->b_version != Version::kFull) {
          flag(where + ": the static join side '" + j->b->name() +
               "' must be probed at kFull");
        }
      } else {
        const auto& c = std::get<core::CopyRule>(rule);
        if (ssp_stratum) {
          if (std::find(targets.begin(), targets.end(), c.src) != targets.end() ||
              c.version != Version::kFull) {
            flag(where + ": stale-synchronous loop copy must read a static relation "
                         "at kFull (it re-injects per-epoch base contributions), "
                         "but reads '" +
                 c.src->name() + "'");
          }
        } else if (std::find(targets.begin(), targets.end(), c.src) == targets.end() ||
                   c.version != Version::kDelta) {
          flag(where + ": loop copy must read a loop target's delta, but reads '" +
               c.src->name() + "'");
        }
      }
    }
  }

  if (!violations.empty()) {
    std::string msg = "async engine: program not async-capable (" +
                      std::to_string(violations.size()) + " violation" +
                      (violations.size() == 1 ? "" : "s") + "):";
    for (const auto& v : violations) msg += "\n  - " + v;
    throw UnsupportedProgramError(msg);
  }
}

core::StratumResult AsyncEngine::run_stratum(const core::Stratum& stratum) {
  core::StratumResult result;
  const int detector_base =
      TerminationDetector::kDefaultTagBase + static_cast<int>(2 * stratum_seq_++);

  // ---- init rules: the collective path, as in the BSP engine ----------------
  // Collectives are only banned *inside* the loop; init runs once and the
  // stratum boundary is a synchronization point anyway.
  if (!stratum.init_rules.empty()) {
    core::ExchangeRouter router(*comm_, /*preaggregate=*/true);
    for (const auto& rule : stratum.init_rules) {
      if (const auto* j = std::get_if<core::JoinRule>(&rule)) {
        local_kernel_ += core::execute_join(*comm_, profile_, *j, router);
      } else {
        local_kernel_ += core::execute_copy(profile_, std::get<core::CopyRule>(rule), router);
      }
    }
    local_router_ += router.flush(profile_, core::ExchangeAlgorithm::kDense);
    {
      PhaseScope scope(*comm_, profile_, Phase::kDedupAgg);
      for (Relation* t : targets_of(stratum.init_rules)) {
        const auto m = t->materialize();
        profile_.add_work(Phase::kDedupAgg, m.staged);
      }
    }
    profile_.end_iteration();
  }

  if (stratum.loop_rules.empty()) {
    result.reached_fixpoint = true;
    return result;
  }

  // ---- the nonblocking loop --------------------------------------------------
  // Fixpoint strata run the free-running delta loop; bounded-round strata
  // run the stale-synchronous epoch pipeline (check_supported admitted them
  // only under cfg_.ssp).  Both are collective-free.
  const auto collectives_before = collective_calls(comm_->stats());
  std::uint64_t rounds = 0;
  std::uint64_t staged = 0;
  if (stratum.fixpoint) {
    StratumLoop loop(*comm_, cfg_, profile_, loop_stats_, local_kernel_, stratum,
                     detector_base);
    loop.run();
    rounds = loop.rounds();
    staged = loop.staged_total();
    loop_stats_.token_probes += loop.detector_stats().probes_started;
    loop_stats_.tokens_forwarded += loop.detector_stats().tokens_forwarded;
  } else {
    const std::size_t epochs = std::min(stratum.max_rounds, cfg_.max_rounds);
    SspStratumLoop loop(*comm_, cfg_, profile_, loop_stats_, local_kernel_, stratum,
                        detector_base, epochs);
    loop.run();
    rounds = loop.epochs_folded();
    staged = loop.staged_total();
    loop_stats_.token_probes += loop.detector_stats().probes_started;
    loop_stats_.tokens_forwarded += loop.detector_stats().tokens_forwarded;
  }
  loop_stats_.collective_calls_in_loop +=
      collective_calls(comm_->stats()) - collectives_before;

  // Fence before the first post-loop collective.  The block allgather
  // relays over the mailboxes, and a rank that learns of termination late
  // is still parked in the loop's wildcard recv — it would swallow (and
  // discard as stale) a relay frame from a peer that already moved on.
  // The barrier is a generation counter that touches no mailbox, so it is
  // safe at any interleaving and guarantees every wildcard recv has
  // retired before the first relay frame flies.
  comm_->barrier();

  // ---- stratum summary (collective; doubles as the inter-stratum sync) -------
  {
    PhaseScope scope(*comm_, profile_, Phase::kOther);
    result.iterations = static_cast<std::size_t>(
        comm_->allreduce<std::uint64_t>(rounds, vmpi::ReduceOp::kMax));
    result.tuples_generated =
        comm_->allreduce<std::uint64_t>(staged, vmpi::ReduceOp::kSum);
  }
  profile_.end_iteration();
  result.reached_fixpoint = true;
  return result;
}

core::RunResult AsyncEngine::run(core::Program& program) {
  validate_config(cfg_);
  program.validate();
  check_supported(program, cfg_);

  core::RunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    for (const auto& stratum : program.strata()) {
      auto sr = run_stratum(*stratum);
      result.total_iterations += sr.iterations;
      result.strata.push_back(sr);
    }
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    // The cross-rank summary is collective too: a peer that faults while
    // this rank waits here must end this rank's run typed as well.
    result.profile = core::summarize_profiles(*comm_, profile_);
    vmpi::StatsPause pause(*comm_);
    const auto all = comm_->allgather_stats(comm_->stats());
    for (const auto& s : all) result.comm_total += s;
    core::reduce_kernel_totals(*comm_, local_kernel_, result);
    core::RouterTotals router = local_router_;
    router.rows_sent += loop_stats_.stage_rows_sent;
    router.rows_dominated += loop_stats_.stage_rows_dominated;
    core::reduce_router_totals(*comm_, router, result);
  } catch (const vmpi::FaultError& e) {
    // Same contract as core::Engine: poison the world (idempotent) so
    // peers unwind, and surface a typed abort instead of the rest of the
    // summary — its collectives cannot run on a poisoned world.
    comm_->world().fault_abort();
    result.aborted_fault = true;
    result.fault_what = e.what();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return result;
}

}  // namespace paralagg::async
