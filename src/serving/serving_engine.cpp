#include "serving/serving_engine.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <unordered_set>
#include <utility>
#include <variant>

#include "core/expr.hpp"
#include "core/ra_op.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/serialize.hpp"

namespace paralagg::serving {

namespace {

using core::Expr;

void append_row(std::vector<value_t>& buf, std::span<const value_t> row) {
  buf.insert(buf.end(), row.begin(), row.end());
}

Relation* target_of(const core::Rule& rule) {
  return std::visit([](const auto& r) { return r.out.target; }, rule);
}

template <typename Map>
std::span<const Tuple> rows_of(const Map& m, Relation* r) {
  const auto it = m.find(r);
  return it == m.end() ? std::span<const Tuple>{} : std::span<const Tuple>(it->second);
}

/// The engine settings serving's bookkeeping depends on, applied over the
/// caller's knobs (see ServingConfig::engine).
core::EngineConfig serving_engine_config(core::EngineConfig e) {
  e.router_preagg = false;                       // support counts need per-event staging
  e.exchange = core::ExchangeAlgorithm::kDense;  // leader merges would collapse events
  e.balance.enabled = false;                     // owners must stay put mid-service
  e.skew.enabled = false;                        // retraction needs owner placement
  e.checkpoint_every = 0;                        // serving checkpoints at batch boundaries
  e.checkpoint_path.clear();
  return e;
}

constexpr std::span<const value_t> kNoSide;  // absent side B of a copy rule

}  // namespace

ServingEngine::ServingEngine(vmpi::Comm& comm, core::Program& program, ServingConfig cfg)
    : comm_(&comm),
      program_(&program),
      cfg_(std::move(cfg)),
      engine_(comm, serving_engine_config(cfg_.engine)) {
  program_->validate();
  classify_and_validate();
}

bool ServingEngine::is_base(const Relation* r) const {
  return std::find(base_.begin(), base_.end(), r) != base_.end();
}

Relation* ServingEngine::find_relation(const std::string& name) const {
  for (const auto& rel : program_->relations()) {
    if (rel->name() == name) return rel.get();
  }
  throw ServingError("unknown relation '" + name + "'");
}

void ServingEngine::classify_and_validate() {
  const auto& strata = program_->strata();
  if (strata.empty() || strata[0]->loop_rules.empty()) {
    throw ServingError(
        "serving needs a recursive first stratum (loop rules to maintain)");
  }
  if (!strata[0]->fixpoint) {
    throw ServingError("refresh (fixed-round) strata cannot be served incrementally");
  }
  for (std::size_t i = 1; i < strata.size(); ++i) {
    if (!strata[i]->loop_rules.empty()) {
      throw ServingError("serving supports exactly one recursive stratum (stratum " +
                         std::to_string(i) + " is also recursive)");
    }
  }
  recursive_ = strata[0].get();
  for (const auto& r : recursive_->init_rules) rec_rules_.push_back(&r);
  for (const auto& r : recursive_->loop_rules) rec_rules_.push_back(&r);

  // Derived = targeted by any rule anywhere; base = everything else.
  std::unordered_set<const Relation*> targeted;
  for (const auto& s : strata) {
    for (const auto* rules : {&s->init_rules, &s->loop_rules}) {
      for (const auto& r : *rules) targeted.insert(target_of(r));
    }
  }
  for (const auto& rel : program_->relations()) {
    if (!targeted.contains(rel.get())) base_.push_back(rel.get());
  }

  const auto push_unique = [](std::vector<Relation*>& v, Relation* r) {
    if (std::find(v.begin(), v.end(), r) == v.end()) v.push_back(r);
  };
  for (const core::Rule* r : rec_rules_) push_unique(rec_targets_, target_of(*r));
  for (std::size_t i = 1; i < strata.size(); ++i) {
    for (const auto& r : strata[i]->init_rules) {
      Relation* t = target_of(r);
      if (std::find(rec_targets_.begin(), rec_targets_.end(), t) != rec_targets_.end()) {
        throw ServingError("projection stratum rewrites maintained relation '" +
                           t->name() + "'");
      }
      push_unique(proj_targets_, t);
    }
  }

  // Per producing rule: how recovery will locate a retracted key's premises.
  for (const core::Rule* rp : rec_rules_) {
    Recovery rc;
    Relation* premise = nullptr;
    if (const auto* j = std::get_if<core::JoinRule>(rp)) {
      if (j->anti) throw ServingError("antijoin rules cannot be maintained incrementally");
      const bool ab = is_base(j->a), bb = is_base(j->b);
      if (ab == bb) {
        throw ServingError("recursive join over '" + j->a->name() + "'/'" +
                           j->b->name() + "' must pair one base and one derived side");
      }
      const Expr& key = j->out.cols[0];
      if (key.kind() == Expr::Kind::kColA) {
        rc.premise_is_b = false;
        premise = j->a;
      } else if (key.kind() == Expr::Kind::kColB) {
        rc.premise_is_b = true;
        premise = j->b;
      } else {
        throw ServingError("rule head key into '" + j->out.target->name() +
                           "' must be a plain body column");
      }
      rc.col = key.col_index();
    } else {
      const auto& c = std::get<core::CopyRule>(*rp);
      const Expr& key = c.out.cols[0];
      if (key.kind() != Expr::Kind::kColA) {
        throw ServingError("copy-rule head key into '" + c.out.target->name() +
                           "' must be a plain source column");
      }
      premise = c.src;
      rc.col = key.col_index();
    }
    Relation* target = target_of(*rp);
    if (target->aggregated() && target->config().agg_mode != core::AggMode::kLattice) {
      throw ServingError("refresh aggregate '" + target->name() +
                         "' cannot be served incrementally");
    }
    if (rc.col == 0 && premise->jcc() == 1) {
      rc.via = Recovery::Via::kScanPrefix;  // the premise tree's own prefix
    } else {
      if (!is_base(premise)) {
        throw ServingError("head key of '" + target->name() +
                           "' must be the derived side's leading join column or a "
                           "base-side column");
      }
      rc.via = Recovery::Via::kReverseIndex;
      Relation* rev = nullptr;
      for (const RevSpec& rs : revs_) {
        if (rs.base == premise && rs.col == rc.col) rev = rs.rev;
      }
      if (rev == nullptr) {
        core::RelationConfig rcfg;
        rcfg.name = premise->name() + "_rx" + std::to_string(rc.col);
        rcfg.arity = premise->arity() + 1;
        rcfg.jcc = 1;
        rev_store_.push_back(std::make_unique<Relation>(*comm_, std::move(rcfg)));
        rev = rev_store_.back().get();
        revs_.push_back(RevSpec{premise, rc.col, rev});
      }
      rc.rev = rev;
    }
    recovery_.push_back(rc);
  }

  // Exact event bookkeeping for plain recursive targets; aggregated ones
  // retract by value match instead (file comment).
  for (Relation* t : rec_targets_) {
    if (!t->aggregated()) t->enable_support_counts();
  }
}

std::vector<value_t> ServingEngine::exchange_flat(std::vector<std::vector<value_t>> send) {
  // Owner-routed mutation rows ride the faultable split-phase exchange
  // (the dense alltoallv would bypass fault injection and the reliable
  // transport entirely), so the reliable channel checks and deduplicates
  // every frame before the decode.
  const auto n = send.size();
  std::vector<vmpi::Bytes> raw(n);
  for (std::size_t d = 0; d < n; ++d) {
    vmpi::TypedWriter<value_t> w(send[d].size());
    w.put_span(std::span<const value_t>(send[d]));
    raw[d] = w.take();
  }
  auto ticket = comm_->ialltoallv(std::move(raw));
  const auto got = comm_->wait(ticket);
  std::size_t total = 0;
  for (const auto& b : got) total += b.size() / sizeof(value_t);
  std::vector<value_t> flat;
  flat.reserve(total);
  for (const auto& b : got) {
    const std::size_t old = flat.size();
    flat.resize(old + b.size() / sizeof(value_t));
    if (!b.empty()) std::memcpy(flat.data() + old, b.data(), b.size());
  }
  return flat;
}

std::vector<std::pair<Relation*, Relation::LocalSnapshot>> ServingEngine::snapshot_all()
    const {
  std::vector<std::pair<Relation*, Relation::LocalSnapshot>> snaps;
  if (!cfg_.rollback) return snaps;
  for (const auto& rel : program_->relations()) {
    snaps.emplace_back(rel.get(), rel->snapshot());
  }
  for (const auto& rev : rev_store_) snaps.emplace_back(rev.get(), rev->snapshot());
  return snaps;
}

bool ServingEngine::roll_back(
    std::vector<std::pair<Relation*, Relation::LocalSnapshot>>& snaps,
    UpdateResult& res) {
  if (snaps.empty()) return false;  // rollback disabled
  // Collective un-poisoning: every live rank parks in the reset
  // rendezvous (peers of a killed rank arrive once their watchdog fires
  // and their own abort unwinds to here).  A rank that never arrives
  // means real process death — the rendezvous times out, the world stays
  // poisoned, and this engine stops serving.
  if (!comm_->fault_reset(cfg_.rollback_timeout_seconds)) return false;
  for (auto& [rel, snap] : snaps) rel->restore(snap);
  res.rolled_back = true;
  return true;
}

bool ServingEngine::can_warm_start() {
  if (cfg_.manifest_path.empty()) return false;  // config: identical on all ranks
  std::uint8_t exists = 0;
  if (comm_->rank() == 0) {
    exists = std::filesystem::exists(cfg_.manifest_path) ? 1 : 0;
  }
  return comm_->bcast_value<std::uint8_t>(0, exists) != 0;
}

core::RunResult ServingEngine::start() {
  if (ready_) throw ServingError("start() called twice");
  core::RunResult rr;
  if (can_warm_start()) {
    core::load_manifest(*program_, cfg_.manifest_path);
    // load_manifest counts one event per key; the superset pass below
    // recounts every surviving derivation exactly once (a plain row enters
    // the delta exactly once, so each producing pair fires exactly once).
    // Clear first so plain-target counts stay exact across restarts.
    for (Relation* t : rec_targets_) t->clear_support_counts();
    rr = engine_.run_delta(*program_);
    rr.resumed = true;
  } else {
    rr = engine_.run(*program_);
  }
  if (rr.aborted_fault) return rr;
  build_reverse_indexes();
  // Base deltas are load_facts/manifest leftovers (delta == full); nothing
  // reads them — drop the duplicate before going resident.
  for (Relation* b : base_) b->tree(core::Version::kDelta).clear();
  ready_ = true;
  return rr;
}

void ServingEngine::build_reverse_indexes() {
  const auto n = static_cast<std::size_t>(comm_->size());
  for (const RevSpec& rs : revs_) {
    rs.rev->reset();
    std::vector<std::vector<value_t>> send(n);
    std::vector<value_t> rrow(rs.base->arity() + 1);
    std::as_const(rs.base->tree(core::Version::kFull))
        .for_each([&](std::span<const value_t> row) {
          rrow[0] = row[rs.col];
          std::copy(row.begin(), row.end(), rrow.begin() + 1);
          append_row(send[static_cast<std::size_t>(rs.rev->owner_rank(rrow))], rrow);
        });
    auto flat = exchange_flat(std::move(send));
    // Base rows are distinct, so their reverse rows are too.
    storage::sort_rows(flat, rs.rev->arity(), rs.rev->indep_arity());
    rs.rev->tree(core::Version::kFull).assign_sorted(flat);
  }
}

void ServingEngine::apply_base(const UpdateBatch& batch, RowsBy& deleted,
                               RowsBy& inserted, UpdateResult& res) {
  const auto n = static_cast<std::size_t>(comm_->size());

  // Validate and group this rank's contributions per base relation.
  std::unordered_map<Relation*, std::pair<std::vector<const Tuple*>, std::vector<const Tuple*>>>
      byrel;  // relation -> (inserts, deletes)
  for (const auto& rd : batch) {
    Relation* r = find_relation(rd.relation);
    if (!is_base(r)) {
      throw ServingError("updates must target base relations: '" + rd.relation +
                         "' is derived");
    }
    auto& [ins, del] = byrel[r];
    for (const Tuple& t : rd.inserts) {
      if (t.size() != r->arity()) {
        throw ServingError("arity mismatch in insert into '" + rd.relation + "'");
      }
      ins.push_back(&t);
    }
    for (const Tuple& t : rd.deletes) {
      if (t.size() != r->arity()) {
        throw ServingError("arity mismatch in delete from '" + rd.relation + "'");
      }
      del.push_back(&t);
    }
  }

  // Route to owners and mutate.  Deletes apply before inserts, so a row
  // both deleted and inserted in one batch nets to the insert.  The owner
  // records only what actually changed — duplicate contributions (or a
  // delete of an absent row) collapse here.
  for (Relation* b : base_) {
    const auto it = byrel.find(b);
    std::vector<std::vector<value_t>> del(n), ins(n);
    if (it != byrel.end()) {
      for (const Tuple* t : it->second.second) {
        append_row(del[static_cast<std::size_t>(b->owner_rank(t->view()))], t->view());
      }
      for (const Tuple* t : it->second.first) {
        append_row(ins[static_cast<std::size_t>(b->owner_rank(t->view()))], t->view());
      }
    }
    const std::size_t ar = b->arity();
    auto dflat = exchange_flat(std::move(del));
    for (std::size_t off = 0; off < dflat.size(); off += ar) {
      const std::span<const value_t> row{dflat.data() + off, ar};
      if (b->tree(core::Version::kFull).erase_key(row)) {
        deleted[b].emplace_back(row);
        ++res.base_deleted;
      } else {
        ++res.missing_deletes;
      }
    }
    auto iflat = exchange_flat(std::move(ins));
    for (std::size_t off = 0; off < iflat.size(); off += ar) {
      const std::span<const value_t> row{iflat.data() + off, ar};
      if (b->tree(core::Version::kFull).insert(row)) {
        inserted[b].emplace_back(row);
        ++res.base_inserted;
      }
    }
  }

  // Mirror the actual changes into the reverse indexes.
  for (const RevSpec& rs : revs_) {
    std::vector<std::vector<value_t>> del(n), ins(n);
    std::vector<value_t> rrow(rs.base->arity() + 1);
    const auto pack = [&](std::span<const Tuple> rows,
                          std::vector<std::vector<value_t>>& out) {
      for (const Tuple& t : rows) {
        rrow[0] = t[rs.col];
        std::copy(t.view().begin(), t.view().end(), rrow.begin() + 1);
        append_row(out[static_cast<std::size_t>(rs.rev->owner_rank(rrow))], rrow);
      }
    };
    pack(rows_of(deleted, rs.base), del);
    pack(rows_of(inserted, rs.base), ins);
    const std::size_t ar = rs.rev->arity();
    auto dflat = exchange_flat(std::move(del));
    for (std::size_t off = 0; off < dflat.size(); off += ar) {
      rs.rev->tree(core::Version::kFull)
          .erase_key(std::span<const value_t>{dflat.data() + off, ar});
    }
    auto iflat = exchange_flat(std::move(ins));
    for (std::size_t off = 0; off < iflat.size(); off += ar) {
      rs.rev->tree(core::Version::kFull)
          .insert(std::span<const value_t>{iflat.data() + off, ar});
    }
  }
}

void ServingEngine::emit_candidates(
    const core::Rule& rule, Relation* probe_rel, std::span<const Tuple> probe_rows,
    std::unordered_map<Relation*, std::vector<std::vector<value_t>>>& cand) {
  const auto& jr = std::get<core::JoinRule>(rule);
  Relation* partner = probe_rel == jr.a ? jr.b : jr.a;
  const bool probe_is_a = probe_rel == jr.a;
  const auto n = static_cast<std::size_t>(comm_->size());

  // Replicate each probe to every rank holding a sub-bucket of the
  // partner's bucket (the probe's leading jcc columns ARE the join key).
  std::vector<std::vector<value_t>> send(n);
  std::vector<int> dests;
  for (const Tuple& p : probe_rows) {
    partner->ranks_of_bucket(partner->bucket_of(p.view()), dests);
    for (const int d : dests) append_row(send[static_cast<std::size_t>(d)], p.view());
  }
  auto flat = exchange_flat(std::move(send));

  Relation* t = jr.out.target;
  auto& out = cand[t];
  const std::size_t par = probe_rel->arity();
  const auto& ptree = std::as_const(partner->tree(core::Version::kFull));
  std::vector<value_t> row;
  for (std::size_t off = 0; off < flat.size(); off += par) {
    const std::span<const value_t> prow{flat.data() + off, par};
    ptree.scan_prefix(prow.first(partner->jcc()), [&](std::span<const value_t> q) {
      const auto arow = probe_is_a ? prow : q;
      const auto brow = probe_is_a ? q : prow;
      if (jr.filter && jr.filter->eval(arow, brow) == 0) return;
      row.clear();
      for (const Expr& e : jr.out.cols) row.push_back(e.eval(arow, brow));
      append_row(out[static_cast<std::size_t>(t->owner_rank(row))], row);
    });
  }
}

void ServingEngine::retract_wavefront(const RowsBy& deleted_base, KeysBy& retracted,
                                      UpdateResult& res) {
  const auto n = static_cast<std::size_t>(comm_->size());
  // Round 1 probes are the deleted base facts; later rounds probe the
  // derived rows the previous round retracted (with their final values).
  RowsBy wave = deleted_base;
  while (true) {
    std::unordered_map<Relation*, std::vector<std::vector<value_t>>> cand;
    for (Relation* t : rec_targets_) cand[t].resize(n);

    for (const core::Rule* rule : rec_rules_) {
      if (const auto* j = std::get_if<core::JoinRule>(rule)) {
        // At most one side has probes per round (round 1: the base side;
        // later: the derived side), but both calls always run — the probe
        // exchange is collective.
        emit_candidates(*rule, j->a, rows_of(wave, j->a), cand);
        emit_candidates(*rule, j->b, rows_of(wave, j->b), cand);
      } else {
        const auto& c = std::get<core::CopyRule>(*rule);
        Relation* t = c.out.target;
        auto& out = cand[t];
        std::vector<value_t> row;
        for (const Tuple& p : rows_of(wave, c.src)) {
          if (c.filter && c.filter->eval(p.view(), kNoSide) == 0) continue;
          row.clear();
          for (const Expr& e : c.out.cols) row.push_back(e.eval(p.view(), kNoSide));
          append_row(out[static_cast<std::size_t>(t->owner_rank(row))], row);
        }
      }
    }

    RowsBy next;
    std::uint64_t round_retracted = 0;
    for (Relation* t : rec_targets_) {
      auto flat = exchange_flat(std::move(cand[t]));
      const std::size_t ar = t->arity(), indep = t->indep_arity();
      for (std::size_t off = 0; off < flat.size(); off += ar) {
        const std::span<const value_t> row{flat.data() + off, ar};
        const auto key = row.first(indep);
        const auto stored = std::as_const(t->tree(core::Version::kFull)).find_key(key);
        if (stored.empty()) continue;  // already gone (earlier candidate)
        bool kill;
        if (t->aggregated()) {
          // Pre-mappable lattice: the stored aggregate equals this
          // invalidated derivation's value iff the best support ran
          // through the deleted fact (lattice ascent makes the final
          // premise value the best one the pair ever produced).  Equal →
          // over-delete and re-derive; different → a better support
          // survives, leave it.
          kill = std::equal(stored.begin() + static_cast<std::ptrdiff_t>(indep),
                            stored.end(),
                            row.begin() + static_cast<std::ptrdiff_t>(indep));
        } else {
          // Plain target: exact event counts; the key dies with its last
          // supporting derivation.  Count 0 means "no bookkeeping" (an
          // externally loaded fact) — never retract those on decrement.
          kill = t->support_of(key) > 0 && t->support_release(key, 1) == 0;
        }
        if (!kill) continue;
        Tuple removed = t->retract_key(key);
        retracted[t].insert(Tuple(key));
        next[t].push_back(std::move(removed));
        ++round_retracted;
      }
    }
    ++res.retraction_rounds;
    res.retracted += round_retracted;
    const auto total =
        comm_->allreduce<std::uint64_t>(round_retracted, vmpi::ReduceOp::kSum);
    if (total == 0) break;
    wave = std::move(next);
  }
}

void ServingEngine::recover_retracted(const KeysBy& retracted, UpdateResult& res) {
  (void)res;
  const auto n = static_cast<std::size_t>(comm_->size());
  for (std::size_t ri = 0; ri < rec_rules_.size(); ++ri) {
    const core::Rule& rule = *rec_rules_[ri];
    const Recovery& rc = recovery_[ri];
    Relation* target = target_of(rule);
    const auto* j = std::get_if<core::JoinRule>(&rule);
    Relation* premise =
        j ? (rc.premise_is_b ? j->b : j->a) : std::get<core::CopyRule>(rule).src;
    Relation* scan_rel = rc.via == Recovery::Via::kReverseIndex ? rc.rev : premise;

    // Hop 1: each retracted key's head column (deduped — two keys sharing
    // it would enumerate the same premises twice and double-count events),
    // shipped to whoever holds matching premises.
    std::unordered_set<value_t> k0s;
    if (const auto it = retracted.find(target); it != retracted.end()) {
      for (const Tuple& k : it->second) k0s.insert(k[0]);
    }
    std::vector<std::vector<value_t>> ksend(n);
    std::vector<int> dests;
    for (const value_t k0 : k0s) {
      const value_t one[1] = {k0};
      scan_rel->ranks_of_bucket(scan_rel->bucket_of(one), dests);
      for (const int d : dests) ksend[static_cast<std::size_t>(d)].push_back(k0);
    }
    auto kflat = exchange_flat(std::move(ksend));
    // Dedupe arrivals too: distinct owners may request the same column value.
    const std::unordered_set<value_t> kset(kflat.begin(), kflat.end());

    // Enumerate premises; join rules take one more hop to pair them with
    // the partner side.
    std::unordered_map<Relation*, std::vector<std::vector<value_t>>> cand;
    cand[target].resize(n);
    auto& out = cand[target];
    std::vector<std::vector<value_t>> psend(n);
    Relation* partner = j ? (rc.premise_is_b ? j->a : j->b) : nullptr;
    const bool premise_is_a = j != nullptr && !rc.premise_is_b;
    std::vector<value_t> row;
    const auto& stree = std::as_const(scan_rel->tree(core::Version::kFull));
    for (const value_t k0 : kset) {
      const value_t pfx[1] = {k0};
      stree.scan_prefix(pfx, [&](std::span<const value_t> srow) {
        const std::span<const value_t> prow =
            rc.via == Recovery::Via::kReverseIndex ? srow.subspan(1) : srow;
        if (j != nullptr) {
          partner->ranks_of_bucket(partner->bucket_of(prow), dests);
          for (const int d : dests) append_row(psend[static_cast<std::size_t>(d)], prow);
        } else {
          const auto& c = std::get<core::CopyRule>(rule);
          if (c.filter && c.filter->eval(prow, kNoSide) == 0) return;
          row.clear();
          for (const Expr& e : c.out.cols) row.push_back(e.eval(prow, kNoSide));
          append_row(out[static_cast<std::size_t>(target->owner_rank(row))], row);
        }
      });
    }
    if (j != nullptr) {
      auto pflat = exchange_flat(std::move(psend));
      const std::size_t par = premise->arity();
      const auto& ptree = std::as_const(partner->tree(core::Version::kFull));
      for (std::size_t off = 0; off < pflat.size(); off += par) {
        const std::span<const value_t> prow{pflat.data() + off, par};
        ptree.scan_prefix(prow.first(partner->jcc()), [&](std::span<const value_t> q) {
          const auto arow = premise_is_a ? prow : q;
          const auto brow = premise_is_a ? q : prow;
          if (j->filter && j->filter->eval(arow, brow) == 0) return;
          row.clear();
          for (const Expr& e : j->out.cols) row.push_back(e.eval(arow, brow));
          append_row(out[static_cast<std::size_t>(target->owner_rank(row))], row);
        });
      }
    }

    // Final hop: candidates to the target owner, staged ONLY for keys this
    // batch retracted — survivors keep their state, and the insert-seeding
    // pass (which skips retracted keys) covers everything else.
    auto cflat = exchange_flat(std::move(out));
    const std::size_t tar = target->arity(), indep = target->indep_arity();
    const auto rit = retracted.find(target);
    for (std::size_t off = 0; off < cflat.size(); off += tar) {
      const std::span<const value_t> crow{cflat.data() + off, tar};
      if (rit != retracted.end() && rit->second.contains(Tuple(crow.first(indep)))) {
        target->stage(crow);
      }
    }
  }
}

void ServingEngine::seed_inserts(const RowsBy& inserted_base, const KeysBy& retracted,
                                 UpdateResult& res) {
  (void)res;
  const auto n = static_cast<std::size_t>(comm_->size());
  for (const core::Rule* rule : rec_rules_) {
    Relation* target = target_of(*rule);
    std::vector<std::vector<value_t>> out(n);
    std::vector<value_t> row;
    std::vector<int> dests;
    if (const auto* jr = std::get_if<core::JoinRule>(rule)) {
      Relation* bside = is_base(jr->a) ? jr->a : jr->b;  // validated: exactly one
      Relation* partner = bside == jr->a ? jr->b : jr->a;
      const bool probe_is_a = bside == jr->a;
      std::vector<std::vector<value_t>> send(n);
      for (const Tuple& p : rows_of(inserted_base, bside)) {
        partner->ranks_of_bucket(partner->bucket_of(p.view()), dests);
        for (const int d : dests) append_row(send[static_cast<std::size_t>(d)], p.view());
      }
      auto flat = exchange_flat(std::move(send));
      const std::size_t par = bside->arity();
      const auto& ptree = std::as_const(partner->tree(core::Version::kFull));
      for (std::size_t off = 0; off < flat.size(); off += par) {
        const std::span<const value_t> prow{flat.data() + off, par};
        ptree.scan_prefix(prow.first(partner->jcc()), [&](std::span<const value_t> q) {
          const auto arow = probe_is_a ? prow : q;
          const auto brow = probe_is_a ? q : prow;
          if (jr->filter && jr->filter->eval(arow, brow) == 0) return;
          row.clear();
          for (const Expr& e : jr->out.cols) row.push_back(e.eval(arow, brow));
          append_row(out[static_cast<std::size_t>(target->owner_rank(row))], row);
        });
      }
    } else {
      const auto& c = std::get<core::CopyRule>(*rule);
      for (const Tuple& p : rows_of(inserted_base, c.src)) {
        if (c.filter && c.filter->eval(p.view(), kNoSide) == 0) continue;
        row.clear();
        for (const Expr& e : c.out.cols) row.push_back(e.eval(p.view(), kNoSide));
        append_row(out[static_cast<std::size_t>(target->owner_rank(row))], row);
      }
    }
    auto cflat = exchange_flat(std::move(out));
    const std::size_t tar = target->arity(), indep = target->indep_arity();
    const auto rit = retracted.find(target);
    for (std::size_t off = 0; off < cflat.size(); off += tar) {
      const std::span<const value_t> crow{cflat.data() + off, tar};
      // Retracted keys' candidates were produced (completely) by recovery;
      // staging them again here would double-count the event.
      if (rit != retracted.end() && rit->second.contains(Tuple(crow.first(indep)))) {
        continue;
      }
      target->stage(crow);
    }
  }
}

UpdateResult ServingEngine::apply_updates(const UpdateBatch& batch) {
  if (!ready_) throw ServingError("apply_updates before start()");
  UpdateResult res;
  // Pre-batch undo log: everything below stages against this, so an
  // aborted batch can restore the fixpoint instead of killing the engine.
  auto snaps = snapshot_all();
  try {
    RowsBy deleted, inserted;
    apply_base(batch, deleted, inserted, res);

    KeysBy retracted;
    retract_wavefront(deleted, retracted, res);
    recover_retracted(retracted, res);
    seed_inserts(inserted, retracted, res);

    // Fold the combined seed (recovered + newly derived) into full/delta.
    for (Relation* t : rec_targets_) res.tuples_derived += t->materialize().staged;

    // Projections are cheap full rebuilds over the evolved state.
    for (Relation* t : proj_targets_) t->reset();

    const auto run = engine_.run_delta(*program_);
    res.tail_iterations = run.total_iterations;
    if (run.aborted_fault) {
      // The engine caught the fault internally (e.g. this rank is the
      // kill victim) — same degradation path as the catch blocks below.
      res.aborted_fault = true;
      res.fault_what = run.fault_what;
      if (!roll_back(snaps, res)) ready_ = false;
      return res;
    }
    for (const auto& s : run.strata) res.tuples_derived += s.tuples_generated;

    // Recovered = retracted keys present in the final fixpoint (directly
    // re-derived or transitively restored by the tail).
    for (Relation* t : rec_targets_) {
      const auto it = retracted.find(t);
      if (it == retracted.end()) continue;
      const auto& full = std::as_const(t->tree(core::Version::kFull));
      for (const Tuple& k : it->second) {
        if (full.contains_key(k.view())) ++res.recovered;
      }
    }

    // Fold the owner-local counters so the result is identical everywhere.
    for (auto* f : {&res.base_inserted, &res.base_deleted, &res.missing_deletes,
                    &res.retracted, &res.recovered, &res.tuples_derived}) {
      *f = comm_->allreduce<std::uint64_t>(*f, vmpi::ReduceOp::kSum);
    }

    ++batches_applied_;
    if (cfg_.checkpoint_every_batches > 0 && !cfg_.manifest_path.empty() &&
        batches_applied_ % cfg_.checkpoint_every_batches == 0) {
      // At a batch boundary the fixpoint is complete; header (0, 0) makes
      // the manifest double as an Engine::resume superset restart point.
      core::write_manifest(*program_, cfg_.manifest_path, core::ManifestHeader{0, 0, 0});
      res.checkpointed = true;
    }
  } catch (const vmpi::FaultError& e) {
    // Same contract as Engine::run_from: poison the world (idempotent) so
    // peers unwind — then try to roll the batch back and keep serving.
    // Only when rollback is off (or a rank is truly gone) is the engine
    // no longer serviceable: restart and warm-start from the manifest.
    comm_->world().fault_abort();
    res.aborted_fault = true;
    res.fault_what = e.what();
    if (!roll_back(snaps, res)) ready_ = false;
  } catch (const vmpi::WorldAborted& e) {
    // A peer already poisoned the world (its fault fired first); unwind
    // to the same aborted result.
    res.aborted_fault = true;
    res.fault_what = e.what();
    if (!roll_back(snaps, res)) ready_ = false;
  }
  return res;
}

std::vector<Tuple> ServingEngine::lookup(const std::string& relation,
                                         std::span<const value_t> prefix) {
  if (!ready_) {
    throw ServingError("lookup('" + relation +
                       "') before start(): bring the fixpoint up first");
  }
  Relation* r = find_relation(relation);
  const auto& tree = std::as_const(r->tree(core::Version::kFull));
  if (prefix.size() > tree.key_arity()) {
    throw ServingError("lookup prefix longer than the key of '" + relation + "'");
  }
  vmpi::BufferWriter w;
  tree.scan_prefix(prefix, [&](std::span<const value_t> row) { w.put_span(row); });
  const auto mine = w.take();
  const auto blocks = comm_->allgatherv(std::span<const std::byte>(mine));
  std::vector<Tuple> out;
  const std::size_t ar = r->arity();
  Tuple t;
  t.reserve(ar);
  for (const auto& b : blocks) {
    vmpi::BufferReader rd(b);
    while (rd.remaining() >= ar * sizeof(value_t)) {
      t.clear();
      for (std::size_t c = 0; c < ar; ++c) t.push_back(rd.get<value_t>());
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<Tuple>> ServingEngine::lookup_batch(const std::string& relation,
                                                            std::span<const Tuple> keys) {
  if (!ready_) {
    throw ServingError("lookup_batch('" + relation +
                       "') before start(): bring the fixpoint up first");
  }
  Relation* r = find_relation(relation);
  const auto& tree = std::as_const(r->tree(core::Version::kFull));
  for (const Tuple& k : keys) {
    if (k.size() > tree.key_arity()) {
      throw ServingError("lookup key longer than the key of '" + relation + "'");
    }
    if (k.size() != keys.front().size()) {
      // Mixed lengths would break the monotone single-pass below: a longer
      // key can sort after a shorter prefix it is contained in.
      throw ServingError("lookup_batch keys must share one length");
    }
  }

  // One monotone cursor pass over the sorted unique keys: consecutive
  // seeks resume from the current leaf (storage/btree.hpp).
  std::vector<Tuple> uniq(keys.begin(), keys.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  vmpi::BufferWriter w;
  auto c = tree.cursor();
  std::vector<value_t> rows;
  for (std::size_t i = 0; i < uniq.size(); ++i) {
    rows.clear();
    for (c.seek(uniq[i].view()); c.valid() && c.matches(uniq[i].view()); c.next()) {
      rows.insert(rows.end(), c.row().begin(), c.row().end());
    }
    if (!rows.empty()) {
      w.put<std::uint64_t>(i);
      w.put<std::uint64_t>(rows.size());
      w.put_span(std::span<const value_t>(rows));
    }
  }
  const auto mine = w.take();
  const auto blocks = comm_->allgatherv(std::span<const std::byte>(mine));

  std::vector<std::vector<Tuple>> per_uniq(uniq.size());
  const std::size_t ar = r->arity();
  Tuple t;
  t.reserve(ar);
  for (const auto& b : blocks) {
    vmpi::BufferReader rd(b);
    while (rd.remaining() >= 2 * sizeof(std::uint64_t)) {
      const auto idx = static_cast<std::size_t>(rd.get<std::uint64_t>());
      const auto count = static_cast<std::size_t>(rd.get<std::uint64_t>());
      for (std::size_t v = 0; v < count; v += ar) {
        t.clear();
        for (std::size_t col = 0; col < ar; ++col) t.push_back(rd.get<value_t>());
        per_uniq[idx].push_back(t);
      }
    }
  }
  for (auto& rows_for_key : per_uniq) std::sort(rows_for_key.begin(), rows_for_key.end());

  std::vector<std::vector<Tuple>> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto it = std::lower_bound(uniq.begin(), uniq.end(), keys[i]);
    out[i] = per_uniq[static_cast<std::size_t>(it - uniq.begin())];
  }
  return out;
}

}  // namespace paralagg::serving
