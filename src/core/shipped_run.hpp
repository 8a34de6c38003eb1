#pragma once

// Ship only what can still move the owner: the dominance filter both
// engines run before the wire (DESIGN.md §6.3).
//
// In a pre-mappable, idempotent lattice (an aggregated target under
// AggMode::kLattice whose aggregator is idempotent()) the owner's stored
// value for a key only ascends, and it absorbs every value it was sent.  A
// sender that remembers, per key, the ⊔ of everything it has queued for one
// owner in the stratum may therefore drop any later row that memory absorbs
// (shipped ⊔ row == shipped): the row could never become a delta there.
//
//   * ShippedRun is that memory for one (target, destination): a flat row
//     array plus an open-addressing index over the keys.  Its one probe
//     either drops a row or folds it in.  dominated() runs the probe on one
//     row (the async loop, before a row enters its STAGE buffer); filter()
//     walks a folded run with probes kept in flight (the BSP router, at
//     pack()).  Both drop the same rows from the same sequence.
//   * DominanceFilter holds one sender's ShippedRuns for every (target,
//     destination) plus each target's yield.  A target whose probes rarely
//     drop anything releases its histories for the rest of the stratum;
//     each engine picks the share below which that happens.  Releasing is
//     always exact: the sender then ships what an unfiltered one ships.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/aggregator.hpp"
#include "core/fold_run.hpp"
#include "core/types.hpp"

namespace paralagg::core {

class Relation;

/// What one rank has queued for one destination and one target: per key,
/// the ⊔ of every value.  A check costs one probe whatever the history's
/// length (a sorted run would merge its whole length to take in new keys).
class ShippedRun {
 public:
  ShippedRun(std::size_t arity, std::size_t key_arity, const RecursiveAggregator* agg)
      : arity_(arity), key_arity_(key_arity), agg_(agg), joined_(arity - key_arity) {}

  /// Does the history absorb `row`?  If so the row can be dropped;
  /// otherwise it is folded in and must ship.  Adds 1 to `hits` when the
  /// row's key was in the history.
  bool dominated(std::span<const value_t> row, std::uint64_t& hits) {
    if (2 * (count_ + 1) > slots_.size()) reserve(1);
    return probe(slot_of(row.data()), row, hits);
  }

  /// dominated() over every row of a folded `run`, in order, dropping the
  /// absorbed rows from it with a few probes kept in flight.  Returns the
  /// rows dropped.
  std::size_t filter(FoldRun& run, std::uint64_t& hits);

  /// Drop the history and return its memory.
  void release();

 private:
  static constexpr std::size_t kAhead = 8;  // probes kept in flight by filter()

  /// Size the index so `more` new keys meet no rehash (load <= 1/2).
  void reserve(std::size_t more);
  void rehash(std::size_t slots);
  /// Home slot of a key: multiplicative hashing, top bits.
  [[nodiscard]] std::size_t slot_of(const value_t* key) const {
    value_t h = 0;
    for (std::size_t c = 0; c < key_arity_; ++c) h = (h ^ key[c]) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }
  /// The one probe, from slot `i` (the row's home).  Needs a free slot.
  bool probe(std::size_t i, std::span<const value_t> row, std::uint64_t& hits) {
    const std::size_t mask = slots_.size() - 1;
    for (;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        rows_.insert(rows_.end(), row.begin(), row.end());
        slots_[i] = static_cast<std::uint32_t>(++count_);
        return false;
      }
      value_t* const stored = rows_.data() + (slots_[i] - 1) * arity_;
      if (!std::equal(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(key_arity_),
                      stored)) {
        continue;
      }
      ++hits;
      const std::span<value_t> acc(stored + key_arity_, arity_ - key_arity_);
      agg_->partial_agg(acc, row.subspan(key_arity_), joined_);
      if (std::equal(joined_.begin(), joined_.end(), acc.begin())) return true;
      std::copy(joined_.begin(), joined_.end(), acc.begin());
      return false;
    }
  }

  std::size_t arity_;
  std::size_t key_arity_;
  const RecursiveAggregator* agg_;
  std::size_t count_ = 0;             // rows held
  unsigned shift_ = 64;               // 64 - log2(slots_.size())
  std::vector<value_t> rows_;         // key columns + shipped ⊔, arity_ each
  std::vector<std::uint32_t> slots_;  // row index + 1 per key hash; 0 = empty
  std::vector<value_t> joined_;       // partial_agg output
};

/// One sender's ShippedRuns, target-major over `destinations`, and each
/// target's release rule.
class DominanceFilter {
 public:
  /// A target releases its histories once at least kReleaseMinHits rows
  /// found their key in them and fewer than 1 in `release_share` of those
  /// were dominated: the probes then cost more than the drops save.
  static constexpr std::uint64_t kReleaseMinHits = 4096;

  DominanceFilter(std::size_t destinations, std::uint64_t release_share)
      : dests_(destinations), share_(release_share) {}

  /// Register the next target (targets are indexed in registration order).
  /// Its histories are live when `filter` holds and dropping is exact for
  /// it: aggregated, AggMode::kLattice, idempotent().
  void add_target(const Relation& rel, bool filter);

  /// Does this sender still drop dominated rows for `target`?
  [[nodiscard]] bool live(std::size_t target) const { return yield_[target].live; }

  /// ShippedRun::dominated for (target, dest); false for a released or
  /// unfiltered target.  Applies the release rule as it goes: only a key
  /// hit that is not dominated lowers the yield, so the target is released
  /// at the first one that takes it below the share.
  bool dominated(std::size_t target, std::size_t dest, std::span<const value_t> row) {
    Yield& y = yield_[target];
    if (!y.live) return false;
    const std::uint64_t hits = y.hits;
    if (runs_[target * dests_ + dest].dominated(row, y.hits)) {
      ++y.dominated;
      return true;
    }
    if (y.hits != hits && low_yield(y)) release(target);
    return false;
  }

  /// ShippedRun::filter for (target, dest); drops nothing for a released
  /// or unfiltered target.  Returns the rows dropped.  The caller applies
  /// the release rule between batches with release_low_yield().
  std::size_t filter(std::size_t target, std::size_t dest, FoldRun& run);

  /// Release the histories of every live target whose yield fell below the
  /// release share.
  void release_low_yield();

  /// Targets released so far.
  [[nodiscard]] std::size_t released() const { return released_; }

 private:
  struct Yield {
    bool live = false;
    std::uint64_t hits = 0;       // rows whose key was in a history
    std::uint64_t dominated = 0;  // of those, rows dropped
  };

  [[nodiscard]] bool low_yield(const Yield& y) const {
    return y.hits >= kReleaseMinHits && y.dominated * share_ < y.hits;
  }
  /// Drop the target's histories for good: it then ships every row.
  void release(std::size_t target);

  std::size_t dests_;
  std::uint64_t share_;
  std::vector<ShippedRun> runs_;  // [target * dests_ + dest]
  std::vector<Yield> yield_;      // per target
  std::size_t released_ = 0;
};

}  // namespace paralagg::core
