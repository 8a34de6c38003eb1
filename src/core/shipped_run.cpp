#include "core/shipped_run.hpp"

#include <array>
#include <bit>

#include "core/relation.hpp"

namespace paralagg::core {

std::size_t ShippedRun::filter(FoldRun& run, std::uint64_t& hits) {
  const std::size_t n = run.row_count();
  // Size the index for the worst case, every row new, so no probe below
  // meets a rehash.
  reserve(n);
  const value_t* const in = run.values().data();
  // Probes are random, so keep a few in flight: the home slot of row
  // r + kAhead and the stored row of r + kAhead / 2 are prefetched while
  // row r is checked.  drop_if only moves rows below the one it is
  // checking, so the rows ahead are still where `in` has them.
  std::array<std::size_t, kAhead> home{};
  const auto start = [&](std::size_t r) {
    home[r % kAhead] = slot_of(in + r * arity_);
    __builtin_prefetch(&slots_[home[r % kAhead]]);
  };
  for (std::size_t r = 0; r < std::min(n, kAhead); ++r) start(r);
  std::size_t r = 0;
  return run.drop_if([&](std::span<const value_t> row) {
    const std::size_t i = home[r % kAhead];
    if (r + kAhead < n) start(r + kAhead);
    if (r + kAhead / 2 < n) {
      if (const std::uint32_t s = slots_[home[(r + kAhead / 2) % kAhead]]; s != 0) {
        __builtin_prefetch(rows_.data() + (s - 1) * arity_);
      }
    }
    ++r;
    return probe(i, row, hits);
  });
}

void ShippedRun::reserve(std::size_t more) {
  if (2 * (count_ + more) <= slots_.size()) return;
  std::size_t want = std::max<std::size_t>(64, slots_.size());
  while (2 * (count_ + more) > want) want *= 2;
  rehash(want);
}

void ShippedRun::rehash(std::size_t slots) {
  std::vector<std::uint32_t>(slots).swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  const std::size_t mask = slots - 1;
  for (std::size_t r = 0; r < count_; ++r) {
    std::size_t i = slot_of(rows_.data() + r * arity_);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(r + 1);
  }
}

void ShippedRun::release() {
  count_ = 0;
  std::vector<value_t>().swap(rows_);
  std::vector<std::uint32_t>().swap(slots_);
}

void DominanceFilter::add_target(const Relation& rel, bool filter) {
  const RecursiveAggregator* agg = rel.config().aggregator.get();
  for (std::size_t d = 0; d < dests_; ++d) {
    runs_.emplace_back(rel.arity(), rel.indep_arity(), agg);
  }
  // Dropping a dominated row is exact only where the owner's stored value
  // only ascends and a repeat adds nothing: an idempotent lattice.  SUM
  // and kRefresh re-fold every row; plain targets stay as they are.
  yield_.push_back({.live = filter && rel.aggregated() &&
                            rel.config().agg_mode == AggMode::kLattice && agg->idempotent()});
}

std::size_t DominanceFilter::filter(std::size_t target, std::size_t dest, FoldRun& run) {
  Yield& y = yield_[target];
  if (!y.live) return 0;
  const std::size_t dropped = runs_[target * dests_ + dest].filter(run, y.hits);
  y.dominated += dropped;
  return dropped;
}

void DominanceFilter::release_low_yield() {
  for (std::size_t t = 0; t < yield_.size(); ++t) {
    if (yield_[t].live && low_yield(yield_[t])) release(t);
  }
}

void DominanceFilter::release(std::size_t target) {
  yield_[target].live = false;
  for (std::size_t d = 0; d < dests_; ++d) runs_[target * dests_ + d].release();
  ++released_;
}

}  // namespace paralagg::core
